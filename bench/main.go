// Command bench is the repository's end-to-end benchmark. It runs one
// workload per process over inputs generated from a seed, checks that the
// outputs are correct, and prints one JSON object as the last line of its
// standard output: the end-to-end metrics, or with -trace 1 the per-layer
// metrics and, on standard error, the ledger of where the time went.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload NAME -seed N [-seconds S] [-trace 0|1]
//
// See bench/README.md for the workloads, the metrics and the comparison
// protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incore/internal/pipeline"
	"incore/internal/store"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int // set-ups per run; setup_s is their median
	tmp      string
	spans    string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// layers are the per-layer metrics of a traced run; main reports them
	// in place of the end-to-end ones.
	layers map[string]metric
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "size of the measured phase: each workload runs this many times its operations per second (bench/README.md)")
	flag.IntVar(&trace, "trace", 0, "1 runs the workload a second time traced and reports the per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "directory for the run's temporary stores")
	flag.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans-WORKLOAD.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, not %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	o.setups = 3
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+o.workload+".json")
	}
	r, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if o.trace {
		r.Metrics = r.layers
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it untraced, and with o.trace
// measures it again traced. Human-readable lines go to log.
func run(o options, log io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	workers := pipeline.SetDefaultWorkers(0)
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmp, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &env{seed: o.seed, seconds: o.seconds, workers: workers, shared: filepath.Join(dir, "shared")}
	if w.prepare != nil {
		start := time.Now()
		if err := w.prepare(e.shared); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		fmt.Fprintf(log, "bench %s: prepared in %v\n", o.workload, time.Since(start))
	}
	var inst *instance
	setups := make([]time.Duration, o.setups)
	for k := range setups {
		if inst != nil {
			inst.close()
		}
		e.dir = filepath.Join(dir, fmt.Sprintf("setup%d", k))
		start := time.Now()
		if err := os.Mkdir(e.dir, 0o755); err != nil {
			return nil, err
		}
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups[k] = time.Since(start)
	}
	defer inst.close()
	// Collect what the discarded set-ups left behind before timing starts.
	runtime.GC()

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	m := newMeter(inst, nil, nil)
	if err := inst.measure(m); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	failed := m.finish(inst, log)
	heap := liveHeapMB()
	items := float64(inst.ops * inst.itemsPerOp)
	p50, tq := median(m.lat), tailQuantile(len(m.lat))
	tail := percentile(m.lat, tq)
	fmt.Fprintf(log, "bench %s seed %d: %d operations of %d %s on %d worker(s), set-up %d times (median %v)\n",
		o.workload, o.seed, inst.ops, inst.itemsPerOp, w.item, workers, o.setups, median(setups))
	fmt.Fprintf(log, "  operation p50 %v, p%.4g %v, min %v, max %v (%d samples); %.1f %s/s; live heap %.1f MB; %d failed\n",
		p50, 100*tq, tail, percentile(m.lat, 0), percentile(m.lat, 1), len(m.lat),
		items/m.wall.Seconds(), w.item, heap, failed)
	r := &result{Attempted: inst.ops, Metrics: map[string]metric{
		"setup_s":     {median(setups).Seconds(), "s"},
		"p50_ms":      {ms(p50), "ms"},
		"items_per_s": {items / m.wall.Seconds(), "1/s"},
		"heap_mb":     {heap, "MB"},
	}}
	if o.trace {
		r.layers = map[string]metric{}
		counts(r.layers, inst, &before, &after)
		k, err := newKit(filepath.Join(dir, "probe"))
		if err != nil {
			return nil, err
		}
		defer k.close()
		t := newTracer()
		tm := newMeter(inst, t, k)
		if err := inst.measure(tm); err != nil {
			return nil, fmt.Errorf("%s traced: %w", o.workload, err)
		}
		failed += tm.finish(inst, log)
		r.Attempted += inst.ops
		l := newLedger(o.workload, inst.rows, inst.par, inst.ops, t, median(m.lat), median(tm.lat))
		l.print(log)
		if err := t.write(o.spans); err != nil {
			return nil, err
		}
		for _, name := range kitLayers {
			r.layers[name.metric] = metric{float64(l.unit[name.span]) / float64(name.scale), name.unit}
		}
		r.layers["ledger.op_ms"] = metric{ms(l.op), "ms"}
		r.layers["ledger.layers_ms"] = metric{ms(l.layers()), "ms"}
		r.layers["ledger.residual_pct"] = metric{l.residualPct(), "%"}
		r.layers["trace.overhead_pct"] = metric{l.overheadPct(), "%"}
	}
	r.Failed = failed
	r.Correct = failed == 0
	return r, nil
}

// counts adds the counters of the untraced pass: the tiers' accounting at
// the end of the measured phase (since the workload last reset them) and
// the Go runtime's over the phase.
func counts(out map[string]metric, inst *instance, before, after *runtime.MemStats) {
	memo := pipeline.Shared().Stats()
	art := pipeline.CompiledArtifacts().Stats()
	var st store.Stats
	if ps := pipeline.PersistentStore(); ps != nil {
		st = ps.Stats()
	}
	out["pipeline.memo_hits"] = metric{float64(memo.Hits), "count"}
	out["pipeline.memo_misses"] = metric{float64(memo.Misses), "count"}
	out["pipeline.memo_entries"] = metric{float64(memo.Entries), "count"}
	out["pipeline.artifact_compiles"] = metric{float64(art.Compiles), "count"}
	out["pipeline.artifact_kib"] = metric{float64(art.BytesEstimated) / 1024, "KiB"}
	out["store.warm"] = metric{float64(st.Warm()), "count"}
	out["store.cold"] = metric{float64(st.Misses), "count"}
	out["go.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	out["go.gc_pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}
	out["go.allocs_per_op"] = metric{float64(after.Mallocs-before.Mallocs) / float64(inst.ops), "count"}
}

// meter runs a workload's operations and records their latencies. With a
// tracer, every sampled operation first runs the layer kit on the
// operation's inputs, then the operation itself as the "real" span, then
// the kit's warm-path probes.
type meter struct {
	inst *instance
	tr   *tracer
	kit  *kit
	lat  []time.Duration
	wall time.Duration
	gate sync.RWMutex // traced pass: the kit holds it exclusively

	failed atomic.Int64
	mu     sync.Mutex
	errs   []error
}

func newMeter(inst *instance, t *tracer, k *kit) *meter {
	return &meter{inst: inst, tr: t, kit: k, lat: make([]time.Duration, inst.ops)}
}

// run executes operations [from, to) in a closed loop on clients
// goroutines: each client starts its next operation only once its previous
// one has completed.
func (m *meter) run(from, to, clients int, op func(i int, s scope) error) {
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				m.do(i, op)
			}
		}()
	}
	wg.Wait()
	m.wall += time.Since(start)
}

func (m *meter) do(i int, op func(int, scope) error) {
	if m.tr == nil {
		start := time.Now()
		err := op(i, scope{})
		m.lat[i] = time.Since(start)
		m.fail(err)
		return
	}
	// In the traced pass the kit runs alone: operations of other clients
	// wait outside their timed region until the probes are done, so that a
	// probe measures the layer, not the contention for the CPUs.
	if i%m.inst.sampleEvery != 0 {
		m.gate.RLock()
		start := time.Now()
		err := op(i, scope{})
		m.lat[i] = time.Since(start)
		m.gate.RUnlock()
		m.fail(err)
		return
	}
	root := m.tr.root(i)
	in := m.inst.inputs(i)
	m.gate.Lock()
	m.fail(m.kit.pre(root, in))
	m.gate.Unlock()
	m.gate.RLock()
	start := time.Now()
	m.fail(root.span("real", func(s scope) error { return op(i, s) }))
	m.lat[i] = time.Since(start)
	m.gate.RUnlock()
	m.gate.Lock()
	m.fail(m.kit.post(root, in))
	m.gate.Unlock()
	root.close("op", 0)
}

func (m *meter) fail(err error) {
	if err == nil {
		return
	}
	m.failed.Add(1)
	m.mu.Lock()
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err)
	}
	m.mu.Unlock()
}

// finish runs the workload's deferred output checks and returns the number
// of failed operations, reporting the first few failures to log.
func (m *meter) finish(inst *instance, log io.Writer) int {
	if inst.verify != nil {
		for _, err := range inst.verify() {
			m.fail(err)
		}
	}
	for _, err := range m.errs {
		fmt.Fprintf(log, "bench: FAIL %v\n", err)
	}
	return int(m.failed.Load())
}

func liveHeapMB() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// percentile is the nearest-rank q-quantile.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// tailQuantile is the highest quantile with at least ten of n samples
// beyond it, capped at p99; with 20 samples or fewer it is the median.
func tailQuantile(n int) float64 {
	return math.Min(0.99, math.Max(0.5, 1-10/float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
