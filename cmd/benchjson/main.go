// Command benchjson measures the simulator/analyzer hot paths with
// testing.Benchmark and emits machine-readable JSON, so perf numbers can
// be committed (BENCH_sim.json) and regressions gated in CI.
//
// Usage:
//
//	benchjson                      # print current numbers as JSON
//	benchjson -check BENCH_sim.json  # fail if allocs/op exceeds a budget
//	benchjson -update BENCH_sim.json # rewrite the file's "current" block
//
// The CI gate compares allocations per operation, not nanoseconds:
// allocation counts are deterministic on any machine, while wall-clock on
// shared single-CPU CI runners is noise (see EXPERIMENTS.md). ns/op and
// B/op are recorded for humans reading the file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/memsim"
	"incore/internal/pipeline"
	"incore/internal/serve"
	"incore/internal/sim"
	"incore/internal/store"
	"incore/internal/sweep"
	"incore/internal/uarch"
)

// Metrics is one benchmark's measurement.
type Metrics struct {
	NsPerOp     int64 `json:"ns_op"`
	BytesPerOp  int64 `json:"b_op"`
	AllocsPerOp int64 `json:"allocs_op"`
}

// File is the schema of BENCH_sim.json.
type File struct {
	Schema int    `json:"schema"`
	Note   string `json:"note"`
	// BaselinePreRefactor preserves the numbers measured on the
	// map-based O(iterations) simulator before the compiled/ring-buffer
	// engine landed, so the delta stays on the record.
	BaselinePreRefactor map[string]Metrics `json:"baseline_pre_refactor"`
	// Current is the last committed measurement of this tree.
	Current map[string]Metrics `json:"current"`
	// AllocBudget is the CI gate: allocs/op above the budget fails.
	// Budgets carry headroom over Current so pool warmup and Go-version
	// drift don't flake, while a hot-path regression still trips.
	AllocBudget map[string]int64 `json:"alloc_budget"`
}

func genBlock(name, arch string, c kernels.Compiler, o kernels.OptLevel) *isa.Block {
	k, err := kernels.ByName(name)
	if err != nil {
		panic(err)
	}
	b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: c, Opt: o})
	if err != nil {
		panic(err)
	}
	return b
}

// suite returns the benchmark set, keyed by stable names. It mirrors the
// repo-level Benchmark{Simulator,Analyzer}SingleBlock benches and adds an
// AArch64 block and the Zen 4 divide kernel (whose non-dyadic early-exit
// occupancies keep the simulator on the full-length path). The analyzer
// front-end is benchmarked on all three models so the alloc-budget gate
// covers the x86 and AArch64 lookup/effects paths alike.
func suite() map[string]func(b *testing.B) {
	striadGLC := genBlock("striad", "goldencove", kernels.GCC, kernels.O3)
	j3d27V2 := genBlock("j3d27", "neoversev2", kernels.GCC, kernels.O3)
	piZen4 := genBlock("pi", "zen4", kernels.GCC, kernels.O3)

	simBench := func(blk *isa.Block, arch string) func(b *testing.B) {
		m := uarch.MustGet(arch)
		cfg := sim.DefaultConfig(m)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(blk, m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	an := core.New()
	analyzeBench := func(blk *isa.Block, arch string) func(b *testing.B) {
		m := uarch.MustGet(arch)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := an.Analyze(blk, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// SimCompile isolates the front half sim.Run used to repeat on every
	// call and the artifact cache now runs once per (block, model); its
	// cost is what the warm path saves.
	compileBench := func(blk *isa.Block, arch string) func(b *testing.B) {
		m := uarch.MustGet(arch)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Compile(blk, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// SimRunWarm is the compile-once execution path: one Program, many
	// runs — what a model sweep or a warm server actually executes.
	warmRunBench := func(blk *isa.Block, arch string) func(b *testing.B) {
		m := uarch.MustGet(arch)
		cfg := sim.DefaultConfig(m)
		p, err := sim.Compile(blk, m)
		if err != nil {
			panic(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// AnalyzeInternal is the arena-returned zero-allocation analysis path
	// (skeleton + descriptors from the artifact cache, Result from the
	// caller's arena). One warmup call binds the artifacts and sizes the
	// arena before the measured loop.
	internalBench := func(blk *isa.Block, arch string) func(b *testing.B) {
		m := uarch.MustGet(arch)
		ar := &pipeline.InternalArena{}
		if _, err := pipeline.AnalyzeInternal(an, blk, m, ar); err != nil {
			panic(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.AnalyzeInternal(an, blk, m, ar); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// SweepVariantWarm is the steady state of a node-parameter design-space
	// sweep: the variant differs from the base only in node-level fields,
	// so it keeps the base's port signature and the compiled tier serves it
	// the base's skeleton and descriptor table — the setup panics if the
	// variant's first analysis compiled anything. SweepVariantPortDelta is
	// a port-count variant: the signature changes, exactly one descriptor
	// table recompiles, and the skeleton stays shared. Both measured loops
	// run the arena path and are budgeted at exactly 0 allocs/op.
	variantBench := func(blk *isa.Block, arch, param string, value float64, wantDescsDelta int64) func(b *testing.B) {
		m := uarch.MustGet(arch)
		ar := &pipeline.InternalArena{}
		if _, err := pipeline.AnalyzeInternal(an, blk, m, ar); err != nil {
			panic(err)
		}
		vs, err := sweep.Variants(m, []sweep.Axis{{Param: param, Values: []float64{value}}})
		if err != nil {
			panic(err)
		}
		vm := vs[0].Model
		before := pipeline.CompiledArtifacts().Stats()
		var2 := &pipeline.InternalArena{}
		if _, err := pipeline.AnalyzeInternal(an, blk, vm, var2); err != nil {
			panic(err)
		}
		after := pipeline.CompiledArtifacts().Stats()
		if d := after.Descs - before.Descs; d != wantDescsDelta {
			panic(fmt.Sprintf("%s variant on %s/%s: descriptor tables grew by %d, want %d",
				param, arch, blk.Name, d, wantDescsDelta))
		}
		if after.Skeletons != before.Skeletons {
			panic(fmt.Sprintf("%s variant on %s/%s recompiled a skeleton; skeletons are model-independent",
				param, arch, blk.Name))
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.AnalyzeInternal(an, blk, vm, var2); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	glcPortValue := float64(uarch.MustGet("goldencove").LoadPorts.Count() - 1)
	// Sweep64/cold is a whole node-only sweep — the goldencove 8x8
	// bandwidth x TDP grid over the kernel suite — from empty memo and
	// artifact tiers: per block content one skeleton, one descriptor
	// table and one analysis shared by all 64 variants, then one memo
	// entry per (variant, block) cell.
	nodeAxes := []sweep.Axis{
		{Param: "mem_bandwidth_gbs", Values: []float64{150, 200, 250, 300, 350, 400, 450, 500}},
		{Param: "tdp_watts", Values: []float64{200, 225, 250, 275, 300, 325, 350, 375}},
	}
	sweepColdBench := func() func(b *testing.B) {
		base := uarch.MustGet("goldencove")
		blocks, err := sweep.BlocksFor(base)
		if err != nil {
			panic(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pipeline.Shared().Reset()
				pipeline.CompiledArtifacts().Reset()
				if _, err := sweep.Run(base, nodeAxes, blocks, sweep.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// SweepExpand/goldencove-node64 is the expansion step of the same grid
	// alone: 64 variants derived from the base, sharing its encoded
	// instruction table and entry index.
	sweepExpandBench := func() func(b *testing.B) {
		base := uarch.MustGet("goldencove")
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Variants(base, nodeAxes); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// UnmarshalStable/* decodes one stored analysis: the payload work of
	// every warm store read of a core.Result.
	decodeBench := func(blk *isa.Block, arch string) func(b *testing.B) {
		m := uarch.MustGet(arch)
		r, err := an.Analyze(blk, m)
		if err != nil {
			panic(err)
		}
		data, err := r.MarshalStable()
		if err != nil {
			panic(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.UnmarshalStable(data, blk, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// ParseBlock/* parses one generated block's text: the per-block work
	// of serve, corpus and sweep requests and of suite generation.
	parseBench := func(blk *isa.Block) func(b *testing.B) {
		text := blk.Text()
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := isa.ParseBlock(blk.Name, blk.Arch, blk.Dialect, text); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// KernelsFullSuite generates and parses the 416-block validation
	// suite, which fig3, ecm and nodeperf do on every repro run.
	fullSuiteBench := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kernels.FullSuite(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return map[string]func(b *testing.B){
		"KernelsFullSuite":                        fullSuiteBench,
		"ParseBlock/goldencove/striad":            parseBench(striadGLC),
		"ParseBlock/neoversev2/j3d27":             parseBench(j3d27V2),
		"MemsimStoreStream/neoversev2":            memsimBench("neoversev2", 8, false),
		"MemsimStoreStream/goldencove":            memsimBench("goldencove", 8, false),
		"MemsimStoreStream/zen4":                  memsimBench("zen4", 8, false),
		"MemsimStoreStreamFull/neoversev2":        memsimBench("neoversev2", 0, false),
		"MemsimStoreStreamFull/goldencove":        memsimBench("goldencove", 0, false),
		"MemsimStoreStreamFull/zen4":              memsimBench("zen4", 0, false),
		"MemsimTriad/neoversev2":                  memsimBench("neoversev2", 8, true),
		"MemsimTriad/goldencove":                  memsimBench("goldencove", 8, true),
		"MemsimTriad/zen4":                        memsimBench("zen4", 8, true),
		"CacheInsert":                             cacheInsertBench(),
		"SimRun/goldencove/striad":                simBench(striadGLC, "goldencove"),
		"SimRun/neoversev2/j3d27":                 simBench(j3d27V2, "neoversev2"),
		"SimRun/zen4/pi":                          simBench(piZen4, "zen4"),
		"SimCompile/goldencove/striad":            compileBench(striadGLC, "goldencove"),
		"SimCompile/neoversev2/j3d27":             compileBench(j3d27V2, "neoversev2"),
		"SimCompile/zen4/pi":                      compileBench(piZen4, "zen4"),
		"SimRunWarm/goldencove/striad":            warmRunBench(striadGLC, "goldencove"),
		"SimRunWarm/neoversev2/j3d27":             warmRunBench(j3d27V2, "neoversev2"),
		"SimRunWarm/zen4/pi":                      warmRunBench(piZen4, "zen4"),
		"UnmarshalStable/goldencove/striad":       decodeBench(striadGLC, "goldencove"),
		"UnmarshalStable/neoversev2/j3d27":        decodeBench(j3d27V2, "neoversev2"),
		"UnmarshalStable/zen4/pi":                 decodeBench(piZen4, "zen4"),
		"StoreGetDisk/goldencove/striad":          storeDiskBench(an, striadGLC, "goldencove"),
		"Analyze/goldencove/striad":               analyzeBench(striadGLC, "goldencove"),
		"Analyze/neoversev2/j3d27":                analyzeBench(j3d27V2, "neoversev2"),
		"Analyze/zen4/pi":                         analyzeBench(piZen4, "zen4"),
		"AnalyzeInternal/goldencove/striad":       internalBench(striadGLC, "goldencove"),
		"AnalyzeInternal/neoversev2/j3d27":        internalBench(j3d27V2, "neoversev2"),
		"AnalyzeInternal/zen4/pi":                 internalBench(piZen4, "zen4"),
		"ServeAnalyzeWarm/goldencove/striad":      serveWarmBench(striadGLC, "goldencove"),
		"Sweep64/cold":                            sweepColdBench(),
		"SweepExpand/goldencove-node64":           sweepExpandBench(),
		"SweepVariantWarm/goldencove/striad":      variantBench(striadGLC, "goldencove", "mem_bandwidth_gbs", 123, 0),
		"SweepVariantWarm/zen4/pi":                variantBench(piZen4, "zen4", "tdp_watts", 123, 0),
		"SweepVariantPortDelta/goldencove/striad": variantBench(striadGLC, "goldencove", "load_ports", glcPortValue, 1),
	}
}

// storeDiskBench is one disk-tier store read: GetValidated of a stored
// analysis under its real content key, envelope checks and base64 decode
// included, payload decode (UnmarshalStable/*) excluded. The store keeps
// no payload in memory, so every read is served from disk.
func storeDiskBench(an *core.Analyzer, blk *isa.Block, arch string) func(b *testing.B) {
	m := uarch.MustGet(arch)
	r, err := an.Analyze(blk, m)
	if err != nil {
		panic(err)
	}
	payload, err := r.MarshalStable()
	if err != nil {
		panic(err)
	}
	key := "analyze\x00" + an.Fingerprint() + "\x00" + m.CacheKey() + "\x00" + pipeline.BlockKey(blk)
	return func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.Options{Schema: pipeline.StoreSchema()})
		if err != nil {
			b.Fatal(err)
		}
		st.Put(key, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := st.GetValidated(key, nil); !ok {
				b.Fatal("stored entry missed")
			}
		}
	}
}

// memsimBench is one warm memsim run — 2048 lines per core per stream on
// the given number of cores, or the full socket for 0 — on a reused
// System: a store stream, or a triad with NT stores on x86 as bw measures
// it. The run resets in place, and the controller queues, replay
// schedules and core groups keep the buffers they grew in the warmup.
func memsimBench(key string, cores int, triad bool) func(b *testing.B) {
	cfg := memsim.MustConfigFor(key)
	sys, err := memsim.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	if cores == 0 {
		cores = cfg.Cores
	}
	run := func() error {
		var err error
		if triad {
			_, err = sys.RunTriad(cores, 2048, cfg.Policy != memsim.PolicyAutoClaim)
		} else {
			_, err = sys.RunStoreStream(cores, 2048, false)
		}
		return err
	}
	if err := run(); err != nil {
		panic(err)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// cacheInsertBench is the simulator's miss path on one cache: a Lookup
// that misses, then an Insert that evicts the oldest way of a full set.
// The cache is a Zen 4 L3 slice, whose set count is not a power of two.
func cacheInsertBench() func(b *testing.B) {
	c, err := memsim.NewCache(memsim.MustConfigFor("zen4").L3)
	if err != nil {
		panic(err)
	}
	var a memsim.LineAddr
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a++
			if c.Lookup(a, true) {
				b.Fatal("streaming line hit")
			}
			c.Insert(a, true)
		}
	}
}

// serveWarmBench measures one warm end-to-end /v1/analyze round trip:
// request decode, parse cache, memo hit, response encode — the steady
// state of a server replaying a hot block. The handler is exercised
// directly (no network) so the measurement is the server's work, not
// loopback TCP.
func serveWarmBench(blk *isa.Block, arch string) func(b *testing.B) {
	api, err := serve.NewWithOptions(serve.Options{JobWorkers: -1})
	if err != nil {
		panic(err)
	}
	h := api.Handler()
	body, err := json.Marshal(map[string]string{
		"arch": arch,
		"name": blk.Name,
		"asm":  blk.Text(),
	})
	if err != nil {
		panic(err)
	}
	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(); code != http.StatusOK {
		panic(fmt.Sprintf("serve warmup: status %d", code))
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if code := do(); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	}
}

func measure() map[string]Metrics {
	out := map[string]Metrics{}
	names := make([]string, 0)
	benches := suite()
	for n := range benches {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := testing.Benchmark(benches[n])
		out[n] = Metrics{
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-26s %10d ns/op %8d B/op %6d allocs/op\n",
			n, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	return out
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	check := flag.String("check", "", "compare allocs/op against the alloc_budget in this BENCH file; non-zero exit on regression")
	update := flag.String("update", "", "rewrite the given BENCH file's current block with fresh measurements")
	flag.Parse()

	if *check != "" && *update != "" {
		fmt.Fprintln(os.Stderr, "benchjson: -check and -update are mutually exclusive")
		os.Exit(2)
	}
	// Validate the target file before spending seconds on measurement.
	var f *File
	if path := *check + *update; path != "" {
		var err error
		if f, err = readFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}

	cur := measure()

	switch {
	case *check != "":
		failed := false
		names := make([]string, 0, len(f.AllocBudget))
		for n := range f.AllocBudget {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			budget := f.AllocBudget[n]
			m, ok := cur[n]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: budgeted benchmark no longer measured\n", n)
				failed = true
				continue
			}
			if m.AllocsPerOp > budget {
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: %d allocs/op exceeds budget %d\n", n, m.AllocsPerOp, budget)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "benchjson: ok   %s: %d allocs/op within budget %d\n", n, m.AllocsPerOp, budget)
			}
		}
		if failed {
			os.Exit(1)
		}
	case *update != "":
		f.Current = cur
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*update, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	default:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}
