package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"incore/internal/core"
	"incore/internal/experiments"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/serve"
	"incore/internal/sim"
	"incore/internal/sweep"
	"incore/internal/uarch"
)

// env is what one set-up works from.
type env struct {
	seed    int64
	seconds float64
	workers int
	dir     string // a directory this set-up owns
	shared  string // the directory the workload's prepare step filled
}

// size is the fixed number of operations of a run: e.seconds times the
// workload's operations per second (README.md). Both sides of a
// comparison therefore do identical work.
func (e *env) size(perSecond float64) int {
	return max(1, int(math.Ceil(perSecond*e.seconds)))
}

// instance is a set-up workload, ready to measure.
type instance struct {
	ops         int // operations in the measured phase
	itemsPerOp  int // items_per_s counts items
	sampleEvery int // the traced pass samples every n-th operation
	par         int // workers one operation runs on
	rows        []row
	// measure runs operations [0, ops) through m; it may be called again
	// and then repeats the same work.
	measure func(m *meter) error
	// inputs are the (block, model) inputs of operation i the kit probes.
	inputs func(i int) []probeInput
	// verify checks outputs the operations set aside, after the phase.
	verify   func() []error
	teardown func()
}

func (in *instance) close() {
	if in.teardown != nil {
		in.teardown()
	}
}

type workload struct {
	item string // what items_per_s counts
	// prepare, if set, runs once per run, before the set-ups, and leaves
	// in its directory what every set-up shares.
	prepare func(dir string) error
	setup   func(e *env) (*instance, error)
}

var workloads = map[string]workload{
	"repro-cold": {item: "runs", setup: setupReproCold},
	"repro-warm": {item: "runs", prepare: fillStore, setup: setupReproWarm},
	"serve-hot":  {item: "requests", setup: setupServeHot},
	"serve-cold": {item: "requests", setup: setupServeCold},
	"sweep-grid": {item: "cells", setup: setupSweepGrid},
	"validate":   {item: "blocks", setup: setupValidate},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func resetTiers() {
	pipeline.Shared().Reset()
	pipeline.CompiledArtifacts().Reset()
}

// suiteInputs returns the 416-block suite as kit inputs, shuffled by seed.
func suiteInputs(seed int64) ([]probeInput, error) {
	suite, err := kernels.FullSuite()
	if err != nil {
		return nil, err
	}
	out := make([]probeInput, len(suite))
	for i, tb := range suite {
		if out[i], err = newInput(tb.Block.Name, uarch.MustGet(tb.Config.Arch), tb.Block.Text()); err != nil {
			return nil, err
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// window returns n consecutive inputs starting at the i-th window, wrapping.
func window(ins []probeInput, i, n int) []probeInput {
	out := make([]probeInput, n)
	for j := range out {
		out[j] = ins[(i*n+j)%len(ins)]
	}
	return out
}

// --- repro ---------------------------------------------------------------

// reproSHA256 is the sha256 of `repro -exp all` standard output.
const reproSHA256 = "5601117509a789d4dffcb1acff0908bedda22a6826ce2f7c3032260c0f86de4e"

// experimentOrder, runExperiment and the framing reproAll hashes are a copy
// of cmd/repro's runner table, its order and its text rendering, which
// cmd/repro keeps unexported in package main. The sha256 gate pins this
// copy: a change to cmd/repro's output that leaves the copy alone still
// passes here, so change both together.
var experimentOrder = []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "ecm", "nodeperf"}

type renderer interface{ Render() string }

func render[T renderer](r T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

func runExperiment(name string) (string, error) {
	switch name {
	case "table1":
		return render(experiments.RunTable1())
	case "table2":
		return render(experiments.RunTable2())
	case "table3":
		return render(experiments.RunTable3())
	case "fig2":
		return render(experiments.RunFig2())
	case "fig3":
		return render(experiments.RunFig3())
	case "fig4":
		return render(experiments.RunFig4())
	case "ecm":
		return render(experiments.RunECM())
	case "nodeperf":
		return render(experiments.RunNodePerf())
	}
	return "", fmt.Errorf("unknown experiment %q", name)
}

// reproAll renders what `repro -exp all` prints, running the experiments
// as one job graph on the default pool, each inside a span.
func reproAll(s scope) error {
	g := pipeline.NewGraph(pipeline.Default())
	for _, name := range experimentOrder {
		name := name
		if err := g.Add(name, func() (any, error) {
			return timed(s, "experiments."+name, func() (string, error) { return runExperiment(name) })
		}); err != nil {
			return err
		}
	}
	runErr := g.Run()
	h := sha256.New()
	for _, name := range experimentOrder {
		v, err := g.Result(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out, ok := v.(string)
		if !ok {
			return runErr
		}
		fmt.Fprintf(h, "================ %s ================\n%s\n", name, out)
	}
	if runErr != nil {
		return runErr
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != reproSHA256 {
		return fmt.Errorf("repro output sha256 %s, want %s", sum, reproSHA256)
	}
	return nil
}

func experimentRows() []row {
	rows := make([]row, len(experimentOrder))
	for i, name := range experimentOrder {
		rows[i] = row{"experiments." + name, 1}
	}
	return rows
}

// setupReproCold: every run starts from empty memo and artifact tiers with
// no store attached, so memsim and bw (fig4, table1) do almost all the work.
// Set-up runs the six other experiments once (about 0.2 s), so that the
// first measured run finds the process warm, as the later ones do.
func setupReproCold(e *env) (*instance, error) {
	ins, err := suiteInputs(e.seed)
	if err != nil {
		return nil, err
	}
	pipeline.SwapTiers(pipeline.Shared(), nil)
	resetTiers()
	for _, name := range experimentOrder {
		if name == "table1" || name == "fig4" {
			continue
		}
		if _, err := runExperiment(name); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
	}
	inst := &instance{
		ops: e.size(0.3), itemsPerOp: 1, sampleEvery: 1, par: e.workers,
		rows:   experimentRows(),
		inputs: func(i int) []probeInput { return window(ins, i, 16) },
	}
	inst.measure = func(m *meter) error {
		m.run(0, inst.ops, 1, func(i int, s scope) error {
			resetTiers()
			return reproAll(s)
		})
		return nil
	}
	return inst, nil
}

// fillStore writes what one cold `repro -exp all` run computes into a
// store in dir. repro-warm fills it once per run, before its set-ups: a
// fill in each of the three set-ups would triple the benchmark's longest
// step, about 4-10 s on two CPUs.
func fillStore(dir string) error {
	if _, err := pipeline.AttachStore(dir); err != nil {
		return err
	}
	resetTiers()
	if err := reproAll(scope{}); err != nil {
		return fmt.Errorf("filling the store: %w", err)
	}
	return nil
}

// setupReproWarm: every run opens the store fillStore filled afresh, over
// empty tiers, so store reads and result decoding do the work and no
// memsim runs at all. Set-up does one such run, checked like the measured
// ones.
func setupReproWarm(e *env) (*instance, error) {
	ins, err := suiteInputs(e.seed)
	if err != nil {
		return nil, err
	}
	warmRun := func(i int, s scope) error {
		if err := s.time("store.open", func() error {
			_, err := pipeline.AttachStore(e.shared)
			return err
		}); err != nil {
			return err
		}
		resetTiers()
		if err := reproAll(s); err != nil {
			return err
		}
		if st := pipeline.PersistentStore().Stats(); st.Warm() != 756 || st.Misses != 0 {
			return fmt.Errorf("run %d: store %d warm / %d cold, want 756 warm / 0 cold", i, st.Warm(), st.Misses)
		}
		return nil
	}
	if err := warmRun(-1, scope{}); err != nil {
		return nil, fmt.Errorf("warm-up %w", err)
	}
	inst := &instance{
		ops: e.size(10), itemsPerOp: 1, sampleEvery: 5, par: e.workers,
		rows:     append([]row{{"store.open", 1}}, experimentRows()...),
		inputs:   func(i int) []probeInput { return window(ins, i, 4) },
		teardown: func() { pipeline.SwapTiers(pipeline.Shared(), nil) },
	}
	inst.measure = func(m *meter) error {
		m.run(0, inst.ops, 1, warmRun)
		return nil
	}
	return inst, nil
}

// --- serve ---------------------------------------------------------------

// loopback is a serve instance behind a loopback listener, with a
// keep-alive client.
type loopback struct {
	api     *serve.Server
	handler http.Handler
	srv     *http.Server
	url     string
	client  *http.Client
	done    chan struct{}
}

func startServer(clients int) (*loopback, error) {
	api, err := serve.NewWithOptions(serve.Options{JobWorkers: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		return nil, err
	}
	l := &loopback{
		api:     api,
		handler: api.Handler(),
		url:     "http://" + ln.Addr().String() + "/v1/analyze",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	l.srv = &http.Server{Handler: l.handler}
	go func() {
		defer close(l.done)
		// Serve returns http.ErrServerClosed once close runs; any other
		// failure shows up as failed requests.
		_ = l.srv.Serve(ln)
	}()
	return l, nil
}

// post sends one analyze request and reads the whole response into buf.
func (l *loopback) post(body []byte, rid string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, l.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (l *loopback) close() {
	l.srv.Close()
	<-l.done
	l.client.CloseIdleConnections()
	l.api.Close()
}

// checkEvery is how often a serve response is checked against a direct
// core.Analyze of the same block.
const checkEvery = 64

// requester sends operation i's request and keeps every checkEvery-th
// response for verify.
type requester struct {
	srv  *loopback
	ins  []probeInput
	pick func(i int) int // operation -> input index
	bufs sync.Pool
	kept [][]byte // response of operation k*checkEvery
}

func newRequester(srv *loopback, ins []probeInput, ops int, pick func(int) int) *requester {
	r := &requester{srv: srv, ins: ins, pick: pick, kept: make([][]byte, (ops+checkEvery-1)/checkEvery)}
	r.bufs.New = func() any { return new(bytes.Buffer) }
	return r
}

func (r *requester) op(i int, s scope) error {
	buf := r.bufs.Get().(*bytes.Buffer)
	defer r.bufs.Put(buf)
	in := r.ins[r.pick(i)]
	code, err := r.srv.post(in.body, "b"+strconv.Itoa(i), buf)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("request %d (%s): status %d: %s", i, in.name, code, buf.String())
	}
	if i%checkEvery == 0 {
		r.kept[i/checkEvery] = append([]byte(nil), buf.Bytes()...)
	}
	return nil
}

// verify compares the kept responses' report and prediction with a direct
// core.Analyze of the same block, then drops them.
func (r *requester) verify() []error {
	var errs []error
	an := core.New()
	want := map[int]*core.Result{}
	for k, body := range r.kept {
		if body == nil {
			continue
		}
		r.kept[k] = nil
		idx := r.pick(k * checkEvery)
		in := r.ins[idx]
		var got serve.AnalyzeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			errs = append(errs, fmt.Errorf("response for %s: %w", in.name, err))
			continue
		}
		ref, ok := want[idx]
		if !ok {
			b, err := isa.ParseMarkedBlock(in.name, in.model.Key, in.model.Dialect, in.text)
			if err == nil {
				ref, err = an.Analyze(b, in.model)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("reference analysis of %s: %w", in.name, err))
				continue
			}
			want[idx] = ref
		}
		if got.Prediction != ref.Prediction || got.Report != ref.Report() {
			errs = append(errs, fmt.Errorf("response for %s differs from core.Analyze (prediction %v, want %v)",
				in.name, got.Prediction, ref.Prediction))
		}
	}
	return errs
}

// setupServeHot warms every suite block on its arch; every request is then
// a memo hit, so HTTP, JSON and Report() do the work. The seed draws the
// request sequence; the warm set is the whole suite, so that every seed
// serves the same population of blocks.
func setupServeHot(e *env) (*instance, error) {
	ins, err := suiteInputs(e.seed)
	if err != nil {
		return nil, err
	}
	ops := e.size(5000)
	rng := rand.New(rand.NewSource(e.seed))
	seq := make([]uint16, ops)
	for i := range seq {
		seq[i] = uint16(rng.Intn(len(ins)))
	}
	srv, err := startServer(e.workers)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, in := range ins {
		code, err := srv.post(in.body, "warm", &buf)
		if err == nil {
			err = statusErr(code)
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("warming %s: %w", in.name, err)
		}
	}
	req := newRequester(srv, ins, ops, func(i int) int { return int(seq[i]) })
	inst := &instance{
		ops: ops, itemsPerOp: 1, sampleEvery: 256, par: 1,
		rows: []row{{"serve.decode", 1}, {"pipeline.parse", 1},
			{"pipeline.analyze", 1}, {"core.report", 1}, {"serve.encode", 1}},
		inputs:   func(i int) []probeInput { return []probeInput{ins[seq[i]]} },
		verify:   req.verify,
		teardown: srv.close,
	}
	inst.measure = func(m *meter) error {
		m.run(0, ops, e.workers, req.op)
		return nil
	}
	return inst, nil
}

// serveColdRound bounds how many distinct requests the tiers take before
// the workload resets them; the live heap at the end of a round is what
// that many distinct requests retain.
const serveColdRound = 2000

// setupServeCold sends blocks no earlier request has sent, across all
// three archs, with a store attached: parse, skeleton, descriptor
// resolution, analysis and store writes do the work.
func setupServeCold(e *env) (*instance, error) {
	suite, err := kernels.FullSuite()
	if err != nil {
		return nil, err
	}
	ops := e.size(800)
	blocks, err := newGenerator(e.seed, suite).take(ops)
	if err != nil {
		return nil, err
	}
	ins := make([]probeInput, ops)
	for i, b := range blocks {
		if ins[i], err = newInput(b.Name, b.Model, b.Text); err != nil {
			return nil, err
		}
	}
	srv, err := startServer(e.workers)
	if err != nil {
		return nil, err
	}
	req := newRequester(srv, ins, ops, func(i int) int { return i })
	inst := &instance{
		ops: ops, itemsPerOp: 1, sampleEvery: 64, par: 1,
		rows: []row{{"serve.decode", 1}, {"isa.parse", 1}, {"depgraph.skeleton", 1},
			{"uarch.resolve", 1}, {"core.analyze", 1}, {"core.encode", 1}, {"store.put", 1},
			{"core.report", 1}, {"serve.encode", 1}},
		inputs: func(i int) []probeInput { return ins[i : i+1] },
		verify: req.verify,
		teardown: func() {
			srv.close()
			pipeline.SwapTiers(pipeline.Shared(), nil)
		},
	}
	rounds := (ops + serveColdRound - 1) / serveColdRound
	inst.measure = func(m *meter) error {
		for r := 0; r < rounds; r++ {
			if st := pipeline.PersistentStore(); st != nil {
				os.RemoveAll(st.Dir())
			}
			resetTiers()
			dir, err := os.MkdirTemp(e.dir, "store-")
			if err != nil {
				return err
			}
			if _, err := pipeline.AttachStore(dir); err != nil {
				return err
			}
			m.run(r*ops/rounds, (r+1)*ops/rounds, e.workers, req.op)
		}
		return nil
	}
	return inst, nil
}

// --- sweep ---------------------------------------------------------------

var (
	// nodeAxes vary node-level parameters only: all 64 variants share the
	// base model's port signature and therefore every compiled artifact.
	nodeAxes = []sweep.Axis{
		{Param: "mem_bandwidth_gbs", Values: []float64{150, 200, 250, 300, 350, 400, 450, 500}},
		{Param: "tdp_watts", Values: []float64{200, 225, 250, 275, 300, 325, 350, 375}},
	}
	// portAxes change the port signature of every variant: 9 signatures,
	// no artifact sharing between them.
	portAxes = []sweep.Axis{
		{Param: "issue_width", Values: []float64{4, 6, 8}},
		{Param: "load_ports", Values: []float64{1, 2, 3}},
	}
)

// grid is one sweep of a round, with the sha256 of its result's JSON.
type grid struct {
	name   string
	base   *uarch.Model
	axes   []sweep.Axis
	blocks []sweep.Block
	want   string
}

const (
	sweepNodeSHA256 = "42ea49b6ef3e76ef2b1a4e8fdb272bf3094d8a49fc019b9be2471cdf650f9408"
	sweepPortSHA256 = "216150f74667b60018f37f8494097933f3662792a2c59ccb3e049b5d65c00f1e"
)

// setupSweepGrid runs a goldencove node-only grid, where artifacts are
// shared, and a zen4 port grid, where they are not, from empty tiers.
func setupSweepGrid(e *env) (*instance, error) {
	gc, err := sweep.SuiteBlocks("goldencove")
	if err != nil {
		return nil, err
	}
	zen, err := sweep.SuiteBlocks("zen4")
	if err != nil {
		return nil, err
	}
	grids := []grid{
		{"sweep.goldencove_node", uarch.MustGet("goldencove"), nodeAxes, gc, sweepNodeSHA256},
		{"sweep.zen4_ports", uarch.MustGet("zen4"), portAxes, zen, sweepPortSHA256},
	}
	var ins []probeInput
	cells := 0
	var variants, skeletons, descs float64
	for _, g := range grids {
		n := sweep.Count(g.axes)
		variants += float64(n)
		cells += n * len(g.blocks)
		keys := map[string]bool{}
		for _, b := range g.blocks {
			keys[pipeline.BlockKey(b.B)] = true
			in, err := newInput(b.Name, g.base, b.B.Text())
			if err != nil {
				return nil, err
			}
			ins = append(ins, in)
		}
		sigs := 1.0
		if !sweep.NodeOnly(g.axes) {
			sigs = float64(n)
		}
		skeletons += float64(len(keys))
		descs += float64(len(keys)) * sigs
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	round := func(i int, s scope) error {
		resetTiers()
		for _, g := range grids {
			res, err := timed(s, g.name, func() (*sweep.Result, error) {
				return sweep.Run(g.base, g.axes, g.blocks, sweep.Options{})
			})
			if err != nil {
				return err
			}
			data, err := json.Marshal(res)
			if err != nil {
				return err
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != g.want {
				return fmt.Errorf("round %d: %s result sha256 %s, want %s", i, g.name, got, g.want)
			}
		}
		return nil
	}
	// Set-up runs one round, checked like the measured ones, so that the
	// first measured round finds the process warm, as the later ones do.
	if err := round(-1, scope{}); err != nil {
		return nil, fmt.Errorf("warm-up %w", err)
	}
	inst := &instance{
		ops: e.size(2), itemsPerOp: cells, sampleEvery: 1, par: e.workers,
		rows: []row{{"sweep.variants", variants}, {"depgraph.skeleton", skeletons},
			{"uarch.resolve", descs}, {"pipeline.cell", float64(cells)}},
		inputs: func(i int) []probeInput { return window(ins, i, 4) },
	}
	inst.measure = func(m *meter) error {
		m.run(0, inst.ops, 1, round)
		return nil
	}
	return inst, nil
}

// --- validate ------------------------------------------------------------

// quirkFree disables the simulator's hardware-beats-model mechanisms, so
// that the analytical prediction must be a lower bound of the simulation.
func quirkFree(m *uarch.Model) sim.Config {
	cfg := sim.DefaultConfig(m)
	cfg.FMAAccForwardLat = 0
	cfg.CrossOpForwardSave = 0
	cfg.DivEarlyExitFactor = 1
	return cfg
}

// setupValidate checks the lower-bound claim on fresh blocks: analysis,
// quirk-free simulation and the MCA-style baseline per block, so sim and
// mca do most of the work. One operation is a batch of one mutated copy of
// every suite body, so that every batch holds the same mix of kernels.
// Set-up checks the suite's own blocks the same way, once.
func setupValidate(e *env) (*instance, error) {
	suite, err := kernels.FullSuite()
	if err != nil {
		return nil, err
	}
	an := core.New()
	layers := []string{"depgraph.skeleton", "uarch.resolve", "core.analyze", "sim.compile", "sim.run", "mca.compile", "mca.predict"}
	rows := make([]row, len(layers))
	for i, l := range layers {
		rows[i] = row{l, float64(len(suite))}
	}
	inst := &instance{
		ops: e.size(4.8), itemsPerOp: len(suite), sampleEvery: 1, par: e.workers, rows: rows,
	}
	// The first batch is the suite itself, which set-up checks. Each
	// measured batch is generated just before it runs, outside the timed
	// operation, so that only one batch of blocks is alive at a time.
	batch := make([]genBlock, len(suite))
	for i, tb := range suite {
		batch[i] = genBlock{Name: tb.Block.Name, Model: uarch.MustGet(tb.Config.Arch), Text: tb.Block.Text(), Block: tb.Block}
	}
	inst.inputs = func(int) []probeInput {
		out := make([]probeInput, 2)
		for j := range out {
			out[j], _ = newInput(batch[j].Name, batch[j].Model, batch[j].Text)
		}
		return out
	}
	validateOp := func(i int, s scope) error {
		resetTiers()
		_, err := pipeline.Map(pipeline.Default(), batch, func(b genBlock) (struct{}, error) {
			res, err := pipeline.Analyze(an, b.Block, b.Model)
			if err != nil {
				return struct{}{}, err
			}
			meas, err := pipeline.Simulate(b.Block, b.Model, quirkFree(b.Model))
			if err != nil {
				return struct{}{}, err
			}
			if _, err := pipeline.MCAPredict(b.Block, b.Model); err != nil {
				return struct{}{}, err
			}
			if res.Prediction > meas.CyclesPerIter*1.02+0.05 {
				return struct{}{}, fmt.Errorf("%s: prediction %.3f exceeds the quirk-free simulation %.3f\n%s",
					b.Name, res.Prediction, meas.CyclesPerIter, strings.TrimSpace(b.Text))
			}
			return struct{}{}, nil
		})
		return err
	}
	if err := validateOp(-1, scope{}); err != nil {
		return nil, fmt.Errorf("validating the suite: %w", err)
	}
	inst.measure = func(m *meter) error {
		g := newGenerator(e.seed, suite)
		for i := 0; i < inst.ops; i++ {
			var err error
			if batch, err = g.take(len(suite)); err != nil {
				return err
			}
			m.run(i, i+1, 1, validateOp)
		}
		return nil
	}
	return inst, nil
}
