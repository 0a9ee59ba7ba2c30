package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

func testBlocks(t *testing.T, arch string) []Block {
	t.Helper()
	var out []Block
	for _, name := range []string{"striad", "sum"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: kernels.GCC, Opt: kernels.O3}
		b, err := kernels.Generate(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Block{Name: b.Name, B: b, ElemsPerIter: kernels.ElemsPerIter(k, cfg), Traffic: ecm.TrafficForBlock(b)})
	}
	return out
}

// freshTiers gives the test an empty memo and artifact tier and no
// store, restoring the memo tier and store on cleanup, so a sweep's
// first run is cold however often the test runs.
func freshTiers(t *testing.T) {
	t.Helper()
	oldC, oldSt := pipeline.SwapTiers(pipeline.NewCache(), nil)
	pipeline.CompiledArtifacts().Reset()
	t.Cleanup(func() { pipeline.SwapTiers(oldC, oldSt) })
}

func TestCanonicalizeOrderIndependence(t *testing.T) {
	a := []Axis{
		{Param: "tdp_watts", Values: []float64{300, 200, 300, 250}},
		{Param: "mem_bandwidth_gbs", Values: []float64{100, 50}},
	}
	b := []Axis{
		{Param: "mem_bandwidth_gbs", Values: []float64{50, 100}},
		{Param: "tdp_watts", Values: []float64{250, 300, 200}},
	}
	ca, err := Canonicalize(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonicalize(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca) != len(cb) {
		t.Fatalf("canonical lengths differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Param != cb[i].Param {
			t.Fatalf("axis %d: %s vs %s", i, ca[i].Param, cb[i].Param)
		}
		if len(ca[i].Values) != len(cb[i].Values) {
			t.Fatalf("axis %s: value counts differ", ca[i].Param)
		}
		for j := range ca[i].Values {
			if ca[i].Values[j] != cb[i].Values[j] {
				t.Fatalf("axis %s value %d: %v vs %v", ca[i].Param, j, ca[i].Values[j], cb[i].Values[j])
			}
		}
	}
	if n := Count(ca); n != 6 {
		t.Fatalf("Count = %d, want 6 (dedup dropped a duplicate)", n)
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		axes []Axis
	}{
		{"unknown param", []Axis{{Param: "magic", Values: []float64{1}}}},
		{"duplicate axis", []Axis{{Param: "rob_size", Values: []float64{64}}, {Param: "rob_size", Values: []float64{128}}}},
		{"empty values", []Axis{{Param: "rob_size", Values: nil}}},
		{"non-integer int", []Axis{{Param: "rob_size", Values: []float64{64.5}}}},
		{"non-positive", []Axis{{Param: "tdp_watts", Values: []float64{0}}}},
		{"nan", []Axis{{Param: "tdp_watts", Values: []float64{math.NaN()}}}},
		{"port overflow", []Axis{{Param: "load_ports", Values: []float64{40}}}},
	}
	for _, tc := range cases {
		if _, err := Canonicalize(tc.axes); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestVariantDeterminism pins the generation contract: identical ranges,
// regardless of axis or value ordering, produce identical variants —
// same fingerprints, same cache keys, same enumeration order.
func TestVariantDeterminism(t *testing.T) {
	base := uarch.MustGet("goldencove")
	a := []Axis{
		{Param: "mem_bandwidth_gbs", Values: []float64{120, 80}},
		{Param: "tdp_watts", Values: []float64{350, 250}},
	}
	b := []Axis{
		{Param: "tdp_watts", Values: []float64{250, 350}},
		{Param: "mem_bandwidth_gbs", Values: []float64{80, 120, 80}},
	}
	va, err := Variants(base, a)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := Variants(base, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(va) != 4 || len(vb) != 4 {
		t.Fatalf("variant counts: %d, %d, want 4", len(va), len(vb))
	}
	for i := range va {
		if va[i].Model.Fingerprint() != vb[i].Model.Fingerprint() {
			t.Fatalf("variant %d: fingerprints differ across orderings", i)
		}
		if va[i].Model.CacheKey() != vb[i].Model.CacheKey() {
			t.Fatalf("variant %d: cache keys differ across orderings", i)
		}
		if FormatParams(va[i].Params) != FormatParams(vb[i].Params) {
			t.Fatalf("variant %d: params differ: %s vs %s", i,
				FormatParams(va[i].Params), FormatParams(vb[i].Params))
		}
	}
}

// TestNodeOnlyVariantsSharePortSignature is the artifact-sharing
// foundation: variants that differ only in node/clocking parameters keep
// the base model's port signature (so the compiled tier serves them the
// same descriptor tables, schedules, and programs) while their full
// fingerprints — and therefore their result cache keys — all differ.
func TestNodeOnlyVariantsSharePortSignature(t *testing.T) {
	base := uarch.MustGet("goldencove")
	axes := []Axis{
		{Param: "mem_bandwidth_gbs", Values: []float64{60, 90, 120}},
		{Param: "tdp_watts", Values: []float64{200, 350}},
		{Param: "max_freq_ghz", Values: []float64{3.0, 3.8}},
	}
	if !NodeOnly(axes) {
		t.Fatal("axes should classify as node-only")
	}
	vs, err := Variants(base, axes)
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]bool{}
	for _, v := range vs {
		if got := v.Model.PortSignature(); got != base.PortSignature() {
			t.Fatalf("variant %d (%s): port signature %s != base %s",
				v.Index, FormatParams(v.Params), got[:12], base.PortSignature()[:12])
		}
		if v.Model.Fingerprint() == base.Fingerprint() {
			t.Fatalf("variant %d: fingerprint identical to base", v.Index)
		}
		fps[v.Model.Fingerprint()] = true
	}
	if len(fps) != len(vs) {
		t.Fatalf("%d distinct fingerprints for %d variants", len(fps), len(vs))
	}
}

func TestPortCountVariantsChangeSignature(t *testing.T) {
	base := uarch.MustGet("goldencove")
	baseFP := base.Fingerprint()
	axes := []Axis{{Param: "load_ports", Values: []float64{1, 2, 3, 4}}}
	if NodeOnly(axes) {
		t.Fatal("port axes must not classify as node-only")
	}
	vs, err := Variants(base, axes)
	if err != nil {
		t.Fatal(err)
	}
	sigs := map[string]bool{}
	for _, v := range vs {
		sigs[v.Model.PortSignature()] = true
		if got := v.Model.LoadPorts.Count(); got != int(v.Params[0].Value) {
			t.Fatalf("variant %d: load port count %d, want %v", v.Index, got, v.Params[0].Value)
		}
	}
	if len(sigs) != len(vs) {
		t.Fatalf("%d distinct signatures for %d port-count variants", len(sigs), len(vs))
	}
	// The base model must be untouched by variant generation.
	if base.Fingerprint() != baseFP {
		t.Fatal("variant generation mutated the base model")
	}
	if base.Ports[len(base.Ports)-1] == "ld#12" {
		t.Fatal("variant generation grew the base model's port list")
	}
}

// TestRunDeterministicAcrossWorkers pins the sweep-level contract: the
// rendered report is byte-identical at any worker count, and re-running
// in-process is all-warm.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := uarch.MustGet("goldencove")
	blocks := testBlocks(t, "goldencove")
	axes := []Axis{
		{Param: "mem_bandwidth_gbs", Values: []float64{60, 120}},
		{Param: "tdp_watts", Values: []float64{200, 350}},
	}
	freshTiers(t)
	prev := pipeline.SetDefaultWorkers(1)
	defer pipeline.SetDefaultWorkers(prev)

	r1, err := Run(base, axes, blocks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipeline.SetDefaultWorkers(8)
	r8, err := Run(base, axes, blocks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r8.Render() {
		t.Fatal("render differs between -j1 and -j8")
	}
	if r1.Cold == 0 {
		t.Fatal("first run computed nothing")
	}
	if r8.Cold != 0 || r8.Warm != r1.Warm+r1.Cold {
		t.Fatalf("second run: %d warm / %d cold, want %d warm / 0 cold",
			r8.Warm, r8.Cold, r1.Warm+r1.Cold)
	}
	if r1.DistinctSignatures != 1 {
		t.Fatalf("node-only sweep: %d distinct signatures, want 1", r1.DistinctSignatures)
	}
	if len(r1.Fronts) == 0 {
		t.Fatal("no Pareto fronts")
	}
	for _, f := range r1.Fronts {
		if f.Name == "sustained_gflops_vs_tdp_watts" {
			if len(f.Points) == 0 {
				t.Fatal("empty GF/s-vs-TDP front")
			}
			// Higher TDP must never appear with lower-or-equal GF/s.
			for i := 1; i < len(f.Points); i++ {
				if f.Points[i].Perf <= f.Points[i-1].Perf {
					t.Fatalf("front %s not strictly improving: %+v", f.Name, f.Points)
				}
			}
		}
	}
}

func TestRunRejectsTooLarge(t *testing.T) {
	base := uarch.MustGet("goldencove")
	blocks := testBlocks(t, "goldencove")
	axes := []Axis{{Param: "tdp_watts", Values: []float64{1, 2, 3, 4, 5}}}
	_, err := Run(base, axes, blocks, Options{MaxVariants: 4})
	var tooLarge *ErrTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if tooLarge.Variants != 5 || tooLarge.Max != 4 {
		t.Fatalf("ErrTooLarge = %+v", tooLarge)
	}
}

func TestCountSaturates(t *testing.T) {
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	axes := []Axis{
		{Param: "rob_size", Values: vals},
		{Param: "scheduler_size", Values: vals},
		{Param: "tdp_watts", Values: vals},
		{Param: "mem_bandwidth_gbs", Values: vals},
	}
	if n := Count(axes); n != math.MaxInt {
		t.Fatalf("Count = %d, want saturation at MaxInt", n)
	}
}

func TestRenderStable(t *testing.T) {
	base := uarch.MustGet("zen4")
	blocks := testBlocks(t, "zen4")
	axes := []Axis{{Param: "rob_size", Values: []float64{64, 320}}}
	r, err := Run(base, axes, blocks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if !strings.Contains(out, "axis rob_size: 64 320") {
		t.Fatalf("render missing axis line:\n%s", out)
	}
	if !strings.Contains(out, "pareto total_cycles_vs_rob_size") {
		t.Fatalf("render missing front:\n%s", out)
	}
	if r.DistinctSignatures != 2 {
		t.Fatalf("rob_size sweep: %d distinct signatures, want 2", r.DistinctSignatures)
	}
}

// mixedAxes cross a node axis with a port axis: two port signatures,
// each shared by two variants.
var mixedAxes = []Axis{
	{Param: "mem_bandwidth_gbs", Values: []float64{100, 200}},
	{Param: "issue_width", Values: []float64{4, 6}},
}

// TestRunSharesCellsPerSignature pins signature-shared cells: over a
// mixed grid from empty tiers, every variant's cells equal an independent
// analysis of that variant, per-variant provenance is what it would be
// without sharing, and the analyses that ran number distinct signatures
// times distinct block contents: a duplicate block body (same content,
// another name) is a memo hit and analyzes nothing.
func TestRunSharesCellsPerSignature(t *testing.T) {
	freshTiers(t)
	prev := pipeline.SetDefaultWorkers(8)
	defer pipeline.SetDefaultWorkers(prev)
	base := uarch.MustGet("goldencove")
	blocks := testBlocks(t, "goldencove")
	dup := blocks[0]
	dup.Name += "-again"
	blocks = append(blocks, dup)
	keys := map[string]bool{}
	for _, b := range blocks {
		keys[pipeline.BlockKey(b.B)] = true
	}

	r, err := Run(base, mixedAxes, blocks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.DistinctSignatures != 2 {
		t.Fatalf("%d distinct signatures, want 2", r.DistinctSignatures)
	}
	if got, want := r.Analyzed, 2*len(keys); got != want {
		t.Fatalf("cold run analyzed %d cells, want %d (signatures x block contents)", got, want)
	}
	// Without sharing, a variant's first cell per block content is cold
	// and a repeated content is a memo hit.
	for _, row := range r.Variants {
		if row.Cold != len(keys) || row.Warm != len(blocks)-len(keys) {
			t.Fatalf("variant %d: %d warm / %d cold, want %d / %d",
				row.Index, row.Warm, row.Cold, len(blocks)-len(keys), len(keys))
		}
	}

	vs, err := Variants(base, mixedAxes)
	if err != nil {
		t.Fatal(err)
	}
	an := core.New()
	for i, v := range vs {
		for j, b := range blocks {
			ref, err := core.New().Analyze(b.B, v.Model)
			if err != nil {
				t.Fatal(err)
			}
			want := pipeline.CellOf(ref)
			got, warm, err := pipeline.AnalyzeCellWarm(an, b.B, v.Model, &pipeline.InternalArena{},
				&pipeline.CellSlot{Key: pipeline.BlockKey(b.B)})
			if err != nil || !warm {
				t.Fatalf("variant %d block %s: memoized cell missing (warm %t, err %v)", i, b.Name, warm, err)
			}
			if got != want {
				t.Fatalf("variant %d (%s) block %s: cell %+v, want %+v",
					i, FormatParams(v.Params), b.Name, got, want)
			}
			if r.Variants[i].Predictions[j] != want.Prediction {
				t.Fatalf("variant %d block %s: prediction %v, want %v",
					i, b.Name, r.Variants[i].Predictions[j], want.Prediction)
			}
		}
	}

	r2, err := Run(base, mixedAxes, blocks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Render() != r.Render() {
		t.Fatal("rerun renders differently")
	}
	for _, row := range r2.Variants {
		if row.Cold != 0 || row.Warm != len(blocks) {
			t.Fatalf("rerun variant %d: %d warm / %d cold, want all warm", row.Index, row.Warm, row.Cold)
		}
	}
	if got := r2.Analyzed; got != 0 {
		t.Fatalf("warm rerun analyzed %d cells, want 0", got)
	}
}

// TestRunSharedCellError: a block that fails to analyze fails every
// variant sharing its slot, with the analysis run once per signature.
func TestRunSharedCellError(t *testing.T) {
	freshTiers(t)
	prev := pipeline.SetDefaultWorkers(8)
	defer pipeline.SetDefaultWorkers(prev)
	base := uarch.MustGet("goldencove")
	bogus, err := isa.ParseMarkedBlock("bogus", base.Key, base.Dialect, ".L0:\n\tfrobnicateq %rax, %rbx\n\tjb .L0\n")
	if err != nil {
		t.Fatal(err)
	}
	blocks := append([]Block{{Name: "bogus", B: bogus}}, testBlocks(t, "goldencove")...)
	an := core.New()
	an.Opt.DegradeUnknown = false

	vs, err := Variants(base, mixedAxes)
	if err != nil {
		t.Fatal(err)
	}
	plan := newCellPlan(vs, blocks)
	for i := range vs {
		_, err := runVariant(an, &vs[i], blocks, plan[vs[i].Model.PortSignature()])
		if err == nil || !strings.Contains(err.Error(), "frobnicateq") {
			t.Fatalf("variant %d: error %v, want the shared unknown-mnemonic error", i, err)
		}
	}
	if got := plan.analyzed(); got != 2 {
		t.Fatalf("%d analyses ran, want 2 (one per signature)", got)
	}

	_, err = Run(base, mixedAxes, blocks, Options{Analyzer: an})
	if err == nil || !strings.Contains(err.Error(), "variant 0 ") {
		t.Fatalf("Run: error %v, want variant 0's", err)
	}
}

func TestVariantsRejectSaturatedCount(t *testing.T) {
	vals := make([]float64, 192)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	var axes []Axis
	for _, p := range []string{"issue_width", "decode_width", "retire_width", "rob_size",
		"scheduler_size", "phys_vec_regs", "phys_gp_regs", "load_latency", "cores_per_chip"} {
		axes = append(axes, Axis{Param: p, Values: vals})
	}
	if n := Count(axes); n != math.MaxInt {
		t.Fatalf("Count = %d, want saturation at MaxInt", n)
	}
	base := uarch.MustGet("goldencove")
	if _, err := Variants(base, axes); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("Variants: want an overflow error, got %v", err)
	}
	// With no cap the same grid reaches Variants through Run.
	if _, err := Run(base, axes, testBlocks(t, "goldencove"), Options{}); err == nil {
		t.Fatal("Run: want an error for a saturated grid")
	}
}

// portFileOracle mirrors the port-signature wire subset field for field,
// so the test can rebuild the signature's bytes from a machine file
// without going through the encoder under test.
type portFileOracle struct {
	Dialect        string          `json:"dialect"`
	Ports          []string        `json:"ports"`
	IssueWidth     int             `json:"issue_width"`
	DecodeWidth    int             `json:"decode_width"`
	RetireWidth    int             `json:"retire_width"`
	ROBSize        int             `json:"rob_size"`
	SchedSize      int             `json:"scheduler_size"`
	PhysVecRegs    int             `json:"phys_vec_regs,omitempty"`
	PhysGPRegs     int             `json:"phys_gp_regs,omitempty"`
	LoadPorts      []string        `json:"load_ports"`
	StoreAGUPorts  []string        `json:"store_agu_ports"`
	StoreDataPorts []string        `json:"store_data_ports"`
	LoadLat        int             `json:"load_latency"`
	LoadWidthBits  int             `json:"load_width_bits"`
	StoreWidthBits int             `json:"store_width_bits"`
	WideLoadPorts  []string        `json:"wide_load_ports,omitempty"`
	WideLoadBits   int             `json:"wide_load_bits,omitempty"`
	Unknown        json.RawMessage `json:"unknown,omitempty"`
	Entries        []struct {
		Mnemonic string `json:"mnemonic"`
		Sig      string `json:"sig,omitempty"`
		Width    int    `json:"width,omitempty"`
		Lat      int    `json:"latency"`
		Uops     []struct {
			Ports  []string `json:"ports"`
			Cycles float64  `json:"cycles"`
			Kind   string   `json:"kind,omitempty"`
		} `json:"uops"`
	} `json:"instructions"`
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestVariantIdentitiesMatchWriteJSON pins the derived identities to the
// whole-model encodings they stand for: a variant's fingerprint is sha256
// of its WriteJSON bytes, its port signature sha256 of the compact
// port-subset JSON, and its cache key what a clone reindexed from scratch
// gets — on node-only grids, where every variant shares the base's table
// encoding, and on port grids that grow and shrink the port list.
func TestVariantIdentitiesMatchWriteJSON(t *testing.T) {
	steps := func(lo, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + step*float64(i)
		}
		return out
	}
	v2 := uarch.MustGet("neoversev2")
	grids := []struct {
		name string
		base *uarch.Model
		axes []Axis
	}{
		{"ci sweep gate", uarch.MustGet("goldencove"), []Axis{
			{Param: "mem_bandwidth_gbs", Values: steps(50, 25, 8)},
			{Param: "tdp_watts", Values: steps(150, 25, 8)},
		}},
		{"goldencove node", uarch.MustGet("goldencove"), []Axis{
			{Param: "mem_bandwidth_gbs", Values: steps(150, 50, 8)},
			{Param: "tdp_watts", Values: steps(200, 25, 8)},
		}},
		{"zen4 ports", uarch.MustGet("zen4"), []Axis{
			{Param: "issue_width", Values: []float64{4, 6, 8}},
			{Param: "load_ports", Values: []float64{1, 2, 3}},
		}},
		{"neoversev2 store data", v2, []Axis{
			{Param: "store_data_ports", Values: []float64{1, float64(v2.StoreDataPorts.Count()), 4, 6}},
			{Param: "rob_size", Values: []float64{256, 320}},
			{Param: "max_freq_ghz", Values: []float64{3.1, 3.4}},
		}},
	}
	for _, g := range grids {
		vs, err := Variants(g.base, g.axes)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if len(vs) != Count(g.axes) {
			t.Fatalf("%s: %d variants, want %d", g.name, len(vs), Count(g.axes))
		}
		for _, v := range vs {
			m := v.Model
			where := g.name + " " + FormatParams(v.Params)
			var mf bytes.Buffer
			if err := m.WriteJSON(&mf); err != nil {
				t.Fatal(err)
			}
			if got, want := m.Fingerprint(), sha256Hex(mf.Bytes()); got != want {
				t.Fatalf("%s: fingerprint %s, sha256(WriteJSON) %s", where, got[:12], want[:12])
			}
			var pf portFileOracle
			if err := json.Unmarshal(mf.Bytes(), &pf); err != nil {
				t.Fatal(err)
			}
			pfBytes, err := json.Marshal(pf)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.PortSignature(), sha256Hex(pfBytes); got != want {
				t.Fatalf("%s: port signature %s, sha256(port subset) %s", where, got[:12], want[:12])
			}
			c := *m
			if err := c.Reindex(); err != nil {
				t.Fatal(err)
			}
			if m.CacheKey() != c.CacheKey() || m.PortSignature() != c.PortSignature() {
				t.Fatalf("%s: identities differ from a reindexed clone", where)
			}
			for _, mask := range []uarch.PortMask{m.LoadPorts, m.StoreAGUPorts, m.StoreDataPorts} {
				if got, want := m.PortIndices(mask), mask.Indices(); !slices.Equal(got, want) {
					t.Fatalf("%s: PortIndices(%b) = %v, want %v", where, mask, got, want)
				}
			}
		}
	}
}
