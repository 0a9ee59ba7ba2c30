package ecm

import (
	"math"
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

func mustFor(t *testing.T, key string) *Model {
	t.Helper()
	m, err := ForModel(uarch.MustGet(key))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForAllArchs(t *testing.T) {
	for _, key := range []string{"goldencove", "zen4", "neoversev2"} {
		m, err := ForModel(uarch.MustGet(key))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if m.BW.L1L2 <= 0 || m.BW.L2L3 <= 0 || m.BW.L3Mem <= 0 {
			t.Errorf("%s: incomplete bandwidths: %+v", key, m.BW)
		}
	}
}

func TestMemLevelString(t *testing.T) {
	for l, want := range map[MemLevel]string{L1: "L1", L2: "L2", L3: "L3", MEM: "MEM"} {
		if l.String() != want {
			t.Errorf("%d.String() = %q", l, l.String())
		}
	}
}

func TestL1ResidentIsCoreBound(t *testing.T) {
	m := mustFor(t, "goldencove")
	tr := Traffic{LoadBytes: 128, StoreBytes: 64}
	r := m.Predict(2, 3, tr, L1)
	if r.TL1L2 != 0 || r.TL2L3 != 0 || r.TL3Mem != 0 {
		t.Error("L1-resident data must incur no transfers")
	}
	if r.TECM != 3 {
		t.Errorf("TECM = %f, want max(TOL, TnOL) = 3", r.TECM)
	}
}

func TestLevelsAddMonotonically(t *testing.T) {
	m := mustFor(t, "goldencove")
	tr := Traffic{LoadBytes: 128, StoreBytes: 64}
	prev := 0.0
	for _, lvl := range []MemLevel{L1, L2, L3, MEM} {
		r := m.Predict(2, 3, tr, lvl)
		if r.TECM < prev {
			t.Errorf("TECM must not decrease with deeper levels: %s", lvl)
		}
		prev = r.TECM
	}
}

func TestIntelNonOverlappingChain(t *testing.T) {
	m := mustFor(t, "goldencove")
	tr := Traffic{LoadBytes: 128, StoreBytes: 64}
	r := m.Predict(1, 2, tr, MEM)
	vol := 128 + 1.75*64.0 // SpecI2M's saturated write-allocate factor
	wantData := 2 + vol/m.BW.L1L2 + vol/m.BW.L2L3 + vol/m.BW.L3Mem
	if math.Abs(r.TECM-wantData) > 1e-9 {
		t.Errorf("Intel chain TECM = %f, want %f (additive)", r.TECM, wantData)
	}
}

func TestArmOverlappingChain(t *testing.T) {
	m := mustFor(t, "neoversev2")
	tr := Traffic{LoadBytes: 128, StoreBytes: 64}
	r := m.Predict(1, 2, tr, L3)
	// L1L2 and L2L3 overlap on V2: contribution is max-wise, so TECM is
	// well below the additive Intel-style combination.
	additive := r.TnOL + r.TL1L2 + r.TL2L3
	if !(r.TECM < additive) {
		t.Errorf("V2 transfers must overlap: TECM %f vs additive %f", r.TECM, additive)
	}
}

func TestSaturationPoint(t *testing.T) {
	m := mustFor(t, "goldencove")
	// STREAM-triad-shaped traffic with WA: 2 load lines + 2x1 store.
	tr := Traffic{LoadBytes: 128, StoreBytes: 64}
	r := m.Predict(1, 2, tr, MEM)
	if r.NSat < 8 || r.NSat > 20 {
		t.Errorf("SPR triad saturation at %d cores, expected ~a dozen", r.NSat)
	}
}

func TestNTStoresReduceTraffic(t *testing.T) {
	m := mustFor(t, "zen4")
	wa := m.Predict(1, 2, Traffic{LoadBytes: 128, StoreBytes: 64}, MEM)
	nt := m.Predict(1, 2, Traffic{LoadBytes: 128, StoreBytes: 64, NT: true}, MEM)
	if !(nt.TECM < wa.TECM) {
		t.Errorf("NT stores must shorten the memory time: %f vs %f", nt.TECM, wa.TECM)
	}
}

func TestInCoreInputs(t *testing.T) {
	marr := uarch.MustGet("goldencove")
	k, err := kernels.ByName("striad")
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.GCC, Opt: kernels.O3}
	b, err := kernels.Generate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.New().Analyze(b, marr)
	if err != nil {
		t.Fatal(err)
	}
	elems := kernels.ElemsPerIter(k, cfg)
	tOL, tnOL, err := InCoreInputs(res, elems)
	if err != nil {
		t.Fatal(err)
	}
	if tnOL <= 0 {
		t.Error("a streaming kernel must have non-zero L1 time")
	}
	if tOL < 0 {
		t.Error("negative core time")
	}
	// Triad at 8 elems/CL: 2 loads + 1 store per 8 elements; the store
	// dominates the L1 time on GLC (2 store-data µ-ops per zmm store).
	if tnOL > 6 || tnOL < 0.5 {
		t.Errorf("tnOL = %f cy/CL out of plausible range", tnOL)
	}
	if _, _, err := InCoreInputs(res, 0); err == nil {
		t.Error("zero elems must error")
	}
}

// kernelBlock generates a kernel's first-compiler -Ofast block for arch.
func kernelBlock(t *testing.T, name, arch string) *isa.Block {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: kernels.TargetOf(uarch.MustGet(arch)).Compilers()[0], Opt: kernels.Ofast})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTrafficForKernel(t *testing.T) {
	tr := TrafficForBlock(kernelBlock(t, "striad", "goldencove"))
	if tr.LoadBytes != 128 || tr.StoreBytes != 64 || tr.NT {
		t.Errorf("striad traffic: %+v", tr)
	}
	trPi := TrafficForBlock(kernelBlock(t, "pi", "zen4"))
	if trPi.LoadBytes != 0 || trPi.StoreBytes != 0 {
		t.Errorf("pi must move no data: %+v", trPi)
	}
}

// TestWAFactorFor: ForModel takes the write-allocate factor from memsim's
// calibration of the model, and a model memsim cannot calibrate always
// allocates.
func TestWAFactorFor(t *testing.T) {
	for key, want := range map[string]float64{
		"neoversev2": 1.0,  // Grace claims lines
		"goldencove": 1.75, // saturated SPR: SpecI2M converts a quarter of RFOs
		"zen4":       2.0,  // Genoa always allocates
	} {
		if got := mustFor(t, key).WAFactor; got != want {
			t.Errorf("%s: WA factor %v, want %v", key, got, want)
		}
	}
	rekeyed, err := uarch.NewDeriver(uarch.MustGet("neoversev2")).Derive(func(m *uarch.Model) error { m.Key = "uncalibrated"; return nil })
	if err != nil {
		t.Fatal(err)
	}
	m, err := ForModel(rekeyed)
	if err != nil {
		t.Fatal(err)
	}
	if m.WAFactor != 2 {
		t.Errorf("a model without a memsim calibration must allocate: factor %v", m.WAFactor)
	}
}

func TestCyclesPerIt(t *testing.T) {
	m := mustFor(t, "zen4")
	r := m.Predict(4, 2, Traffic{LoadBytes: 64}, L1)
	// 4 cy/CL at 8 elems/CL -> 2 cy for a 4-element iteration.
	if got := r.CyclesPerIt(4); math.Abs(got-2) > 1e-12 {
		t.Errorf("CyclesPerIt = %f, want 2", got)
	}
}

func TestReport(t *testing.T) {
	m := mustFor(t, "neoversev2")
	r := m.Predict(2, 1, Traffic{LoadBytes: 128, StoreBytes: 64}, MEM)
	out := r.Report()
	for _, want := range []string{"T_OL", "T_ECM", "MEM", "saturates"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestGraceVsGenoaStoreKernels: with standard stores, Grace's WA evasion
// halves the memory traffic of a store-dominated kernel relative to
// Genoa — the node-level consequence of Fig. 4 expressed in ECM terms.
func TestGraceVsGenoaStoreKernels(t *testing.T) {
	gcs := mustFor(t, "neoversev2")
	gen := mustFor(t, "zen4")
	rG := gcs.Predict(0.5, 1, TrafficForBlock(kernelBlock(t, "init", "neoversev2")), MEM)
	rZ := gen.Predict(0.5, 1, TrafficForBlock(kernelBlock(t, "init", "zen4")), MEM)
	if !(rG.TL3Mem < rZ.TL3Mem) {
		t.Errorf("Grace store traffic must be lower: %f vs %f", rG.TL3Mem, rZ.TL3Mem)
	}
	ratio := (rZ.TL3Mem / gen.BW.L3Mem * gen.BW.L3Mem) / (rG.TL3Mem / gcs.BW.L3Mem * gcs.BW.L3Mem)
	_ = ratio
	// Traffic volumes: 128 B vs 64 B per line.
	if rZ.TL3Mem*gen.BW.L3Mem != 128 || rG.TL3Mem*gcs.BW.L3Mem != 64 {
		t.Errorf("volumes: genoa %f B, grace %f B", rZ.TL3Mem*gen.BW.L3Mem, rG.TL3Mem*gcs.BW.L3Mem)
	}
}
