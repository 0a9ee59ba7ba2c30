package mca

import (
	"testing"

	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func predict(t *testing.T, arch, src string) *Result {
	t.Helper()
	m := uarch.MustGet(arch)
	b, err := isa.ParseBlock("t", arch, m.Dialect, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := PredictDefault(b, m)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	return r
}

func TestParamsForKnownArchs(t *testing.T) {
	v2 := ParamsFor("neoversev2")
	if v2.DispatchWidth != 4 || !v2.RoundRobin {
		t.Errorf("neoversev2 params: %+v", v2)
	}
	z := ParamsFor("zen4")
	if z.RoundRobin {
		t.Error("zen4 baseline uses availability-based port selection (mature model)")
	}
	if z.DispatchWidth <= v2.DispatchWidth {
		t.Error("zen4 baseline dispatch must exceed the immature V2 model's")
	}
	unk := ParamsFor("unknown")
	if unk.DispatchWidth <= 0 {
		t.Error("unknown arch must get defaults")
	}
}

func TestPredictSimpleLoop(t *testing.T) {
	r := predict(t, "goldencove", `
	vaddpd %zmm1, %zmm2, %zmm3
	decq %rcx
	jne .L0
`)
	if r.CyclesPerIter <= 0 {
		t.Errorf("prediction = %f", r.CyclesPerIter)
	}
	if r.Iters != 100 {
		t.Errorf("mca must replay 100 iterations like the llvm-mca CLI, got %d", r.Iters)
	}
}

// TestBaselineOverPredictsNarrowDispatch: many-µ-op scalar blocks exceed
// the baseline's dispatch width and come out slower than the simulated
// measurement — the paper's core observation about LLVM-MCA on V2.
func TestBaselineOverPredictsNarrowDispatch(t *testing.T) {
	src := `
	ldr d16, [x1, x3, lsl #3]
	ldr d17, [x2, x3, lsl #3]
	fadd d18, d16, d17
	ldr d19, [x5, x3, lsl #3]
	fadd d20, d18, d19
	str d20, [x0, x3, lsl #3]
	add x3, x3, #1
	cmp x3, x4
	b.ne .L0
`
	m := uarch.MustGet("neoversev2")
	b, err := isa.ParseBlock("t", "neoversev2", m.Dialect, src)
	if err != nil {
		t.Fatal(err)
	}
	mcaRes, err := PredictDefault(b, m)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(b, m, sim.DefaultConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	if !(mcaRes.CyclesPerIter > simRes.CyclesPerIter) {
		t.Errorf("baseline should over-predict scalar V2 code: mca=%f sim=%f",
			mcaRes.CyclesPerIter, simRes.CyclesPerIter)
	}
}

func TestCeilOccupancyPenalizesFractionalOps(t *testing.T) {
	// V2 scalar divide has reciprocal throughput 2.5; the baseline
	// rounds to 3, so two divides take 6 cycles, not 5.
	src := `
	fdiv d16, d8, d9
	fdiv d17, d8, d9
	subs x4, x4, #1
	b.ne .L0
`
	m := uarch.MustGet("neoversev2")
	b, err := isa.ParseBlock("t", "neoversev2", m.Dialect, src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Predict(b, m, Params{DispatchWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.CyclesPerIter < 6 {
		t.Errorf("ceil occupancy must charge 3 cycles per fdiv: %f cy/it, want >= 6", r.CyclesPerIter)
	}
}

func TestRoundRobinWorseThanLeastLoaded(t *testing.T) {
	// Asymmetric port masks: round-robin rotation stacks work.
	src := `
	vaddsd %xmm1, %xmm2, %xmm16
	vmulsd %xmm1, %xmm2, %xmm17
	vmulsd %xmm3, %xmm4, %xmm18
	decq %rcx
	jne .L0
`
	m := uarch.MustGet("goldencove")
	b, err := isa.ParseBlock("t", "goldencove", m.Dialect, src)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Predict(b, m, Params{DispatchWidth: 6, RoundRobin: true})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := Predict(b, m, Params{DispatchWidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rr.CyclesPerIter < ll.CyclesPerIter-1e-9 {
		t.Errorf("round robin should not beat least-loaded: %f vs %f",
			rr.CyclesPerIter, ll.CyclesPerIter)
	}
}

func TestGroupBreakAddsPerIterationCost(t *testing.T) {
	// The suite's zen4 gcc -O1 copy loop: five instructions fit one
	// dispatch group, but the taken branch ends it, so the next
	// iteration's first instruction dispatches a cycle later. Without
	// the break the baseline reads about 1.06 cy/it.
	k, err := kernels.ByName("copy")
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("zen4")), Compiler: kernels.GCC, Opt: kernels.O1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := PredictDefault(b, uarch.MustGet("zen4"))
	if err != nil {
		t.Fatal(err)
	}
	if r.CyclesPerIter < 2 {
		t.Errorf("group break must add a cycle per iteration: %f cy/it, want >= 2", r.CyclesPerIter)
	}
}

func TestPredictErrors(t *testing.T) {
	m := uarch.MustGet("zen4")
	if _, err := Predict(&isa.Block{Name: "empty"}, m, ParamsFor("zen4")); err == nil {
		t.Error("empty block must fail")
	}
	bad := &isa.Block{Name: "bad", Arch: "zen4", Dialect: m.Dialect,
		Instrs: []isa.Instruction{{Mnemonic: "bogus"}}}
	if _, err := Predict(bad, m, ParamsFor("zen4")); err == nil {
		t.Error("unknown mnemonic must fail")
	}
}

func TestDeterminism(t *testing.T) {
	a := predict(t, "zen4", "\tvaddpd %ymm1, %ymm2, %ymm3\n\tjne .L0\n")
	b := predict(t, "zen4", "\tvaddpd %ymm1, %ymm2, %ymm3\n\tjne .L0\n")
	if a.CyclesPerIter != b.CyclesPerIter {
		t.Error("baseline not deterministic")
	}
}
