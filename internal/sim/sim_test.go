package sim

import (
	"math"
	"testing"

	"incore/internal/isa"
	"incore/internal/uarch"
)

func runSrc(t *testing.T, arch, src string, cfg Config) *Result {
	t.Helper()
	m := uarch.MustGet(arch)
	b, err := isa.ParseBlock("t", arch, m.Dialect, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(b, m, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

func defaultRun(t *testing.T, arch, src string) *Result {
	m := uarch.MustGet(arch)
	return runSrc(t, arch, src, DefaultConfig(m))
}

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

func TestThroughputBoundRespected(t *testing.T) {
	// Two independent 512-bit adds: port bound 1 cy/iter on GLC; the
	// simulator cannot beat that bound.
	r := defaultRun(t, "goldencove", `
	vaddpd %zmm1, %zmm2, %zmm16
	vaddpd %zmm4, %zmm5, %zmm17
	decq %rcx
	jne .L0
`)
	if r.CyclesPerIter < 1.0-1e-9 {
		t.Errorf("simulator beats the port bound: %f", r.CyclesPerIter)
	}
	if r.CyclesPerIter > 1.3 {
		t.Errorf("simple add loop too slow: %f", r.CyclesPerIter)
	}
}

func TestLatencyChain(t *testing.T) {
	// Serial vector adds on V2: 2 cycles per link.
	r := defaultRun(t, "neoversev2", `
	fadd v0.2d, v0.2d, v8.2d
	fadd v0.2d, v0.2d, v8.2d
	fadd v0.2d, v0.2d, v8.2d
	fadd v0.2d, v0.2d, v8.2d
	subs x4, x4, #1
	b.ne .L0
`)
	if !approx(r.CyclesPerIter, 8, 0.5) {
		t.Errorf("4-link fadd chain = %f cy/iter, want ~8", r.CyclesPerIter)
	}
}

func TestDivEarlyExitQuirk(t *testing.T) {
	src := `
	vdivsd %xmm1, %xmm2, %xmm16
	vdivsd %xmm1, %xmm2, %xmm17
	decq %rcx
	jne .L0
`
	m := uarch.MustGet("zen4")
	withQuirk := runSrc(t, "zen4", src, DefaultConfig(m))
	noQuirk := runSrc(t, "zen4", src, Config{DivEarlyExitFactor: 1})
	if !(withQuirk.CyclesPerIter < noQuirk.CyclesPerIter) {
		t.Errorf("early exit must speed up scalar divides: %f vs %f",
			withQuirk.CyclesPerIter, noQuirk.CyclesPerIter)
	}
	// Vector divides are unaffected.
	vsrc := `
	vdivpd %ymm1, %ymm2, %ymm16
	decq %rcx
	jne .L0
`
	v1 := runSrc(t, "zen4", vsrc, DefaultConfig(m))
	v2 := runSrc(t, "zen4", vsrc, Config{DivEarlyExitFactor: 1})
	if !approx(v1.CyclesPerIter, v2.CyclesPerIter, 1e-9) {
		t.Errorf("vector divides must not take the early exit: %f vs %f",
			v1.CyclesPerIter, v2.CyclesPerIter)
	}
}

func TestCrossOpForwardingQuirk(t *testing.T) {
	// The GS-style carried chain fadd -> fmul on V2: with the late
	// forwarding network the chain runs faster than table latencies.
	src := `
	fadd d1, d0, d8
	fmul d0, d1, d9
	subs x4, x4, #1
	b.ne .L0
`
	m := uarch.MustGet("neoversev2")
	with := runSrc(t, "neoversev2", src, DefaultConfig(m))
	without := runSrc(t, "neoversev2", src, Config{DivEarlyExitFactor: 1})
	if !(with.CyclesPerIter < without.CyclesPerIter) {
		t.Errorf("cross-op forwarding must shorten mixed chains: %f vs %f",
			with.CyclesPerIter, without.CyclesPerIter)
	}
	if !approx(with.CyclesPerIter, 3, 0.3) {
		t.Errorf("forwarded GS chain = %f, want ~3", with.CyclesPerIter)
	}
	if !approx(without.CyclesPerIter, 5, 0.3) {
		t.Errorf("unforwarded GS chain = %f, want ~5", without.CyclesPerIter)
	}
}

func TestSameOpChainNotForwarded(t *testing.T) {
	// fadd -> fadd chains (sum reduction) see full latency on V2.
	src := `
	fadd d0, d0, d8
	subs x4, x4, #1
	b.ne .L0
`
	m := uarch.MustGet("neoversev2")
	r := runSrc(t, "neoversev2", src, DefaultConfig(m))
	if !approx(r.CyclesPerIter, 2, 0.2) {
		t.Errorf("same-op chain = %f, want 2 (no forwarding)", r.CyclesPerIter)
	}
}

func TestFMAAccumulatorForwarding(t *testing.T) {
	// fmla self-accumulation: forwarded latency 2 on V2.
	src := `
	fmla v0.2d, v8.2d, v9.2d
	subs x4, x4, #1
	b.ne .L0
`
	m := uarch.MustGet("neoversev2")
	with := runSrc(t, "neoversev2", src, DefaultConfig(m))
	if !approx(with.CyclesPerIter, 2, 0.2) {
		t.Errorf("fmla accumulator chain = %f, want 2 (forwarded)", with.CyclesPerIter)
	}
	without := runSrc(t, "neoversev2", src, Config{DivEarlyExitFactor: 1})
	if !approx(without.CyclesPerIter, 4, 0.2) {
		t.Errorf("fmla chain without forwarding = %f, want 4", without.CyclesPerIter)
	}
}

func TestRenamingBreaksFalseDeps(t *testing.T) {
	// Register reuse creates WAW/WAR on a latency-heavy producer;
	// renaming must hide it.
	src := `
	vmulpd %ymm1, %ymm2, %ymm0
	vmovupd %ymm0, (%rdi)
	vmulpd %ymm3, %ymm4, %ymm0
	vmovupd %ymm0, 32(%rdi)
	decq %rcx
	jne .L0
`
	m := uarch.MustGet("goldencove")
	renamed := runSrc(t, "goldencove", src, DefaultConfig(m))
	cfg := DefaultConfig(m)
	cfg.DisableRenaming = true
	stalled := runSrc(t, "goldencove", src, cfg)
	if !(renamed.CyclesPerIter < stalled.CyclesPerIter) {
		t.Errorf("renaming must help: %f vs %f", renamed.CyclesPerIter, stalled.CyclesPerIter)
	}
}

func TestFoldedLoadDoesNotSerializeChain(t *testing.T) {
	// s += a[i] with a folded load: the carried chain is only the add
	// latency (2 on GLC), not load+add.
	r := defaultRun(t, "goldencove", `
	vaddsd (%rsi,%rax,8), %xmm0, %xmm0
	incq %rax
	cmpq %rbx, %rax
	jne .L0
`)
	if !approx(r.CyclesPerIter, 2, 0.3) {
		t.Errorf("folded-load sum = %f cy/iter, want ~2", r.CyclesPerIter)
	}
}

func TestStoreForwardingChain(t *testing.T) {
	// GS memory round trip: store (%rsi+idx), reload -8: forwarding
	// gates the chain at fwd + compute latencies.
	r := defaultRun(t, "goldencove", `
	vmovsd -8(%rsi,%rax,8), %xmm1
	vmulsd %xmm15, %xmm1, %xmm1
	vmovsd %xmm1, (%rsi,%rax,8)
	incq %rax
	cmpq %rbx, %rax
	jne .L0
`)
	// isa.StoreForwardDelay(2) + LoadLat(7) + mul(4) = 13.
	if !approx(r.CyclesPerIter, 13, 1.0) {
		t.Errorf("store-forward chain = %f cy/iter, want ~13", r.CyclesPerIter)
	}
}

func TestIssueWidthLimits(t *testing.T) {
	// 12 independent single-µ-op int ops on GLC (width 6): >= 2 cy/iter.
	src := `
	movq %rax, %r8
	movq %rax, %r9
	movq %rax, %r10
	movq %rax, %r11
	movq %rax, %r12
	movq %rax, %r13
	movq %rax, %r14
	movq %rax, %r15
	movq %rax, %rbx
	movq %rax, %rcx
	movq %rax, %rdx
	movq %rax, %rsi
`
	m := uarch.MustGet("goldencove")
	r := runSrc(t, "goldencove", src, DefaultConfig(m))
	if r.CyclesPerIter < 2.0-1e-6 {
		t.Errorf("issue width violated: %f cy/iter for 12 µ-ops at width 6", r.CyclesPerIter)
	}
	// Ablation (DESIGN.md #5): a narrower issue width must slow things
	// down (the wide case is port-bound at 12/5 ALU ports = 2.4 cy).
	cfg := DefaultConfig(m)
	cfg.IssueWidthOverride = 3
	narrow := runSrc(t, "goldencove", src, cfg)
	if !(narrow.CyclesPerIter > r.CyclesPerIter+0.5) {
		t.Errorf("issue-width 3 must slow down: %f vs %f", narrow.CyclesPerIter, r.CyclesPerIter)
	}
}

func TestTakenBranchFetchBreak(t *testing.T) {
	// A tiny loop cannot run faster than 1 cycle/iteration because the
	// taken branch ends the fetch group.
	r := defaultRun(t, "zen4", `
	vaddpd %ymm1, %ymm2, %ymm16
	jne .L0
`)
	if r.CyclesPerIter < 1.0-1e-9 {
		t.Errorf("loop faster than 1 cy/iter: %f", r.CyclesPerIter)
	}
}

func TestPortUtilization(t *testing.T) {
	r := defaultRun(t, "goldencove", `
	vaddpd %zmm1, %zmm2, %zmm16
	decq %rcx
	jne .L0
`)
	util := r.PortUtilization()
	if len(util) != 12 {
		t.Fatalf("want 12 port slots, got %d", len(util))
	}
	var any bool
	for _, u := range util {
		if u < 0 || u > 1.01 {
			t.Errorf("utilization out of range: %f", u)
		}
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no port utilization recorded")
	}
}

func TestTraceCallback(t *testing.T) {
	m := uarch.MustGet("zen4")
	cfg := DefaultConfig(m)
	var calls int
	cfg.Trace = func(dyn int, instr string, f, d, s, r, ret float64) {
		calls++
		if ret < s-1e-9 {
			t.Errorf("retire %f before start %f", ret, s)
		}
	}
	runSrc(t, "zen4", "\tvaddpd %ymm1, %ymm2, %ymm3\n\tjne .L0\n", cfg)
	if calls == 0 {
		t.Error("trace callback never invoked")
	}
}

func TestClassifyFP(t *testing.T) {
	cases := map[string]isa.FPClass{
		"vaddpd": isa.FPAdd, "fadd": isa.FPAdd, "vaddsd": isa.FPAdd,
		"vmulpd": isa.FPMul, "fmul": isa.FPMul,
		"vfmadd231pd": isa.FPFMA, "fmla": isa.FPFMA, "fmadd": isa.FPFMA,
		"vdivsd": isa.FPDiv, "fdiv": isa.FPDiv, "vsqrtpd": isa.FPDiv,
		"movq": isa.FPNone, "cmp": isa.FPNone, "ldr": isa.FPNone,
	}
	for mn, want := range cases {
		if got := isa.ClassifyFP(mn); got != want {
			t.Errorf("ClassifyFP(%q) = %v, want %v", mn, got, want)
		}
	}
}

func TestInvalidBlocks(t *testing.T) {
	m := uarch.MustGet("zen4")
	if _, err := Run(&isa.Block{Name: "empty"}, m, DefaultConfig(m)); err == nil {
		t.Error("empty block must fail")
	}
	bad := &isa.Block{Name: "bad", Arch: "zen4", Dialect: m.Dialect,
		Instrs: []isa.Instruction{{Mnemonic: "bogus"}}}
	if _, err := Run(bad, m, DefaultConfig(m)); err == nil {
		t.Error("unknown mnemonic must fail")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
	vmovupd (%rsi,%rax,8), %zmm0
	vfmadd231pd (%rdx,%rax,8), %zmm15, %zmm0
	vmovupd %zmm0, (%rdi,%rax,8)
	addq $8, %rax
	cmpq %rbx, %rax
	jne .L0
`
	a := defaultRun(t, "goldencove", src)
	b := defaultRun(t, "goldencove", src)
	if a.CyclesPerIter != b.CyclesPerIter {
		t.Errorf("simulation not deterministic: %f vs %f", a.CyclesPerIter, b.CyclesPerIter)
	}
}
