package core

import (
	"strings"
	"testing"

	"incore/internal/isa"
	"incore/internal/uarch"
)

func analyze(t *testing.T, arch, src string) *Result {
	t.Helper()
	m := uarch.MustGet(arch)
	b, err := isa.ParseBlock("t", arch, m.Dialect, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := New().Analyze(b, m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

func TestThroughputBoundVectorAdd(t *testing.T) {
	// Two independent 512-bit adds per iteration on GLC: ports 0/5 ->
	// 1 cycle bound.
	res := analyze(t, "goldencove", `
	vaddpd %zmm1, %zmm2, %zmm3
	vaddpd %zmm4, %zmm5, %zmm6
	decq %rcx
	jne .L0
`)
	if res.TPBound != 1.0 {
		t.Errorf("TP bound = %f, want 1.0", res.TPBound)
	}
}

func TestIssueBound(t *testing.T) {
	// 8 single-µ-op instructions on GLC (issue width 6) -> 8/6.
	res := analyze(t, "goldencove", `
	movq %rax, %rbx
	movq %rbx, %rcx
	movq %rcx, %rdx
	movq %rdx, %rsi
	movq %rsi, %rdi
	movq %rdi, %r8
	movq %r8, %r9
	movq %r9, %r10
`)
	want := 8.0 / 6.0
	if res.IssueBound < want-1e-9 || res.IssueBound > want+1e-9 {
		t.Errorf("issue bound = %f, want %f", res.IssueBound, want)
	}
}

func TestLCDBoundDominates(t *testing.T) {
	// Serial divide chain: LCD must dominate the prediction.
	res := analyze(t, "zen4", `
	vdivsd %xmm1, %xmm0, %xmm0
	decq %rcx
	jne .L0
`)
	if res.Bound != "lcd" {
		t.Errorf("bound = %q, want lcd", res.Bound)
	}
	if res.Prediction != 13 {
		t.Errorf("prediction = %f, want 13 (divsd latency)", res.Prediction)
	}
}

func TestPredictionIsMaxOfBounds(t *testing.T) {
	res := analyze(t, "neoversev2", `
	fadd v0.2d, v1.2d, v2.2d
	subs x4, x4, #1
	b.ne .L0
`)
	for _, b := range []float64{res.TPBound, res.IssueBound, res.LCD.Cycles} {
		if res.Prediction < b-1e-9 {
			t.Errorf("prediction %f below bound %f", res.Prediction, b)
		}
	}
}

func TestGreedyBoundAtLeastOptimal(t *testing.T) {
	res := analyze(t, "goldencove", `
	vmovupd (%rsi,%rax,8), %zmm0
	vfmadd231pd (%rdx,%rax,8), %zmm15, %zmm0
	vmovupd %zmm0, (%rdi,%rax,8)
	addq $8, %rax
	cmpq %rbx, %rax
	jne .L0
`)
	if res.GreedyTPBound < res.TPBound-1e-9 {
		t.Errorf("greedy bound %f below optimal %f", res.GreedyTPBound, res.TPBound)
	}
}

func TestReportRendering(t *testing.T) {
	res := analyze(t, "goldencove", `
	vaddpd %zmm1, %zmm2, %zmm3
	decq %rcx
	jne .L0
`)
	rep := res.Report()
	for _, want := range []string{"Golden Cove", "throughput bound", "issue bound",
		"loop-carried dep", "prediction", "vaddpd"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCyclesPerElement(t *testing.T) {
	v, err := CyclesPerElement(8, 4)
	if err != nil || v != 2 {
		t.Errorf("CyclesPerElement = %f, %v", v, err)
	}
	if _, err := CyclesPerElement(8, 0); err == nil {
		t.Error("zero elements must error")
	}
}

func TestAnalyzeInvalidBlock(t *testing.T) {
	m := uarch.MustGet("zen4")
	if _, err := New().Analyze(&isa.Block{Name: "empty"}, m); err == nil {
		t.Error("empty block must fail")
	}
}

func TestPortPressureSumsToWork(t *testing.T) {
	res := analyze(t, "zen4", `
	vaddpd %ymm1, %ymm2, %ymm3
	vmulpd %ymm1, %ymm2, %ymm4
	decq %rcx
	jne .L0
`)
	var sum float64
	for _, v := range res.PortPressure {
		sum += v
	}
	if sum < 3.9 || sum > 4.1 { // 4 µ-ops x 1 cycle
		t.Errorf("total port pressure = %f, want ~4", sum)
	}
}
