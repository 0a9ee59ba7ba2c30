package depgraph

import (
	"strings"
	"testing"

	"incore/internal/isa"
	"incore/internal/uarch"
)

func mustGraph(t *testing.T, arch, src string, opt Options) *Graph {
	t.Helper()
	m := uarch.MustGet(arch)
	b, err := isa.ParseBlock("t", arch, m.Dialect, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := build(b, m, opt)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	return g
}

// build runs the one graph-construction path: skeleton, descriptors,
// instantiation.
func build(b *isa.Block, m *uarch.Model, opt Options) (*Graph, error) {
	sk, err := NewSkeleton(b, opt)
	if err != nil {
		return nil, err
	}
	descs, err := sk.ResolveDescs(m, opt.DegradeUnknown)
	if err != nil {
		return nil, err
	}
	return sk.Instantiate(b, m, descs, &Scratch{}), nil
}

func TestEdgeKindString(t *testing.T) {
	for k, want := range map[EdgeKind]string{EdgeRAW: "RAW", EdgeWAW: "WAW", EdgeWAR: "WAR", EdgeMem: "MEM"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestIntraIterationRAW(t *testing.T) {
	g := mustGraph(t, "goldencove", `
	vmovupd (%rsi), %ymm0
	vaddpd %ymm0, %ymm1, %ymm2
	vmovupd %ymm2, (%rdi)
`, DefaultOptions())
	// Edge 0 -> 1 through ymm0 and 1 -> 2 through ymm2 (store data).
	var saw01, saw12 bool
	for _, e := range g.Edges {
		if e.From == 0 && e.To == 1 && e.Kind == EdgeRAW && !e.Carried {
			saw01 = true
		}
		if e.From == 1 && e.To == 2 && e.Kind == EdgeRAW && !e.Carried {
			saw12 = true
		}
	}
	if !saw01 || !saw12 {
		t.Errorf("missing RAW edges: %+v", g.Edges)
	}
}

func TestLoopCarriedAccumulator(t *testing.T) {
	// Sum reduction: carried fadd chain with latency 2 on V2.
	g := mustGraph(t, "neoversev2", `
	ldr d1, [x1, x3, lsl #3]
	fadd d0, d0, d1
	add x3, x3, #1
	cmp x3, x4
	b.ne .L0
`, DefaultOptions())
	lcd := g.LoopCarried(nil)
	if lcd.Cycles != 2 {
		t.Errorf("sum LCD = %.1f, want 2 (fadd latency)", lcd.Cycles)
	}
}

func TestLoopCarriedChainGS(t *testing.T) {
	// Gauss-Seidel register chain: fadd(2) + fmul(3) = 5 on V2.
	g := mustGraph(t, "neoversev2", `
	ldr d1, [x5]
	ldr d2, [x6]
	fadd d1, d1, d2
	ldr d2, [x1, #8]
	fadd d1, d1, d2
	fadd d1, d1, d0
	fmul d0, d1, d15
	str d0, [x1]
	add x1, x1, #8
	add x5, x5, #8
	add x6, x6, #8
	cmp x1, x4
	b.ne .L0
`, DefaultOptions())
	lcd := g.LoopCarried(nil)
	if lcd.Cycles != 5 {
		t.Errorf("GS LCD = %.1f, want 5 (fadd 2 + fmul 3)", lcd.Cycles)
	}
}

func TestIndexChainIsCarried(t *testing.T) {
	g := mustGraph(t, "goldencove", `
	addq $8, %rax
	cmpq %rbx, %rax
	jne .L0
`, DefaultOptions())
	lcd := g.LoopCarried(nil)
	if lcd.Cycles != 1 {
		t.Errorf("index LCD = %.1f, want 1", lcd.Cycles)
	}
}

func TestCriticalPathLongerThanLCD(t *testing.T) {
	g := mustGraph(t, "goldencove", `
	vmovupd (%rsi), %ymm0
	vmulpd %ymm0, %ymm0, %ymm1
	vmulpd %ymm1, %ymm1, %ymm2
	vmovupd %ymm2, (%rdi)
`, DefaultOptions())
	cp, _ := g.CriticalPath(nil)
	// load (7) + mul (4) + mul (4) = 15 at least.
	if cp < 15 {
		t.Errorf("critical path = %.1f, want >= 15", cp)
	}
}

func TestFalseDepsOnlyWhenRequested(t *testing.T) {
	src := `
	vmovupd (%rsi), %ymm0
	vmovupd %ymm0, (%rdi)
	vmovupd 32(%rsi), %ymm0
	vmovupd %ymm0, 32(%rdi)
`
	ideal := mustGraph(t, "goldencove", src, DefaultOptions())
	for _, e := range ideal.Edges {
		if e.Kind == EdgeWAW || e.Kind == EdgeWAR {
			t.Errorf("false dep present with renaming: %+v", e)
		}
	}
	opt := DefaultOptions()
	opt.IncludeFalseDeps = true
	noRename := mustGraph(t, "goldencove", src, opt)
	var falseDeps int
	for _, e := range noRename.Edges {
		if e.Kind == EdgeWAW || e.Kind == EdgeWAR {
			falseDeps++
		}
	}
	if falseDeps == 0 {
		t.Error("expected WAW/WAR edges with IncludeFalseDeps")
	}
}

func TestMemCarriedDirection(t *testing.T) {
	// Gauss-Seidel memory round trip: store (%rsi), load -8(%rsi):
	// store.Disp - load.Disp = +8 -> carried RAW.
	g := mustGraph(t, "goldencove", `
	vmovsd -8(%rsi,%rax,8), %xmm1
	vmulsd %xmm15, %xmm1, %xmm1
	vmovsd %xmm1, (%rsi,%rax,8)
	incq %rax
	cmpq %rbx, %rax
	jne .L0
`, DefaultOptions())
	var carried bool
	for _, e := range g.Edges {
		if e.Kind == EdgeMem && e.Carried {
			carried = true
		}
	}
	if !carried {
		t.Error("expected carried memory edge for the GS round trip")
	}
	lcd := g.LoopCarried(nil)
	// fwd total (LoadLat+2 = 9) + fmul (4) = 13.
	if lcd.Cycles < 12 || lcd.Cycles > 14 {
		t.Errorf("GS memory LCD = %.1f, want ~13", lcd.Cycles)
	}
}

func TestMemForwardDirectionNegativeNoDep(t *testing.T) {
	// Store at disp 0, load at disp +8 (load runs AHEAD of the store):
	// never a RAW across iterations.
	g := mustGraph(t, "goldencove", `
	vmovsd 8(%rsi,%rax,8), %xmm1
	vmulsd %xmm15, %xmm1, %xmm1
	vmovsd %xmm1, (%rsi,%rax,8)
	incq %rax
	cmpq %rbx, %rax
	jne .L0
`, DefaultOptions())
	for _, e := range g.Edges {
		if e.Kind == EdgeMem {
			t.Errorf("unexpected memory edge: %+v", e)
		}
	}
}

func TestIntraIterationMemDep(t *testing.T) {
	// Store then load of the same address within one iteration.
	g := mustGraph(t, "goldencove", `
	vmovsd %xmm1, (%rsi,%rax,8)
	vmovsd (%rsi,%rax,8), %xmm2
	incq %rax
	cmpq %rbx, %rax
	jne .L0
`, DefaultOptions())
	var intra bool
	for _, e := range g.Edges {
		if e.Kind == EdgeMem && !e.Carried && e.From == 0 && e.To == 1 {
			intra = true
		}
	}
	if !intra {
		t.Error("expected intra-iteration store->load edge")
	}
}

// TestAccumulatorEdgeDetection pins, per mnemonic, whether a
// one-instruction self-accumulating loop's carried RAW edge is flagged
// ViaAccumulator (it reaches stored results through LCD.ViaAccumulator).
// vfnmsub231pd, fadda and madd read their own destination but are not
// accumulator edges. Mnemonics no model lists resolve degraded.
func TestAccumulatorEdgeDetection(t *testing.T) {
	degraded := DefaultOptions()
	degraded.DegradeUnknown = true
	for _, c := range []struct {
		arch, src string
		want      bool
	}{
		{"goldencove", "vfmadd231pd %zmm1, %zmm2, %zmm0", true},
		{"goldencove", "vfmsub231pd %zmm1, %zmm2, %zmm0", true},
		{"goldencove", "vfnmadd231pd %zmm1, %zmm2, %zmm0", true},
		{"goldencove", "vfnmsub231pd %zmm1, %zmm2, %zmm0", false},
		{"neoversev2", "fmla v0.2d, v1.2d, v2.2d", true},
		{"neoversev2", "fmls v0.2d, v1.2d, v2.2d", true},
		{"neoversev2", "fmadd d0, d1, d2, d0", true},
		{"neoversev2", "fnmsub d0, d1, d2, d0", true},
		{"neoversev2", "fadda d0, p0, d0, z1.d", false},
		{"neoversev2", "madd x0, x1, x2, x0", false},
	} {
		br := "jne"
		if c.arch == "neoversev2" {
			br = "b.ne"
		}
		g := mustGraph(t, c.arch, "\t"+c.src+"\n\t"+br+" .L0\n", degraded)
		var carried, acc bool
		for _, e := range g.Edges {
			if e.Kind == EdgeRAW && e.Carried && e.From == 0 && e.To == 0 {
				carried, acc = true, e.ViaAccumulator
			}
		}
		if !carried {
			t.Errorf("%s: no carried self edge", c.src)
			continue
		}
		if acc != c.want {
			t.Errorf("%s: carried edge ViaAccumulator = %v, want %v", c.src, acc, c.want)
		}
		if lcd := g.LoopCarried(nil); lcd.ViaAccumulator != c.want {
			t.Errorf("%s: LCD.ViaAccumulator = %v, want %v", c.src, lcd.ViaAccumulator, c.want)
		}
	}

	g := mustGraph(t, "neoversev2", `
	fmla v0.2d, v1.2d, v2.2d
	b.ne .L0
`, DefaultOptions())
	if lcd := g.LoopCarried(nil); lcd.Cycles != 4 {
		t.Errorf("fmla chain LCD = %.1f, want 4", lcd.Cycles)
	}
}

func TestChainLatPipelinesFoldedLoads(t *testing.T) {
	// Folded-load accumulation: the carried chain must cost only the add
	// latency, not load+add.
	g := mustGraph(t, "goldencove", `
	vaddsd (%rsi,%rax,8), %xmm0, %xmm0
	incq %rax
	cmpq %rbx, %rax
	jne .L0
`, DefaultOptions())
	lcd := g.LoopCarried(nil)
	if lcd.Cycles != 2 {
		t.Errorf("folded-load sum LCD = %.1f, want 2 (vaddsd latency only)", lcd.Cycles)
	}
}

func TestCarriedEdges(t *testing.T) {
	g := mustGraph(t, "goldencove", `
	vaddsd %xmm1, %xmm0, %xmm0
	jne .L0
`, DefaultOptions())
	carried := 0
	for _, e := range g.Edges {
		if e.Carried {
			carried++
		}
	}
	if carried == 0 {
		t.Fatal("expected carried edges")
	}
}

func TestUnknownInstructionErrors(t *testing.T) {
	m := uarch.MustGet("zen4")
	b := &isa.Block{Name: "x", Arch: "zen4", Dialect: m.Dialect,
		Instrs: []isa.Instruction{{Mnemonic: "bogus"}}}
	_, err := build(b, m, DefaultOptions())
	if err == nil {
		t.Fatal("unknown instruction must fail graph construction")
	}
	if want := "depgraph: block x: instr 0 (bogus): "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q; want prefix %q", err, want)
	}
}
