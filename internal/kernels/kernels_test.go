package kernels

import (
	"slices"
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func TestKernelCount(t *testing.T) {
	if len(Kernels) != 13 {
		t.Fatalf("the paper uses 13 kernels, got %d", len(Kernels))
	}
	names := map[string]bool{}
	for _, k := range Kernels {
		if names[k.Name] {
			t.Errorf("duplicate kernel name %q", k.Name)
		}
		names[k.Name] = true
	}
	for _, want := range []string{"copy", "init", "update", "add", "striad",
		"schtriad", "sum", "pi", "j2d5", "j3d7", "j3d11", "j3d27", "gs2d5"} {
		if !names[want] {
			t.Errorf("missing kernel %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("striad")
	if err != nil || k.Name != "striad" {
		t.Errorf("ByName: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown kernel must error")
	}
}

// target reads the generator's target off a built-in model.
func target(arch string) Target { return TargetOf(uarch.MustGet(arch)) }

// TestCompilersFor: the compilers follow the model's dialect.
func TestCompilersFor(t *testing.T) {
	if got := target("neoversev2").Compilers(); len(got) != 2 {
		t.Errorf("neoversev2 compilers: %v", got)
	}
	if got := target("goldencove").Compilers(); len(got) != 3 {
		t.Errorf("goldencove compilers: %v", got)
	}
}

// TestTargetOf pins the facts the generator reads from each built-in:
// its key, its dialect and its widest instruction entry.
func TestTargetOf(t *testing.T) {
	for arch, want := range map[string]Target{
		"goldencove": {Arch: "goldencove", Dialect: isa.DialectX86, VecBits: 512},
		"neoversev2": {Arch: "neoversev2", Dialect: isa.DialectAArch64, VecBits: 128},
		"zen4":       {Arch: "zen4", Dialect: isa.DialectX86, VecBits: 512},
	} {
		if got := target(arch); got != want {
			t.Errorf("TargetOf(%s) = %+v, want %+v", arch, got, want)
		}
	}
}

// TestNarrowX86TargetsYMM: on an x86 model whose widest entry is 256
// bits, gcc and icx vectorize with ymm registers and never zmm, and the
// element counts follow the narrower vectors.
func TestNarrowX86TargetsYMM(t *testing.T) {
	m := &uarch.Model{Key: "avx2", Dialect: isa.DialectX86}
	m.Entries = slices.DeleteFunc(slices.Clone(uarch.MustGet("goldencove").Entries), func(e uarch.Entry) bool { return e.Width > 256 })
	tg := TargetOf(m)
	if tg.VecBits != 256 {
		t.Fatalf("VecBits = %d, want 256", tg.VecBits)
	}
	striad, _ := ByName("striad")
	for _, c := range []Compiler{GCC, ICX} {
		for _, o := range []OptLevel{O2, O3, Ofast} {
			cfg := Config{Target: tg, Compiler: c, Opt: o}
			b, err := Generate(striad, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if text := b.Text(); !strings.Contains(text, "%ymm") || strings.Contains(text, "%zmm") {
				t.Errorf("%s: want ymm and no zmm:\n%s", b.Name, text)
			}
			wide := Config{Target: target("goldencove"), Compiler: c, Opt: o}
			if got, want := ElemsPerIter(striad, cfg), ElemsPerIter(striad, wide)/2; got != want {
				t.Errorf("%s: ElemsPerIter = %d, want %d", b.Name, got, want)
			}
		}
	}
	suite, err := Suite(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range suite {
		if strings.Contains(tb.Block.Text(), "%zmm") {
			t.Errorf("%s emits zmm on a 256-bit machine", tb.Block.Name)
		}
	}
}

func TestOptLevelString(t *testing.T) {
	for o, want := range map[OptLevel]string{O1: "O1", O2: "O2", O3: "O3", Ofast: "Ofast"} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

func TestSuiteSizes(t *testing.T) {
	// 13 x 2 x 4 = 104 on Grace, 13 x 3 x 4 = 156 on each x86 system.
	for arch, want := range map[string]int{"neoversev2": 104, "goldencove": 156, "zen4": 156} {
		s, err := Suite(uarch.MustGet(arch))
		if err != nil {
			t.Fatalf("Suite(%s): %v", arch, err)
		}
		if len(s) != want {
			t.Errorf("Suite(%s) = %d blocks, want %d", arch, len(s), want)
		}
	}
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 416 {
		t.Errorf("full suite = %d blocks, want 416 (the paper's count)", len(full))
	}
	uniq := UniqueBlocks(full)
	// fig3 prints this count; the paper's compilers produced 290.
	if uniq != 229 {
		t.Errorf("unique blocks = %d, want 229", uniq)
	}
}

// TestEveryBlockResolvesAgainstItsModel is the model-coverage integration
// test: every generated instruction must have a machine-model entry.
func TestEveryBlockResolvesAgainstItsModel(t *testing.T) {
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range full {
		m := uarch.MustGet(tb.Config.Arch)
		for i := range tb.Block.Instrs {
			eff := isa.InstrEffects(&tb.Block.Instrs[i], m.Dialect)
			if _, err := m.LookupEff(&tb.Block.Instrs[i], &eff); err != nil {
				t.Errorf("%s: instr %d: %v", tb.Block.Name, i, err)
			}
		}
	}
}

// TestLowerBoundProperty is the central correctness property of the whole
// reproduction: the analyzer's prediction must be a lower bound on the
// simulated measurement for every block — except for the two documented
// hardware quirks the paper itself discusses (Gauss-Seidel on V2, π on
// Zen 4).
func TestLowerBoundProperty(t *testing.T) {
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	an := core.New()
	for _, tb := range full {
		quirk := (tb.Kernel.Name == "gs2d5" && tb.Config.Arch == "neoversev2") ||
			(tb.Kernel.Name == "pi" && tb.Config.Arch == "zen4")
		if quirk {
			continue
		}
		m := uarch.MustGet(tb.Config.Arch)
		res, err := an.Analyze(tb.Block, m)
		if err != nil {
			t.Fatalf("%s: %v", tb.Block.Name, err)
		}
		meas, err := sim.Run(tb.Block, m, sim.DefaultConfig(m))
		if err != nil {
			t.Fatalf("%s: %v", tb.Block.Name, err)
		}
		if pred := res.Prediction; pred > meas.CyclesPerIter*1.02+0.05 {
			t.Errorf("%s: prediction %.2f exceeds measurement %.2f",
				tb.Block.Name, pred, meas.CyclesPerIter)
		}
	}
}

func TestElemsPerIter(t *testing.T) {
	k, _ := ByName("add")
	// gcc O1: scalar rolled.
	if n := ElemsPerIter(k, Config{Target: target("goldencove"), Compiler: GCC, Opt: O1}); n != 1 {
		t.Errorf("gcc O1 elems = %d, want 1", n)
	}
	// gcc O3 on GLC: 512-bit x unroll 2 = 16.
	if n := ElemsPerIter(k, Config{Target: target("goldencove"), Compiler: GCC, Opt: O3}); n != 16 {
		t.Errorf("gcc O3 elems = %d, want 16", n)
	}
	// clang O3 on GLC: 256-bit x unroll 4 = 16.
	if n := ElemsPerIter(k, Config{Target: target("goldencove"), Compiler: Clang, Opt: O3}); n != 16 {
		t.Errorf("clang O3 elems = %d, want 16", n)
	}
	// armclang O2 (SVE rolled): 2.
	if n := ElemsPerIter(k, Config{Target: target("neoversev2"), Compiler: ArmClang, Opt: O2}); n != 2 {
		t.Errorf("armclang O2 elems = %d, want 2", n)
	}
}

func TestVectorizationPolicy(t *testing.T) {
	sum, _ := ByName("sum")
	// Reductions need -Ofast to vectorize.
	b3, err := Generate(sum, Config{Target: target("goldencove"), Compiler: GCC, Opt: O3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b3.Text(), "zmm") {
		t.Error("sum at O3 must stay scalar (strict FP)")
	}
	bf, err := Generate(sum, Config{Target: target("goldencove"), Compiler: GCC, Opt: Ofast})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bf.Text(), "zmm") {
		t.Error("sum at Ofast must vectorize")
	}
	// Gauss-Seidel never vectorizes.
	gs, _ := ByName("gs2d5")
	bgs, err := Generate(gs, Config{Target: target("goldencove"), Compiler: GCC, Opt: Ofast})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(bgs.Text(), "zmm") || strings.Contains(bgs.Text(), "ymm0,") {
		t.Error("gs2d5 must never vectorize")
	}
}

func TestGSShapes(t *testing.T) {
	gs, _ := ByName("gs2d5")
	// O1: memory round trip (negative-displacement reload).
	o1, err := Generate(gs, Config{Target: target("goldencove"), Compiler: GCC, Opt: O1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(o1.Text(), "-8(%rsi") {
		t.Errorf("GS O1 must reload phi[i-1] from memory:\n%s", o1.Text())
	}
	// O2: register-carried chain, no reload.
	o2, err := Generate(gs, Config{Target: target("goldencove"), Compiler: GCC, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(o2.Text(), "-8(%rsi") {
		t.Errorf("GS O2 must carry phi in a register:\n%s", o2.Text())
	}
	// Ofast: FMA-contracted.
	of, err := Generate(gs, Config{Target: target("goldencove"), Compiler: GCC, Opt: Ofast})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(of.Text(), "vfmadd") {
		t.Errorf("GS Ofast must contract to FMA:\n%s", of.Text())
	}
}

func TestCompilerIdioms(t *testing.T) {
	add, _ := ByName("add")
	// gcc uses indexed addressing, clang pointer bumps.
	gcc, err := Generate(add, Config{Target: target("zen4"), Compiler: GCC, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gcc.Text(), "%rax,8)") {
		t.Errorf("gcc must use indexed addressing:\n%s", gcc.Text())
	}
	clang, err := Generate(add, Config{Target: target("zen4"), Compiler: Clang, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clang.Text(), "%rax,8)") {
		t.Errorf("clang must use pointer bumps:\n%s", clang.Text())
	}
	// armclang uses SVE with whilelo for streams.
	arm, err := Generate(add, Config{Target: target("neoversev2"), Compiler: ArmClang, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(arm.Text(), "whilelo") {
		t.Errorf("armclang streams must use whilelo SVE loops:\n%s", arm.Text())
	}
	// armclang stencils fall back to NEON.
	j, _ := ByName("j2d5")
	armj, err := Generate(j, Config{Target: target("neoversev2"), Compiler: ArmClang, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(armj.Text(), "whilelo") {
		t.Errorf("armclang stencils must use NEON:\n%s", armj.Text())
	}
}

func TestStencilLoadCounts(t *testing.T) {
	counts := map[string]int{"j2d5": 4, "j3d7": 6, "j3d11": 11, "j3d27": 27}
	for name, want := range counts {
		k, _ := ByName(name)
		b, err := Generate(k, Config{Target: target("goldencove"), Compiler: GCC, Opt: O1})
		if err != nil {
			t.Fatal(err)
		}
		m := uarch.MustGet("goldencove")
		loads := 0
		for i := range b.Instrs {
			eff := isa.InstrEffects(&b.Instrs[i], m.Dialect)
			loads += len(eff.LoadOps)
		}
		if loads != want {
			t.Errorf("%s scalar loads = %d, want %d:\n%s", name, loads, want, b.Text())
		}
	}
}

// TestGenerateUnknownArch: a key no registry knows still generates, from
// its target alone; only the block name's suffix tells it apart.
func TestGenerateUnknownArch(t *testing.T) {
	k, _ := ByName("add")
	gc := target("goldencove")
	want, err := Generate(k, Config{Target: gc, Compiler: GCC, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	gc.Arch = "gc2"
	got, err := Generate(k, Config{Target: gc, Compiler: GCC, Opt: O2})
	if err != nil {
		t.Fatalf("re-keyed target: %v", err)
	}
	if got.Name != "add-gcc-O2-gc2" || got.Arch != "gc2" || got.Text() != want.Text() {
		t.Errorf("re-keyed block %s (%s) differs from %s:\n%s\n%s", got.Name, got.Arch, want.Name, got.Text(), want.Text())
	}
	if _, err := Generate(nil, Config{}); err == nil {
		t.Error("nil kernel must error")
	}
}

func TestAllBlocksValidate(t *testing.T) {
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range full {
		if err := tb.Block.Validate(); err != nil {
			t.Errorf("%s: %v", tb.Block.Name, err)
		}
		if tb.ElemsPerIter <= 0 {
			t.Errorf("%s: ElemsPerIter = %d", tb.Block.Name, tb.ElemsPerIter)
		}
	}
}

func TestPiHasDivide(t *testing.T) {
	pi, _ := ByName("pi")
	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		for _, comp := range target(arch).Compilers() {
			b, err := Generate(pi, Config{Target: target(arch), Compiler: comp, Opt: O2})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.Text(), "div") {
				t.Errorf("pi %s/%s has no divide:\n%s", arch, comp, b.Text())
			}
		}
	}
}
