// Package kernels defines the paper's 13 streaming/stencil validation
// kernels and generates their assembly loop bodies for every combination
// of microarchitecture, compiler, and optimization level used in the
// paper's Fig. 3 study:
//
//	13 kernels x {gcc, armclang} x {O1,O2,O3,Ofast}            on Grace
//	13 kernels x {gcc, clang, icx} x {O1,O2,O3,Ofast}          on SPR
//	13 kernels x {gcc, clang, icx} x {O1,O2,O3,Ofast}          on Genoa
//
// = 416 test blocks, matching the paper's count. The "compilers" are code
// generators that reproduce each compiler's characteristic idioms:
// vectorization policy, unrolling, FMA contraction, addressing style, and
// reduction accumulator counts. Blocks are emitted as assembly text and
// parsed through package isa, so the generator also exercises the parsers.
package kernels

import (
	"fmt"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// Compiler identifies a code-generation personality.
type Compiler string

// Supported compilers per the paper's methodology section.
const (
	GCC      Compiler = "gcc"
	Clang    Compiler = "clang"
	ICX      Compiler = "icx"
	ArmClang Compiler = "armclang"
)

// Target is what the generator reads from a machine model: the key that
// suffixes block names, the dialect that picks the emitter and the
// compilers, and the widest vector width of its instruction entries.
type Target struct {
	Arch    string
	Dialect isa.Dialect
	VecBits int
}

// TargetOf reads m's target once; a suite generates every block from it.
func TargetOf(m *uarch.Model) Target {
	t := Target{Arch: m.Key, Dialect: m.Dialect}
	for i := range m.Entries {
		t.VecBits = max(t.VecBits, m.Entries[i].Width)
	}
	return t
}

// Compilers returns the compilers the paper used on the target's ISA.
func (t Target) Compilers() []Compiler {
	if t.Dialect == isa.DialectAArch64 {
		return []Compiler{GCC, ArmClang}
	}
	return []Compiler{GCC, Clang, ICX}
}

// vecBits is the vector width compiler c targets on t: the machine's
// widest, capped by the code generator. clang prefers 256-bit vectors on
// x86 (-mprefer-vector-width=256), and the AArch64 emitter writes 128-bit
// NEON and SVE. No target gets less than the 128-bit vectors every
// x86-64 and AArch64 core has.
func vecBits(t Target, c Compiler) int {
	limit := 512
	switch {
	case t.Dialect == isa.DialectAArch64:
		limit = 128
	case c == Clang:
		limit = 256
	}
	return max(128, min(t.VecBits, limit))
}

// OptLevel is a compiler optimization level.
type OptLevel int

// Optimization levels used in the paper.
const (
	O1 OptLevel = iota + 1
	O2
	O3
	Ofast
)

// String returns the flag spelling.
func (o OptLevel) String() string {
	switch o {
	case O1:
		return "O1"
	case O2:
		return "O2"
	case O3:
		return "O3"
	case Ofast:
		return "Ofast"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(o))
	}
}

// AllOptLevels lists the four levels of the study.
func AllOptLevels() []OptLevel { return []OptLevel{O1, O2, O3, Ofast} }

// Kind discriminates kernel code shapes.
type Kind int

// Kernel kinds.
const (
	KindCopy Kind = iota
	KindInit
	KindUpdate
	KindAdd
	KindStriad
	KindSchTriad
	KindSum
	KindPi
	KindJ2D5
	KindJ3D7
	KindJ3D11
	KindJ3D27
	KindGS2D5
)

// Kernel describes one validation kernel.
type Kernel struct {
	Name string
	// Doc is the C-level loop body.
	Doc  string
	Kind Kind
	// FlopsPerElem counts adds+muls (divs listed separately).
	AddsPerElem, MulsPerElem, DivsPerElem int
	// Vectorizable marks kernels compilers can vectorize at all.
	Vectorizable bool
	// NeedsFastMath marks kernels that vectorize only under -Ofast
	// (reductions: FP reassociation required).
	NeedsFastMath bool
}

// Kernels is the paper's 13-kernel validation set (Sec. II).
var Kernels = []Kernel{
	{Name: "copy", Doc: "a[i] = b[i]", Kind: KindCopy,
		Vectorizable: true},
	{Name: "init", Doc: "a[i] = s", Kind: KindInit,
		Vectorizable: true},
	{Name: "update", Doc: "a[i] = s*a[i]", Kind: KindUpdate,
		MulsPerElem: 1, Vectorizable: true},
	{Name: "add", Doc: "a[i] = b[i] + c[i]", Kind: KindAdd,
		AddsPerElem: 1, Vectorizable: true},
	{Name: "striad", Doc: "a[i] = b[i] + s*c[i]", Kind: KindStriad,
		AddsPerElem: 1, MulsPerElem: 1, Vectorizable: true},
	{Name: "schtriad", Doc: "a[i] = b[i] + c[i]*d[i]", Kind: KindSchTriad,
		AddsPerElem: 1, MulsPerElem: 1, Vectorizable: true},
	{Name: "sum", Doc: "s += a[i]", Kind: KindSum,
		AddsPerElem: 1, Vectorizable: true, NeedsFastMath: true},
	{Name: "pi", Doc: "x = (i+0.5)*dx; s += 4.0/(1.0 + x*x)", Kind: KindPi,
		AddsPerElem: 3, MulsPerElem: 2, DivsPerElem: 1, Vectorizable: true, NeedsFastMath: true},
	{Name: "j2d5", Doc: "b[j][i] = 0.25*(a[j][i-1]+a[j][i+1]+a[j-1][i]+a[j+1][i])", Kind: KindJ2D5,
		AddsPerElem: 3, MulsPerElem: 1, Vectorizable: true},
	{Name: "j3d7", Doc: "b[k][j][i] = c*(a[k][j][i-1]+a[k][j][i+1]+a[k][j-1][i]+a[k][j+1][i]+a[k-1][j][i]+a[k+1][j][i])", Kind: KindJ3D7,
		AddsPerElem: 5, MulsPerElem: 1, Vectorizable: true},
	{Name: "j3d11", Doc: "11-point star stencil (center, i±1, i±2, j±1, j±2, k±1, k±2)", Kind: KindJ3D11,
		AddsPerElem: 10, MulsPerElem: 1, Vectorizable: true},
	{Name: "j3d27", Doc: "27-point box stencil", Kind: KindJ3D27,
		AddsPerElem: 26, MulsPerElem: 1, Vectorizable: true},
	{Name: "gs2d5", Doc: "phi[j][i] = 0.25*(phi[j][i-1]+phi[j][i+1]+phi[j-1][i]+phi[j+1][i]) (in place)", Kind: KindGS2D5,
		AddsPerElem: 3, MulsPerElem: 1, Vectorizable: false},
}

// ByName returns the kernel with the given name.
func ByName(name string) (*Kernel, error) {
	for i := range Kernels {
		if Kernels[i].Name == name {
			return &Kernels[i], nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", name)
}

// Config selects one generated variant.
type Config struct {
	Target
	Compiler Compiler
	Opt      OptLevel
}

// String names the variant by compiler and level ("gcc-O3").
func (c Config) String() string {
	return fmt.Sprintf("%s-%s", c.Compiler, c.Opt)
}

// genParams are the derived code-generation knobs.
type genParams struct {
	scalar  bool
	vecBits int // vector register width when !scalar
	unroll  int
	fma     bool
	accs    int  // reduction accumulators
	indexed bool // indexed vs pointer-bump addressing
	sve     bool
	foldMem bool // fold memory operands into arithmetic (x86)
	// Gauss-Seidel shape selectors (see emitGSX86/emitGSAArch64).
	gsMemRoundTrip bool // O1: carried value reloaded from memory
	gsFMA          bool // Ofast: FMA-contracted carried update
}

// deriveParams reproduces each compiler's code-generation policy.
func deriveParams(k *Kernel, cfg Config) genParams {
	p := genParams{scalar: true, unroll: 1, indexed: true}
	switch cfg.Compiler {
	case Clang:
		p.indexed = false
	case ArmClang:
		p.sve = true
	}
	p.foldMem = cfg.Compiler == GCC || cfg.Compiler == ICX

	if k.Vectorizable && cfg.Opt >= O2 && (!k.NeedsFastMath || cfg.Opt == Ofast) {
		p.scalar = false
		p.vecBits = vecBits(cfg.Target, cfg.Compiler)
	}

	// Unrolling policy: scalar loops stay rolled, and so do armclang's
	// whilelo-predicated SVE loops, reductions included, with one vector
	// accumulator. Loop-carried kernels cannot be unrolled profitably.
	if !p.scalar {
		switch cfg.Compiler {
		case GCC:
			if cfg.Opt >= O3 {
				p.unroll = 2
			}
		case Clang, ICX:
			p.unroll = 2
			if cfg.Opt >= O3 {
				p.unroll = 4
			}
		}
	}
	if k.Kind == KindGS2D5 {
		p.unroll = 1
		p.gsMemRoundTrip = cfg.Opt == O1
		p.gsFMA = cfg.Opt == Ofast
	}

	// FMA contraction.
	p.fma = cfg.Compiler == ICX || cfg.Opt >= O2

	// Reduction accumulators.
	p.accs = 1
	if (k.Kind == KindSum || k.Kind == KindPi) && !p.scalar {
		switch cfg.Compiler {
		case Clang:
			p.accs, p.unroll = 4, 4
		case GCC, ICX:
			p.accs, p.unroll = 2, 2
		}
	}
	p.unroll = max(p.unroll, p.accs)
	return p
}

// Generate emits the loop-body block for kernel k under cfg.
func Generate(k *Kernel, cfg Config) (*isa.Block, error) {
	if k == nil {
		return nil, fmt.Errorf("kernels: nil kernel")
	}
	p := deriveParams(k, cfg)
	name := k.Name + "-" + string(cfg.Compiler) + "-" + cfg.Opt.String() + "-" + cfg.Arch
	emit := emitX86
	if cfg.Dialect == isa.DialectAArch64 {
		emit = emitAArch64
	}
	text, err := emitText(emit, k, p)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", name, err)
	}
	b, err := isa.ParseBlock(name, cfg.Arch, cfg.Dialect, text)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s: generated assembly does not parse: %w", name, err)
	}
	return b, nil
}

// emitText runs emit into a pooled buffer and copies the body out once,
// as the source text the parser reads.
func emitText(emit func([]byte, *Kernel, genParams) ([]byte, error), k *Kernel, p genParams) (string, error) {
	bp := emitBufs.Get().(*[]byte)
	defer emitBufs.Put(bp)
	buf, err := emit((*bp)[:0], k, p)
	*bp = buf
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// ElemsPerIter returns how many scalar elements one generated loop
// iteration processes (for cycles-per-element normalization).
func ElemsPerIter(k *Kernel, cfg Config) int {
	p := deriveParams(k, cfg)
	lanes := 1
	if !p.scalar {
		lanes = p.vecBits / 64
	}
	return lanes * p.unroll
}
