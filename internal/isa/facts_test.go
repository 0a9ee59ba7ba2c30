package isa

import (
	"strings"
	"testing"
)

// factRows pins the mnemonic facts: every mnemonic a built-in model lists
// (TestFactRowsCoverModels checks that from outside the package) plus the
// FMA-family spellings no model lists. fp is ClassifyFP's answer and acc
// the accumulator operand FMAAccumulator reads.
var factRows = []struct {
	fp  FPClass
	acc accOperand
	mns string
}{
	{FPFMA, accDest, "fmla fmls vfmadd132pd vfmadd213pd vfmadd213sd vfmadd231pd vfmadd231ps " +
		"vfmadd231sd vfmadd231ss vfnmadd231pd vfnmadd231sd vfmsub231pd"},
	{FPFMA, accAddend, "fmadd fmsub fnmadd fnmsub"},
	// SVE ordered reduction: FMA class, no accumulator edge.
	{FPFMA, accNone, "fadda"},
	// Integer divides share the divider; sqrt runs on it too.
	{FPDiv, accNone, "divpd divsd fdiv fdivr fsqrt sdiv sqrtsd udiv vdivpd vdivps vdivsd vdivss vsqrtpd vsqrtsd"},
	{FPAdd, accNone, "addpd addsd fadd faddp fsub vaddpd vaddps vaddsd vaddss vsubpd vsubps vsubsd"},
	{FPMul, accNone, "fmul mulpd mulsd vmulpd vmulps vmulsd vmulss"},
	// vfnmsub231pd, madd and msub are catFMA for their effects but carry
	// neither FP class nor accumulator. The two-operand SSE subpd/subsd
	// have no FP class either: only their add spelling is matched.
	{FPNone, accNone, "vfnmsub231pd madd msub subpd subsd " +
		"add addl addq adds adr adrp and andq asr b b.any b.cc b.eq b.first b.ge b.gt b.le b.lt b.ne " +
		"bsl cbnz cbz cmeq cmgt cmn cmp cmpl cmpq cntd cntw csel csinc dec decq dup eor fabs faddv fcmp " +
		"fcvt fcvtl fcvtn fcvtzs fmax fmaxp fmin fmov fneg imul imulq inc incd incq incw index jae jb je " +
		"jg jge jl jle jmp jne jnz kandw kmovw korw ld1 ld1d ld1rd ldp ldr ldur lea leaq lsl lsr mov " +
		"movabs movapd movk movl movntpd movq movsd movupd movz mul neg negq nop or orq orr pfalse ptrue " +
		"ret rev64 sal salq sar sarq scvtf shl shlq shr shrq sshr st1 st1d stnp stp str stur sub subq " +
		"subs tbl test testq trn1 tst ucomisd ucvtf unpckhpd uzp1 vblendvpd vbroadcastsd vcvtdq2pd " +
		"vcvtpd2ps vcvtps2pd vcvtsi2sd vcvtsi2sdq vcvttpd2dq vextractf128 vextractf64x4 vgatherqpd " +
		"vinsertf128 vmaxpd vmaxsd vminpd vminsd vmovapd vmovntpd vmovsd vmovupd vmovups vpaddd vpaddq " +
		"vpand vpbroadcastd vpcmpeqd vperm2f128 vpermilpd vpermpd vpmulld vpor vpsllq vpsrlq vpsubq " +
		"vpxor vshufpd vucomisd vunpckhpd vxorpd whilelo whilelt xor xorq zip1"},
}

// FactRowMnemonics lists every mnemonic factRows pins.
func FactRowMnemonics() []string {
	var mns []string
	for _, r := range factRows {
		mns = append(mns, strings.Fields(r.mns)...)
	}
	return mns
}

func TestMnemonicFacts(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range factRows {
		for _, mn := range strings.Fields(r.mns) {
			if seen[mn] {
				t.Errorf("%s: listed twice", mn)
			}
			seen[mn] = true
			if got := ClassifyFP(mn); got != r.fp {
				t.Errorf("ClassifyFP(%q) = %d, want %d", mn, got, r.fp)
			}
			if _, acc := fmaFamily(mn); acc != r.acc {
				t.Errorf("%s: accumulator operand %d, want %d", mn, acc, r.acc)
			}
		}
	}
	// Every FMA-family row, and the integer multiply-adds, read their
	// accumulator or addend as catFMA.
	for _, mn := range []string{"vfmadd231pd", "vfmsub231pd", "vfnmadd231pd", "vfnmsub231pd"} {
		if c := categorizeX86(mn); c != catFMA {
			t.Errorf("categorizeX86(%q) = %d, want catFMA", mn, c)
		}
	}
	for _, mn := range []string{"fmla", "fmls", "fmadd", "fnmsub", "fadda", "madd", "msub"} {
		if c := categorizeAArch64(mn); c != catFMA {
			t.Errorf("categorizeAArch64(%q) = %d, want catFMA", mn, c)
		}
	}
}

func regKey(t *testing.T, d Dialect, name string) RegKey {
	t.Helper()
	r := ParseAArch64Register(name)
	if d == DialectX86 {
		r = ParseX86Register(name)
	}
	if !r.Valid() {
		t.Fatalf("no register %q", name)
	}
	return r.Key()
}

func TestFMAAccumulator(t *testing.T) {
	x86, a64 := DialectX86, DialectAArch64
	for _, c := range []struct {
		d    Dialect
		src  string
		want string // accumulator register name, "" for none
	}{
		{x86, "vfmadd231pd %zmm1, %zmm2, %zmm0", "zmm0"},
		{x86, "vfmsub231pd %ymm1, %ymm2, %ymm3", "ymm3"},
		{x86, "vfnmadd231pd %zmm1, %zmm2, %zmm4", "zmm4"},
		{x86, "vfnmsub231pd %zmm1, %zmm2, %zmm4", ""},
		{x86, "vfmadd231sd (%rsi), %xmm2, %xmm5", "xmm5"},
		{x86, "vaddpd %zmm1, %zmm2, %zmm3", ""},
		{a64, "fmla v0.2d, v1.2d, v2.2d", "v0"},
		{a64, "fmls z3.d, p0/m, z1.d, z2.d", "z3"},
		{a64, "fmadd d0, d1, d2, d3", "d3"},
		{a64, "fnmsub d0, d1, d2, d0", "d0"},
		{a64, "fmadd d0, d1, d2", ""},
		{a64, "fadda d0, p0, d0, z1.d", ""},
		{a64, "madd x0, x1, x2, x0", ""},
	} {
		in := &mustParse(t, c.d, c.src).Instrs[0]
		key, ok := FMAAccumulator(in, c.d)
		want := RegKey{}
		if c.want != "" {
			want = regKey(t, c.d, c.want)
		}
		if ok != (c.want != "") || key != want {
			t.Errorf("FMAAccumulator(%s) = %v, %v; want %v, %v", c.src, key, ok, want, c.want != "")
		}
	}
}

func TestVecWidthAndScalarDiv(t *testing.T) {
	x86, a64 := DialectX86, DialectAArch64
	for _, c := range []struct {
		d         Dialect
		src       string
		width     int
		scalarDiv bool
	}{
		{x86, "vdivsd %xmm1, %xmm2, %xmm3", 128, true},
		{x86, "vdivpd %zmm1, %zmm2, %zmm3", 512, false},
		{x86, "vdivpd %ymm1, %ymm2, %ymm3", 256, false},
		{x86, "divsd %xmm1, %xmm2", 128, true},
		{x86, "vsqrtsd %xmm1, %xmm2, %xmm3", 128, false},
		{x86, "vaddpd %xmm1, %ymm2, %zmm3", 512, false},
		{x86, "addq %rax, %rbx", 0, false},
		{a64, "fdiv d0, d1, d2", 64, true},
		{a64, "fdiv v0.2d, v1.2d, v2.2d", 128, false},
		{a64, "sdiv x0, x1, x2", 0, true},
		{a64, "ldr q0, [x1]", 128, false},
	} {
		in := &mustParse(t, c.d, c.src).Instrs[0]
		if got := in.VecWidth(); got != c.width {
			t.Errorf("VecWidth(%s) = %d, want %d", c.src, got, c.width)
		}
		if got := ScalarDiv(in); got != c.scalarDiv {
			t.Errorf("ScalarDiv(%s) = %v, want %v", c.src, got, c.scalarDiv)
		}
	}
}

func TestAddrRegs(t *testing.T) {
	x86, a64 := DialectX86, DialectAArch64
	for _, c := range []struct {
		d    Dialect
		src  string
		want string // register names in order
	}{
		// Loads before stores, base before index, no repeats.
		{x86, "vaddsd 8(%rsi,%rax,8), %xmm1, %xmm1", "rsi rax"},
		{x86, "addq %rbx, (%rdi,%rax,8)", "rdi rax"},
		{x86, "vmovsd (%rsi,%rax,8), %xmm1", "rsi rax"},
		{x86, "vmovsd %xmm1, (%rdi)", "rdi"},
		{x86, "addq %rax, %rbx", ""},
		// A gather's vector index is data.
		{x86, "vgatherqpd (%rsi,%zmm1,8), %zmm2{%k1}", "rsi"},
		{a64, "ld1d {z0.d}, p0/z, [x1, z2.d, lsl #3]", "x1"},
		{a64, "ldr d0, [x1, x2, lsl #3]", "x1 x2"},
		{a64, "ldp d0, d1, [x1], #16", "x1"},
		{a64, "str d0, [x1, xzr]", "x1"},
	} {
		b := mustParse(t, c.d, c.src)
		eff := InstrEffects(&b.Instrs[0], c.d)
		var want []RegKey
		for _, name := range strings.Fields(c.want) {
			want = append(want, regKey(t, c.d, name))
		}
		got := eff.AddrRegs(nil)
		if len(got) != len(want) {
			t.Errorf("AddrRegs(%s) = %v, want %v", c.src, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("AddrRegs(%s) = %v, want %v", c.src, got, want)
				break
			}
		}
	}
}

// TestStoreLoadDeps pins the store→load alias relation on a store at
// instruction 0 and a load at instruction 1 (or the reverse).
func TestStoreLoadDeps(t *testing.T) {
	gpr := func(id int) Register { return Register{Class: ClassGPR, ID: id, Width: 64} }
	base, idx, other := gpr(6), gpr(0), gpr(1)
	type dep struct {
		store, load int
		carried     bool
	}
	for _, c := range []struct {
		name      string
		st, ld    MemOp
		loadFirst bool
		window    int64
		want      []dep
	}{
		{name: "Δ=0, store first", st: MemOp{Base: base}, ld: MemOp{Base: base},
			window: 64, want: []dep{{0, 1, false}}},
		{name: "Δ=0, load first", st: MemOp{Base: base}, ld: MemOp{Base: base},
			loadFirst: true, window: 64},
		{name: "Δ=64 carried", st: MemOp{Base: base, Disp: 64}, ld: MemOp{Base: base},
			window: 64, want: []dep{{0, 1, true}}},
		{name: "Δ=64 carried, load first", st: MemOp{Base: base, Disp: 72}, ld: MemOp{Base: base, Disp: 8},
			loadFirst: true, window: 64, want: []dep{{1, 0, true}}},
		{name: "Δ=65 outside", st: MemOp{Base: base, Disp: 65}, ld: MemOp{Base: base},
			window: 64},
		{name: "negative Δ", st: MemOp{Base: base}, ld: MemOp{Base: base, Disp: 8},
			window: 64},
		{name: "same index", st: MemOp{Base: base, Index: idx, Disp: 8}, ld: MemOp{Base: base, Index: idx},
			window: 64, want: []dep{{0, 1, true}}},
		{name: "different index", st: MemOp{Base: base, Index: idx}, ld: MemOp{Base: base, Index: other},
			window: 64},
		{name: "index on store only", st: MemOp{Base: base, Index: idx}, ld: MemOp{Base: base},
			window: 64},
		{name: "index on load only", st: MemOp{Base: base}, ld: MemOp{Base: base, Index: idx},
			window: 64},
		{name: "different base", st: MemOp{Base: base}, ld: MemOp{Base: other},
			window: 64},
		{name: "missing base", st: MemOp{Index: idx}, ld: MemOp{Index: idx},
			window: 64},
		{name: "window 0", st: MemOp{Base: base}, ld: MemOp{Base: base},
			window: 0},
		{name: "window 8", st: MemOp{Base: base, Disp: 16}, ld: MemOp{Base: base},
			window: 8},
	} {
		st, ld := c.st, c.ld
		effs := []Effects{{StoreOps: []*MemOp{&st}}, {LoadOps: []*MemOp{&ld}}}
		if c.loadFirst {
			effs[0], effs[1] = effs[1], effs[0]
		}
		var got []dep
		StoreLoadDeps(effs, c.window, func(s, l int, carried bool) {
			got = append(got, dep{s, l, carried})
		})
		if len(got) != len(c.want) || len(got) > 0 && got[0] != c.want[0] {
			t.Errorf("%s: deps %v, want %v", c.name, got, c.want)
		}
	}
	if MemCarriedWindow != 64 {
		t.Errorf("MemCarriedWindow = %d, want one 64-byte cache line", MemCarriedWindow)
	}
}
