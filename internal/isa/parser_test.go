package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, d Dialect, src string) *Block {
	t.Helper()
	b, err := ParseBlock("test", "arch", d, src)
	if err != nil {
		t.Fatalf("ParseBlock: %v", err)
	}
	return b
}

func TestParseX86Basic(t *testing.T) {
	b := mustParse(t, DialectX86, `
.L0:
	vmovupd (%rsi,%rax,8), %zmm0
	vaddpd 64(%rdx,%rax,8), %zmm0, %zmm1
	vmovupd %zmm1, (%rdi,%rax,8)
	addq $16, %rax
	cmpq %rcx, %rax
	jne .L0
`)
	if b.Len() != 6 {
		t.Fatalf("want 6 instructions, got %d", b.Len())
	}
	if b.Instrs[0].Label != ".L0" {
		t.Errorf("first instruction label = %q", b.Instrs[0].Label)
	}
	ld := b.Instrs[0]
	if ld.Mnemonic != "vmovupd" || ld.Operands[0].Kind != OpMem {
		t.Errorf("load parse wrong: %+v", ld)
	}
	mem := ld.Operands[0].Mem
	if mem.Base.Name != "rsi" || mem.Index.Name != "rax" || mem.Scale != 8 {
		t.Errorf("mem operand wrong: %+v", mem)
	}
	add := b.Instrs[1]
	if add.Operands[0].Mem.Disp != 64 {
		t.Errorf("displacement = %d, want 64", add.Operands[0].Mem.Disp)
	}
	if b.Instrs[3].Operands[0].Imm != 16 {
		t.Errorf("immediate = %d, want 16", b.Instrs[3].Operands[0].Imm)
	}
	if b.Instrs[5].Operands[0].Kind != OpLabel {
		t.Errorf("branch target should be a label")
	}
}

func TestParseX86Comments(t *testing.T) {
	b := mustParse(t, DialectX86, `
	# full-line comment
	addq $1, %rax  # trailing comment
	subq $1, %rax  // another style
`)
	if b.Len() != 2 {
		t.Fatalf("want 2 instructions, got %d", b.Len())
	}
}

func TestParseX86Negative(t *testing.T) {
	b := mustParse(t, DialectX86, "\tvmovsd -8(%rsi,%rax,8), %xmm0\n")
	if b.Instrs[0].Operands[0].Mem.Disp != -8 {
		t.Errorf("negative displacement parse failed: %+v", b.Instrs[0].Operands[0].Mem)
	}
}

func TestParseX86Hex(t *testing.T) {
	b := mustParse(t, DialectX86, "\taddq $0x40, %rax\n")
	if b.Instrs[0].Operands[0].Imm != 64 {
		t.Errorf("hex immediate = %d", b.Instrs[0].Operands[0].Imm)
	}
}

func TestParseX86Gather(t *testing.T) {
	b := mustParse(t, DialectX86, "\tvgatherqpd (%rsi,%zmm1,8), %zmm0\n")
	in := b.Instrs[0]
	if in.Operands[0].Mem.Index.Class != ClassVec {
		t.Errorf("gather index must be a vector register: %+v", in.Operands[0].Mem)
	}
	// Mask-annotated form.
	b2 := mustParse(t, DialectX86, "\tvgatherqpd (%rsi,%zmm1,8), %zmm0 {%k1}\n")
	if b2.Instrs[0].Operands[1].Reg.Name != "zmm0" {
		t.Errorf("masked gather dest parse failed: %+v", b2.Instrs[0].Operands[1])
	}
}

func TestParseX86Errors(t *testing.T) {
	for _, src := range []string{
		"\tvaddpd %badreg, %ymm0, %ymm1\n",
		"\tmovq $zzz, %rax\n",
		"\tvmovupd (%nope), %ymm0\n",
	} {
		if _, err := ParseBlock("bad", "a", DialectX86, src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseAArch64Basic(t *testing.T) {
	b := mustParse(t, DialectAArch64, `
.L0:
	ldr q0, [x1, x3]
	fadd v0.2d, v0.2d, v1.2d
	str q0, [x0, x3]
	add x3, x3, #16
	cmp x3, x4
	b.ne .L0
`)
	if b.Len() != 6 {
		t.Fatalf("want 6 instructions, got %d", b.Len())
	}
	ld := b.Instrs[0]
	if ld.Operands[1].Kind != OpMem || ld.Operands[1].Mem.Base.Name != "x1" || ld.Operands[1].Mem.Index.Name != "x3" {
		t.Errorf("ldr mem operand: %+v", ld.Operands[1])
	}
	if b.Instrs[3].Operands[2].Imm != 16 {
		t.Errorf("aarch64 immediate = %d", b.Instrs[3].Operands[2].Imm)
	}
}

func TestParseAArch64HashNotComment(t *testing.T) {
	b := mustParse(t, DialectAArch64, "\tldr d0, [x1, x3, lsl #3]\n")
	if b.Instrs[0].Operands[1].Mem.Scale != 8 {
		t.Errorf("lsl #3 must scale by 8: %+v", b.Instrs[0].Operands[1].Mem)
	}
}

func TestParseAArch64SVE(t *testing.T) {
	b := mustParse(t, DialectAArch64, `
	ld1d { z0.d }, p0/z, [x1, x3, lsl #3]
	fmla z2.d, p0/m, z0.d, z1.d
	st1d { z2.d }, p0, [x0, x3, lsl #3]
	incd x3
	whilelo p0.d, x3, x4
	b.first .L0
`)
	ld := b.Instrs[0]
	if ld.Operands[0].Reg.Name != "z0" {
		t.Errorf("register list parse: %+v", ld.Operands[0])
	}
	if ld.Operands[1].Reg.Class != ClassPred {
		t.Errorf("predicate parse: %+v", ld.Operands[1])
	}
	if ld.Ext != ExtSVE {
		t.Errorf("ld1d ext = %v, want sve", ld.Ext)
	}
}

func TestParseAArch64Gather(t *testing.T) {
	b := mustParse(t, DialectAArch64, "\tld1d { z0.d }, p0/z, [x1, z1.d]\n")
	mem := b.Instrs[0].Operands[2].Mem
	if mem.Index.Class != ClassVec {
		t.Errorf("gather index must be a vector: %+v", mem)
	}
}

func TestParseAArch64PrePostIndex(t *testing.T) {
	pre := mustParse(t, DialectAArch64, "\tldr d0, [x1, #8]!\n")
	if !pre.Instrs[0].Operands[1].Mem.PreIndex {
		t.Error("pre-index not detected")
	}
	post := mustParse(t, DialectAArch64, "\tldr d0, [x1], #8\n")
	m := post.Instrs[0].Operands[1].Mem
	if !m.PostIndex || m.Disp != 8 {
		t.Errorf("post-index not detected: %+v", m)
	}
}

func TestParseAArch64Negative(t *testing.T) {
	b := mustParse(t, DialectAArch64, "\tldur d0, [x1, #-8]\n")
	if b.Instrs[0].Operands[1].Mem.Disp != -8 {
		t.Errorf("ldur disp = %d", b.Instrs[0].Operands[1].Mem.Disp)
	}
}

func TestExtClassificationX86(t *testing.T) {
	cases := map[string]Ext{
		"\tvaddpd %zmm1, %zmm2, %zmm3\n":      ExtAVX512,
		"\tvaddpd %ymm1, %ymm2, %ymm3\n":      ExtAVX,
		"\tvaddpd %xmm1, %xmm2, %xmm3\n":      ExtAVX,
		"\taddpd %xmm1, %xmm2\n":              ExtSSE,
		"\tvaddsd %xmm1, %xmm2, %xmm3\n":      ExtScalar,
		"\taddq $1, %rax\n":                   ExtScalar,
		"\tvmovntpd %zmm0, (%rdi)\n":          ExtAVX512,
		"\tvmovupd %ymm0, (%rdi)\n":           ExtAVX,
		"\tvfmadd231sd %xmm0, %xmm1, %xmm2\n": ExtScalar,
	}
	for src, want := range cases {
		b := mustParse(t, DialectX86, src)
		if got := b.Instrs[0].Ext; got != want {
			t.Errorf("%q ext = %v, want %v", strings.TrimSpace(src), got, want)
		}
	}
}

func TestExtClassificationAArch64(t *testing.T) {
	cases := map[string]Ext{
		"\tfadd v0.2d, v1.2d, v2.2d\n": ExtNEON,
		"\tfadd z0.d, z1.d, z2.d\n":    ExtSVE,
		"\tfadd d0, d1, d2\n":          ExtScalar,
		"\tadd x0, x1, x2\n":           ExtScalar,
		"\tptrue p0.d\n":               ExtSVE,
		"\tldr q0, [x0]\n":             ExtNEON,
	}
	for src, want := range cases {
		b := mustParse(t, DialectAArch64, src)
		if got := b.Instrs[0].Ext; got != want {
			t.Errorf("%q ext = %v, want %v", strings.TrimSpace(src), got, want)
		}
	}
}

func TestNonTemporalDetection(t *testing.T) {
	nt := mustParse(t, DialectX86, "\tvmovntpd %zmm0, (%rdi)\n")
	if !nt.Instrs[0].Operands[1].Mem.NonTemporal {
		t.Error("vmovntpd must be non-temporal")
	}
	std := mustParse(t, DialectX86, "\tvmovupd %zmm0, (%rdi)\n")
	if std.Instrs[0].Operands[1].Mem.NonTemporal {
		t.Error("vmovupd must not be non-temporal")
	}
	stnp := mustParse(t, DialectAArch64, "\tstnp q0, q1, [x0]\n")
	if !stnp.Instrs[0].Operands[2].Mem.NonTemporal {
		t.Error("stnp must be non-temporal")
	}
}

// TestRoundTripX86 checks that rendering a parsed block and re-parsing it
// yields the same structure.
func TestRoundTripX86(t *testing.T) {
	src := `
.L0:
	vmovupd (%rsi,%rax,8), %zmm0
	vfmadd231pd 64(%rdx,%rax,8), %zmm15, %zmm0
	vmovupd %zmm0, (%rdi,%rax,8)
	addq $8, %rax
	cmpq %rbx, %rax
	jne .L0
`
	b1 := mustParse(t, DialectX86, src)
	b2, err := ParseBlock("rt", "a", DialectX86, b1.Text())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if b1.Len() != b2.Len() {
		t.Fatalf("round trip changed length: %d -> %d", b1.Len(), b2.Len())
	}
	for i := range b1.Instrs {
		if b1.Instrs[i].Mnemonic != b2.Instrs[i].Mnemonic {
			t.Errorf("instr %d mnemonic %q -> %q", i, b1.Instrs[i].Mnemonic, b2.Instrs[i].Mnemonic)
		}
		if len(b1.Instrs[i].Operands) != len(b2.Instrs[i].Operands) {
			t.Errorf("instr %d operand count changed", i)
		}
	}
}

// TestParseIntQuick property-tests the integer scanner against Go's
// formatting.
func TestParseIntQuick(t *testing.T) {
	f := func(v int64) bool {
		if v == -9223372036854775808 {
			return true // -v overflows; out of scope for assembly immediates
		}
		got, err := parseInt(formatInt(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func formatInt(v int64) string {
	if v < 0 {
		return "-" + formatUint(uint64(-v))
	}
	return formatUint(uint64(v))
}

func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestSplitOperandsRespectsBrackets(t *testing.T) {
	got := splitOperands(nil, "d0, [x1, x3, lsl #3], #8")
	if len(got) != 3 {
		t.Fatalf("splitOperands = %v", got)
	}
	if got[1] != "[x1, x3, lsl #3]" {
		t.Errorf("bracketed operand split: %q", got[1])
	}
	got = splitOperands(nil, "(%rsi,%rax,8), %zmm0")
	if len(got) != 2 {
		t.Fatalf("splitOperands paren = %v", got)
	}
}
