package isa

import (
	"strings"
	"testing"
)

func TestDialectString(t *testing.T) {
	if DialectX86.String() != "x86" {
		t.Errorf("DialectX86.String() = %q", DialectX86.String())
	}
	if DialectAArch64.String() != "aarch64" {
		t.Errorf("DialectAArch64.String() = %q", DialectAArch64.String())
	}
	if !strings.Contains(Dialect(99).String(), "99") {
		t.Errorf("unknown dialect should include its number")
	}
}

func TestRegClassString(t *testing.T) {
	cases := map[RegClass]string{
		ClassNone: "none", ClassGPR: "gpr", ClassVec: "vec",
		ClassPred: "pred", ClassFlags: "flags", ClassIP: "ip",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestRegisterValidAndKey(t *testing.T) {
	var zero Register
	if zero.Valid() {
		t.Error("zero register must be invalid")
	}
	r := Register{Name: "rax", Class: ClassGPR, ID: 0, Width: 64}
	if !r.Valid() {
		t.Error("rax must be valid")
	}
	r32 := Register{Name: "eax", Class: ClassGPR, ID: 0, Width: 32}
	if r.Key() != r32.Key() {
		t.Error("rax and eax must alias (same key)")
	}
	v := Register{Name: "xmm0", Class: ClassVec, ID: 0, Width: 128}
	if r.Key() == v.Key() {
		t.Error("rax and xmm0 must not alias")
	}
}

func TestExtVectorBits(t *testing.T) {
	cases := map[Ext]int{
		ExtScalar: 64, ExtSSE: 128, ExtNEON: 128, ExtSVE: 128,
		ExtAVX: 256, ExtAVX512: 512,
	}
	for e, want := range cases {
		if got := e.VectorBits(); got != want {
			t.Errorf("%s.VectorBits() = %d, want %d", e, got, want)
		}
	}
}

func TestExtWider(t *testing.T) {
	for _, c := range []struct {
		e, o Ext
		want bool
	}{
		{ExtAVX512, ExtAVX, true},
		{ExtAVX, ExtSSE, true},
		{ExtSSE, ExtScalar, true},
		{ExtSVE, ExtNEON, true},
		{ExtNEON, ExtSVE, false},
		{ExtSVE, ExtSVE, false},
		{ExtScalar, ExtNEON, false},
	} {
		if got := c.e.Wider(c.o); got != c.want {
			t.Errorf("%s.Wider(%s) = %v, want %v", c.e, c.o, got, c.want)
		}
	}
}

func TestExtString(t *testing.T) {
	for _, e := range []Ext{ExtScalar, ExtSSE, ExtAVX, ExtAVX512, ExtNEON, ExtSVE} {
		if e.String() == "" || strings.Contains(e.String(), "Ext(") {
			t.Errorf("Ext %d has no proper name", e)
		}
	}
}

func TestInstructionIsBranch(t *testing.T) {
	branch := []string{"jne", "jmp", "je", "b", "b.ne", "cbz", "cbnz", "tbz", "tbnz", "ret"}
	for _, m := range branch {
		in := Instruction{Mnemonic: m}
		if !in.IsBranch() {
			t.Errorf("%s must be a branch", m)
		}
	}
	notBranch := []string{"add", "vaddpd", "fadd", "mov", "ldr", "str", "cmp"}
	for _, m := range notBranch {
		in := Instruction{Mnemonic: m}
		if in.IsBranch() {
			t.Errorf("%s must not be a branch", m)
		}
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{
		Mnemonic: "vaddpd",
		Operands: []Operand{
			NewRegOperand(ParseX86Register("zmm1")),
			NewRegOperand(ParseX86Register("zmm2")),
			NewRegOperand(ParseX86Register("zmm3")),
		},
	}
	s := in.String()
	if !strings.Contains(s, "vaddpd") || !strings.Contains(s, "zmm3") {
		t.Errorf("String() = %q", s)
	}
	in.Raw = "raw text"
	if in.String() != "raw text" {
		t.Error("Raw must take precedence in String()")
	}
}

func TestBlockValidate(t *testing.T) {
	empty := &Block{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty block must not validate")
	}
	bad := &Block{Name: "b", Instrs: []Instruction{{Mnemonic: ""}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty mnemonic must not validate")
	}
	badReg := &Block{Name: "r", Instrs: []Instruction{{
		Mnemonic: "add", Operands: []Operand{NewRegOperand(Register{})},
	}}}
	if err := badReg.Validate(); err == nil {
		t.Error("invalid register must not validate")
	}
	nilMem := &Block{Name: "m", Instrs: []Instruction{{
		Mnemonic: "mov", Operands: []Operand{{Kind: OpMem}},
	}}}
	if err := nilMem.Validate(); err == nil {
		t.Error("nil memory operand must not validate")
	}
}

func TestBlockText(t *testing.T) {
	src := ".L0:\n\tvaddpd %ymm1, %ymm2, %ymm3\n\tjne .L0\n"
	b, err := ParseBlock("t", "zen4", DialectX86, src)
	if err != nil {
		t.Fatal(err)
	}
	text := b.Text()
	if !strings.Contains(text, ".L0:") {
		t.Errorf("Text() must render labels, got %q", text)
	}
	if !strings.Contains(text, "vaddpd") {
		t.Errorf("Text() must render instructions, got %q", text)
	}
}

func TestMemOperandConstructor(t *testing.T) {
	i := NewImmOperand(-5)
	if i.Kind != OpImm || i.Imm != -5 {
		t.Errorf("NewImmOperand broken: %+v", i)
	}
	l := NewLabelOperand(".L0")
	if l.Kind != OpLabel || l.Label != ".L0" {
		t.Errorf("NewLabelOperand broken: %+v", l)
	}
}

func TestOperandKindString(t *testing.T) {
	for k, want := range map[OperandKind]string{OpReg: "reg", OpImm: "imm", OpMem: "mem", OpLabel: "label"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
