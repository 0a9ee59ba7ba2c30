package isa

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// slabSrc has memory operands in several instructions, one instruction
// without operands and a label, so the operand and memory slabs are
// shared by neighbours.
const slabSrc = ".L0:\n" +
	"\tvmovupd (%rsi,%rax,8), %zmm0\n" +
	"\tvfmadd231pd 64(%rdx,%rax,8), %zmm15, %zmm0\n" +
	"\tvmovupd %zmm0, (%rdi,%rax,8)\n" +
	"\tvzeroupper\n" +
	"\taddq $16, %rax\n" +
	"\tjne .L0\n"

func TestParsedOperandsDoNotAlias(t *testing.T) {
	b := mustParse(t, DialectX86, slabSrc)
	want := mustParse(t, DialectX86, slabSrc)

	// Appending to one instruction's operands must reallocate rather than
	// overwrite the next instruction's operands in the shared slab.
	for i := 0; i+1 < len(b.Instrs); i++ {
		ops := b.Instrs[i].Operands
		if cap(ops) != len(ops) {
			t.Fatalf("instr %d operands: cap %d > len %d", i, cap(ops), len(ops))
		}
		_ = append(ops, NewImmOperand(99))
		if !reflect.DeepEqual(b.Instrs[i+1], want.Instrs[i+1]) {
			t.Fatalf("append to instr %d operands changed instr %d: %+v", i, i+1, b.Instrs[i+1])
		}
	}

	// Writing through one Mem pointer must change only that operand.
	b.Instrs[1].Operands[0].Mem.Disp = 4096
	want.Instrs[1].Operands[0].Mem.Disp = 4096
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("write through one memory operand changed another:\n got %+v\nwant %+v", b, want)
	}
}

func TestParseBlockAllocatesFourTimes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseBlock("t", "goldencove", DialectX86, slabSrc); err != nil {
			t.Fatal(err)
		}
	})
	// Block, Instrs, the Operand slab and the MemOp slab.
	if allocs != 4 {
		t.Errorf("ParseBlock allocated %v times, want 4", allocs)
	}
}

func TestParseBlockMatchesOracleOnEdgeCases(t *testing.T) {
	x86 := []string{
		"",
		"\tnop\n",
		"\tmov 0x10, %rax\n",
		"\tmov -0X1f(%rsi), %rax\n",
		"\tmov 18446744073709551616(%rsi), %rax\n",
		"\tmov (%rsi,%rax,+4), %rax\n",
		"\tmov (%rsi,%rax,x), %rax\n",
		"\tmov (%rsi,%rax,8,9), %rax\n",
		"\tmov ), %rax\n",
		"\tmov $, %rax\n",
		"\tmov $1_0, %rax\n",
		"\tmov %xmm+5, %xmm-0\n",
		"\tmov %xmm99999999999999999999, %rax\n",
		"\tmov %RAX, %rbx # trailing\n",
		"\tvmovntpd %zmm0, (%rdi) ; c\n",
		"\tjmp label // c\n",
		"lbl:\n.p2align 4\n\tret\n",
		"\ta ,\n",
	}
	arm := []string{
		"\tldr d0, [x1, x2, lsl #-1]\n",
		"\tldr d0, [x1, x2, lsl #x]\n",
		"\tldr d0, [x1, x2, lsl #70]\n",
		"\tstr q0, [x0], #0x10\n",
		"\tstr q0, [x0], #zz\n",
		"\tldr q0, [x1, #8]!\n",
		"\tldr q0, x1]\n",
		"\tadd x1, x1, lsl #3\n",
		"\tadd X1, x1, #-0x8000000000000000\n",
		"\tb.ne .L0\n",
		"\tstnp q0, q1, [x0, #32]\n",
		"\tld1d { z0.d }, p0/z, [x1, z1.d]\n",
		"\tfoo { q }\n",
		"\tfoo 12, 0x\n",
		"\tmov x1, w+3\n",
	}
	for _, c := range []struct {
		d    Dialect
		srcs []string
	}{{DialectX86, x86}, {DialectAArch64, arm}} {
		for _, src := range c.srcs {
			got, err := ParseBlock("t", "arch", c.d, src)
			want, werr := oracleParseBlock("t", "arch", c.d, src)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Errorf("%q: error %v, oracle %v", src, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q: block differs from oracle:\n got %+v\nwant %+v", src, got, want)
			}
		}
	}
}

// TestIntScannersMatchStrconv pins the allocation-free integer scanners to
// the strconv calls they replace: atoi to strconv.Atoi, and scanInt and
// parseInt to the oracle's strconv.ParseUint-based parseInt, error string
// included.
func TestIntScannersMatchStrconv(t *testing.T) {
	check := func(s string) bool {
		n, ok := atoi(s)
		wn, werr := strconv.Atoi(s)
		if ok != (werr == nil) || (ok && n != wn) {
			t.Errorf("atoi(%q) = %d, %v; strconv.Atoi = %d, %v", s, n, ok, wn, werr)
			return false
		}
		v, ok := scanInt(s)
		pv, perr := parseInt(s)
		wv, werr := oracleParseInt(s)
		if ok != (werr == nil) || (ok && v != wv) || pv != wv || fmt.Sprint(perr) != fmt.Sprint(werr) {
			t.Errorf("scanInt(%q) = %d, %v; parseInt = %d, %v; oracle = %d, %v", s, v, ok, pv, perr, wv, werr)
			return false
		}
		return true
	}
	cases := []string{
		"", "+", "-", "0", "-0", "+0", "00", "7", "-7", "+7", " 7 ", "\t-7",
		"0x", "0x0", "0X1F", "0xg", "-0x10", "0x-1", "--1", "1_000", "1e3",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551615", "18446744073709551616",
		"0xffffffffffffffff", "0x10000000000000000", "99999999999999999999",
		"000000000000000000000000001", "-000000000000000000000000001",
		"١", "7 ",
	}
	for _, s := range cases {
		check(s)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	digits := func(neg bool, hex bool, v uint64) bool {
		s := strconv.FormatUint(v, 10)
		if hex {
			s = "0x" + strconv.FormatUint(v, 16)
		}
		if neg {
			s = "-" + s
		}
		return check(s)
	}
	if err := quick.Check(digits, nil); err != nil {
		t.Error(err)
	}
}

func TestTextWithoutRawMatchesFmt(t *testing.T) {
	mem := newMemOperand
	b := &Block{Name: "p", Arch: "goldencove", Instrs: []Instruction{
		{Mnemonic: "vaddpd", Label: ".L0", Operands: []Operand{
			NewRegOperand(ParseX86Register("zmm1")), NewImmOperand(-17),
			mem(MemOp{Base: ParseX86Register("rsi"), Disp: 64}),
		}},
		{Mnemonic: "mov", Operands: []Operand{
			NewImmOperand(math.MinInt64), mem(MemOp{Disp: math.MaxInt64}),
			mem(MemOp{Base: ParseX86Register("rdi"), Disp: math.MinInt64}),
			NewLabelOperand(".L0"),
		}},
		{Mnemonic: "ret"},
		{Mnemonic: "raw", Raw: "raw text", Label: "x"},
	}}
	var want strings.Builder
	for _, in := range b.Instrs {
		if in.Label != "" {
			want.WriteString(in.Label + ":\n")
		}
		want.WriteString("\t" + fmtInstr(&in) + "\n")
	}
	if got := b.Text(); got != want.String() {
		t.Errorf("Text() = %q, want %q", got, want.String())
	}
	if n := b.TextLen(); n != len(want.String()) {
		t.Errorf("TextLen() = %d, want %d", n, len(want.String()))
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = b.Text() }); allocs != 1 {
		t.Errorf("Text allocated %v times, want 1", allocs)
	}
}

// fmtInstr is Instruction.String as it was written with fmt.
func fmtInstr(in *Instruction) string {
	if in.Raw != "" {
		return in.Raw
	}
	var sb strings.Builder
	sb.WriteString(in.Mnemonic)
	for i, op := range in.Operands {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		switch op.Kind {
		case OpReg:
			sb.WriteString(op.Reg.Name)
		case OpImm:
			fmt.Fprintf(&sb, "$%d", op.Imm)
		case OpLabel:
			sb.WriteString(op.Label)
		case OpMem:
			m := op.Mem
			if m.Base.Valid() {
				fmt.Fprintf(&sb, "%d(%s)", m.Disp, m.Base.Name)
			} else {
				fmt.Fprintf(&sb, "%d", m.Disp)
			}
		}
	}
	return sb.String()
}
