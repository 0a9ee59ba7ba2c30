// Package isa provides an ISA-neutral intermediate representation for
// assembly instruction streams, together with parsers for AT&T-style x86
// and AArch64 assembly and per-mnemonic read/write semantics.
//
// The IR is deliberately small: an Instruction is a mnemonic plus operands,
// annotated with an ISA extension class and load/store/branch flags. All
// microarchitectural knowledge (latency, port usage, µ-op decomposition)
// lives in package uarch; all dependency reasoning lives in package
// depgraph. This package only answers "what does this instruction read and
// write, architecturally?".
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Dialect selects the assembly syntax family of a block.
type Dialect int

const (
	// DialectX86 is AT&T-syntax x86-64 (source operands first,
	// destination last).
	DialectX86 Dialect = iota
	// DialectAArch64 is ARM 64-bit syntax (destination first).
	DialectAArch64
)

// String returns the conventional name of the dialect.
func (d Dialect) String() string {
	switch d {
	case DialectX86:
		return "x86"
	case DialectAArch64:
		return "aarch64"
	default:
		return fmt.Sprintf("Dialect(%d)", int(d))
	}
}

// RegClass classifies architectural registers for dependency tracking.
type RegClass int

const (
	// ClassNone marks an invalid or absent register.
	ClassNone RegClass = iota
	// ClassGPR is a general-purpose integer register.
	ClassGPR
	// ClassVec is a SIMD/FP vector register (xmm/ymm/zmm, v, z).
	ClassVec
	// ClassPred is an SVE/AVX-512 predicate (mask) register.
	ClassPred
	// ClassFlags is the condition-flags register (RFLAGS, NZCV).
	ClassFlags
	// ClassIP is the instruction pointer (used by branches).
	ClassIP
)

// String returns a short class name.
func (c RegClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassGPR:
		return "gpr"
	case ClassVec:
		return "vec"
	case ClassPred:
		return "pred"
	case ClassFlags:
		return "flags"
	case ClassIP:
		return "ip"
	default:
		return fmt.Sprintf("RegClass(%d)", int(c))
	}
}

// Register is an architectural register. Two registers alias (for
// dependency purposes) iff their Class and ID are equal; Width records the
// access width in bits and Name the spelling found in the source.
type Register struct {
	Name  string
	Class RegClass
	ID    int
	Width int
}

// Valid reports whether r denotes an actual register.
func (r Register) Valid() bool { return r.Class != ClassNone }

// Key returns a map key identifying the renamable storage location.
func (r Register) Key() RegKey { return RegKey{Class: r.Class, ID: r.ID} }

// RegKey identifies an architectural storage location independent of the
// spelling or access width used by a particular operand.
type RegKey struct {
	Class RegClass
	ID    int
}

// String formats the key for debugging.
func (k RegKey) String() string { return fmt.Sprintf("%s%d", k.Class, k.ID) }

// OperandKind discriminates Operand variants.
type OperandKind int

const (
	// OpReg is a register operand.
	OpReg OperandKind = iota
	// OpImm is an immediate operand.
	OpImm
	// OpMem is a memory operand.
	OpMem
	// OpLabel is a code label (branch target).
	OpLabel
)

// String returns a short kind name.
func (k OperandKind) String() string {
	switch k {
	case OpReg:
		return "reg"
	case OpImm:
		return "imm"
	case OpMem:
		return "mem"
	case OpLabel:
		return "label"
	default:
		return fmt.Sprintf("OperandKind(%d)", int(k))
	}
}

// MemOp describes a memory reference: base + index*scale + disp.
type MemOp struct {
	Base  Register
	Index Register
	Scale int
	Disp  int64
	// Width is the access width in bits (elements x element size for
	// vector accesses).
	Width int
	// NonTemporal marks streaming (write-combining) accesses.
	NonTemporal bool
	// PreIndex / PostIndex mark AArch64 addressing modes that write the
	// base register back.
	PreIndex  bool
	PostIndex bool
}

// Operand is one instruction operand.
type Operand struct {
	Kind  OperandKind
	Reg   Register
	Imm   int64
	Mem   *MemOp
	Label string
}

// NewRegOperand builds a register operand.
func NewRegOperand(r Register) Operand { return Operand{Kind: OpReg, Reg: r} }

// NewImmOperand builds an immediate operand.
func NewImmOperand(v int64) Operand { return Operand{Kind: OpImm, Imm: v} }

// NewLabelOperand builds a label operand.
func NewLabelOperand(l string) Operand { return Operand{Kind: OpLabel, Label: l} }

// Ext is the ISA extension class of an instruction; it matters for the
// frequency governor (license-based throttling) and for model lookup.
type Ext int

const (
	// ExtScalar covers scalar integer and scalar FP instructions.
	ExtScalar Ext = iota
	// ExtSSE is 128-bit x86 SIMD.
	ExtSSE
	// ExtAVX is 256-bit x86 SIMD (AVX/AVX2).
	ExtAVX
	// ExtAVX512 is 512-bit x86 SIMD.
	ExtAVX512
	// ExtNEON is 128-bit AArch64 Advanced SIMD.
	ExtNEON
	// ExtSVE is scalable-vector AArch64 SIMD (128-bit on Neoverse V2).
	ExtSVE
)

// String returns the conventional extension name.
func (e Ext) String() string {
	switch e {
	case ExtScalar:
		return "scalar"
	case ExtSSE:
		return "sse"
	case ExtAVX:
		return "avx"
	case ExtAVX512:
		return "avx512"
	case ExtNEON:
		return "neon"
	case ExtSVE:
		return "sve"
	default:
		return fmt.Sprintf("Ext(%d)", int(e))
	}
}

// ParseExt resolves an extension name as produced by Ext.String — the
// spelling machine files use for frequency-governor tables.
func ParseExt(s string) (Ext, error) {
	switch s {
	case "scalar":
		return ExtScalar, nil
	case "sse":
		return ExtSSE, nil
	case "avx":
		return ExtAVX, nil
	case "avx512":
		return ExtAVX512, nil
	case "neon":
		return ExtNEON, nil
	case "sve":
		return ExtSVE, nil
	default:
		return 0, fmt.Errorf("isa: unknown ISA extension %q", s)
	}
}

// VectorBits returns the register width implied by the extension class,
// or 64 for scalar code.
func (e Ext) VectorBits() int {
	switch e {
	case ExtSSE, ExtNEON, ExtSVE:
		return 128
	case ExtAVX:
		return 256
	case ExtAVX512:
		return 512
	default:
		return 64
	}
}

// Wider reports whether e is a wider ISA class than o: more VectorBits
// wins, and on a tie the later class does (SVE over NEON), so the widest
// class of any set is unique.
func (e Ext) Wider(o Ext) bool {
	if eb, ob := e.VectorBits(), o.VectorBits(); eb != ob {
		return eb > ob
	}
	return e > o
}

// Instruction is one assembly instruction in IR form.
type Instruction struct {
	// Mnemonic is the lower-case opcode without width suffixes removed;
	// e.g. "vfmadd231pd", "fmla", "addq".
	Mnemonic string
	Operands []Operand
	Ext      Ext
	// Raw preserves the source text when the instruction was parsed.
	Raw string
	// Label is a non-empty code label attached to this instruction.
	Label string
}

// IsBranch reports whether the instruction redirects control flow.
func (in *Instruction) IsBranch() bool {
	m := in.Mnemonic
	if strings.HasPrefix(m, "j") && m != "jrcxz" {
		return true
	}
	if m == "b" || strings.HasPrefix(m, "b.") || m == "cbz" || m == "cbnz" ||
		m == "tbz" || m == "tbnz" || m == "ret" || m == "jmp" {
		return true
	}
	return false
}

// String formats the instruction roughly as source text.
func (in *Instruction) String() string {
	if in.Raw != "" {
		return in.Raw
	}
	var sb strings.Builder
	sb.Grow(in.textLen())
	in.writeText(&sb)
	return sb.String()
}

// textLen is the length of String's result.
func (in *Instruction) textLen() int {
	if in.Raw != "" {
		return len(in.Raw)
	}
	n := len(in.Mnemonic)
	for i := range in.Operands {
		n += 2 // " " before the first operand, ", " before the others
		op := &in.Operands[i]
		switch op.Kind {
		case OpReg:
			n += len(op.Reg.Name)
		case OpImm:
			n += 1 + intLen(op.Imm)
		case OpLabel:
			n += len(op.Label)
		case OpMem:
			n += intLen(op.Mem.Disp)
			if op.Mem.Base.Valid() {
				n += 2 + len(op.Mem.Base.Name)
			}
		}
	}
	if len(in.Operands) > 0 {
		n-- // the first separator is one byte
	}
	return n
}

// writeText writes String's result to sb without building it first.
func (in *Instruction) writeText(sb *strings.Builder) {
	if in.Raw != "" {
		sb.WriteString(in.Raw)
		return
	}
	var num [20]byte
	sb.WriteString(in.Mnemonic)
	for i := range in.Operands {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		op := &in.Operands[i]
		switch op.Kind {
		case OpReg:
			sb.WriteString(op.Reg.Name)
		case OpImm:
			sb.WriteByte('$')
			sb.Write(strconv.AppendInt(num[:0], op.Imm, 10))
		case OpLabel:
			sb.WriteString(op.Label)
		case OpMem:
			m := op.Mem
			sb.Write(strconv.AppendInt(num[:0], m.Disp, 10))
			if m.Base.Valid() {
				sb.WriteByte('(')
				sb.WriteString(m.Base.Name)
				sb.WriteByte(')')
			}
		}
	}
}

// intLen is the length of v in decimal.
func intLen(v int64) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n++
		u = -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// Block is a straight-line instruction sequence representing one loop body
// (the innermost-loop kernel the in-core model analyses).
type Block struct {
	// Name identifies the block (kernel/compiler/flags).
	Name string
	// Arch is the target microarchitecture key ("goldencove", ...).
	Arch string
	// Dialect is the assembly syntax the block was written in.
	Dialect Dialect
	Instrs  []Instruction
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.Instrs) }

// Text renders the block as assembly source in its dialect: each label
// on its own line ("label:"), each instruction as a tab, its String and a
// newline. It allocates once, at exact size.
func (b *Block) Text() string {
	var sb strings.Builder
	sb.Grow(b.TextLen())
	b.WriteText(&sb)
	return sb.String()
}

// TextLen is the length of Text's result, for callers that size a buffer
// before WriteText.
func (b *Block) TextLen() int {
	n := 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Label != "" {
			n += len(in.Label) + 2
		}
		n += in.textLen() + 2
	}
	return n
}

// WriteText writes Text's result to sb.
func (b *Block) WriteText(sb *strings.Builder) {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Label != "" {
			sb.WriteString(in.Label)
			sb.WriteString(":\n")
		}
		sb.WriteByte('\t')
		in.writeText(sb)
		sb.WriteByte('\n')
	}
}

// Validate performs structural sanity checks and returns the first problem
// found as a *BlockError, or nil.
func (b *Block) Validate() error {
	fail := func(format string, args ...any) error {
		return &BlockError{Name: b.Name, err: fmt.Errorf(format, args...), validation: true}
	}
	if len(b.Instrs) == 0 {
		return fail("has no instructions")
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Mnemonic == "" {
			return fail("instr %d has empty mnemonic", i)
		}
		for j, op := range in.Operands {
			switch op.Kind {
			case OpReg:
				if !op.Reg.Valid() {
					return fail("instr %d (%s) operand %d: invalid register", i, in.Mnemonic, j)
				}
			case OpMem:
				if op.Mem == nil {
					return fail("instr %d (%s) operand %d: nil memory operand", i, in.Mnemonic, j)
				}
			}
		}
	}
	return nil
}
