package isa

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The differential oracle for ParseBlock: the string-splitting parser
// ParseBlock replaced, kept verbatim apart from renamed identifiers and
// one fix (a negative "lsl #-n" shift no longer panics). It allocates per
// line, operand and memory field, and builds its error strings the same
// way; FuzzParseX86 and FuzzParseAArch64 require the slab parser to
// return a reflect.DeepEqual block or the identical error string.

// OracleParseBlock exposes the oracle to the external fuzz tests, which
// import the kernel generator for their seeds.
var OracleParseBlock = oracleParseBlock

// newMemOperand builds a memory operand.
func newMemOperand(m MemOp) Operand { return Operand{Kind: OpMem, Mem: &m} }

// oracleParseBlock parses assembly source text in the given dialect into a Block.
// Empty lines, comment lines (#, //, ;) and directives (leading '.') other
// than labels are ignored. Labels attach to the following instruction.
//
// Source must be valid UTF-8: accepted blocks flow into JSON wire forms
// (reports, the persistent store), where encoding/json silently rewrites
// invalid bytes to U+FFFD — a block that cannot round-trip byte-identically
// must be rejected here, not mangled there.
func oracleParseBlock(name, arch string, d Dialect, src string) (*Block, error) {
	if !utf8.ValidString(src) {
		return nil, fmt.Errorf("isa: %s: source is not valid UTF-8", name)
	}
	b := &Block{Name: name, Arch: arch, Dialect: d}
	pendingLabel := ""
	for lineNo, line := range strings.Split(src, "\n") {
		line = oracleStripComment(line, d)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			pendingLabel = strings.TrimSuffix(line, ":")
			continue
		}
		if strings.HasPrefix(line, ".") {
			continue // assembler directive
		}
		in, err := oracleParseInstr(line, d)
		if err != nil {
			return nil, fmt.Errorf("isa: %s line %d: %w", name, lineNo+1, err)
		}
		in.Label = pendingLabel
		pendingLabel = ""
		b.Instrs = append(b.Instrs, in)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

func oracleStripComment(line string, d Dialect) string {
	markers := []string{"#", "//", ";"}
	if d == DialectAArch64 {
		// '#' introduces immediates on AArch64, not comments.
		markers = []string{"//", ";"}
	}
	for _, marker := range markers {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

func oracleParseInstr(line string, d Dialect) (Instruction, error) {
	mnemonic, rest := oracleSplitMnemonic(line)
	if mnemonic == "" {
		return Instruction{}, fmt.Errorf("empty instruction %q", line)
	}
	var (
		ops []Operand
		err error
	)
	if rest != "" {
		if d == DialectAArch64 {
			ops, err = oracleParseAArch64Operands(rest)
		} else {
			ops, err = oracleParseX86Operands(rest)
		}
		if err != nil {
			return Instruction{}, fmt.Errorf("%q: %w", line, err)
		}
	}
	in := Instruction{Mnemonic: strings.ToLower(mnemonic), Operands: ops, Raw: line}
	in.Ext = oracleClassifyExt(&in, d)
	oracleMarkNonTemporal(&in)
	return in, nil
}

func oracleSplitMnemonic(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i+1:])
}

// oracleSplitOperands splits on top-level commas, respecting (), [] and {}.
func oracleSplitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

// ---------------------------------------------------------------------------
// x86 AT&T operands

func oracleParseX86Operands(s string) ([]Operand, error) {
	parts := oracleSplitOperands(s)
	ops := make([]Operand, 0, len(parts))
	for _, p := range parts {
		op, err := oracleParseX86Operand(p)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func oracleParseX86Operand(p string) (Operand, error) {
	switch {
	case strings.HasPrefix(p, "$"):
		v, err := oracleParseInt(p[1:])
		if err != nil {
			return Operand{}, fmt.Errorf("bad immediate %q: %w", p, err)
		}
		return NewImmOperand(v), nil
	case strings.HasPrefix(p, "%"):
		// Register, possibly with AVX-512 mask suffix "{%k1}" handled by
		// the caller splitting on '{'.
		name := strings.TrimPrefix(p, "%")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		name = strings.TrimSpace(name)
		r := oracleParseX86Register(name)
		if !r.Valid() {
			return Operand{}, fmt.Errorf("unknown register %q", p)
		}
		return NewRegOperand(r), nil
	case strings.Contains(p, "("):
		return oracleParseX86Mem(p)
	default:
		// Bare displacement or label.
		if v, err := oracleParseInt(p); err == nil {
			return newMemOperand(MemOp{Disp: v}), nil
		}
		return NewLabelOperand(p), nil
	}
}

// oracleParseX86Mem parses disp(base,index,scale).
func oracleParseX86Mem(p string) (Operand, error) {
	open := strings.IndexByte(p, '(')
	closing := strings.LastIndexByte(p, ')')
	if closing < open {
		return Operand{}, fmt.Errorf("bad memory operand %q", p)
	}
	var m MemOp
	if dispStr := strings.TrimSpace(p[:open]); dispStr != "" {
		v, err := oracleParseInt(dispStr)
		if err != nil {
			return Operand{}, fmt.Errorf("bad displacement in %q: %w", p, err)
		}
		m.Disp = v
	}
	inner := p[open+1 : closing]
	fields := strings.Split(inner, ",")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	if len(fields) >= 1 && fields[0] != "" {
		r := oracleParseX86Register(strings.TrimPrefix(fields[0], "%"))
		if !r.Valid() {
			return Operand{}, fmt.Errorf("bad base register in %q", p)
		}
		m.Base = r
	}
	if len(fields) >= 2 && fields[1] != "" {
		r := oracleParseX86Register(strings.TrimPrefix(fields[1], "%"))
		if !r.Valid() {
			return Operand{}, fmt.Errorf("bad index register in %q", p)
		}
		m.Index = r
	}
	m.Scale = 1
	if len(fields) >= 3 && fields[2] != "" {
		sc, err := strconv.Atoi(fields[2])
		if err != nil {
			return Operand{}, fmt.Errorf("bad scale in %q: %w", p, err)
		}
		m.Scale = sc
	}
	return newMemOperand(m), nil
}

// ---------------------------------------------------------------------------
// AArch64 operands

func oracleParseAArch64Operands(s string) ([]Operand, error) {
	// Post-index writes look like "[x0], #16": merge the immediate into
	// the preceding memory operand.
	parts := oracleSplitOperands(s)
	ops := make([]Operand, 0, len(parts))
	for i := 0; i < len(parts); i++ {
		p := parts[i]
		switch {
		case strings.HasPrefix(p, "["):
			op, err := oracleParseAArch64Mem(p)
			if err != nil {
				return nil, err
			}
			// Post-index: "[x0], #16"
			if i+1 < len(parts) && strings.HasPrefix(parts[i+1], "#") {
				v, err := oracleParseInt(strings.TrimPrefix(parts[i+1], "#"))
				if err == nil {
					op.Mem.PostIndex = true
					op.Mem.Disp = v
					i++
				}
			}
			ops = append(ops, op)
		case strings.HasPrefix(p, "{"):
			// Register list "{ v0.2d }" or "{ z0.d }": single register.
			inner := strings.Trim(p, "{} ")
			r := oracleParseAArch64Register(inner)
			if !r.Valid() {
				return nil, fmt.Errorf("bad register list %q", p)
			}
			ops = append(ops, NewRegOperand(r))
		case strings.HasPrefix(p, "#"):
			v, err := oracleParseInt(strings.TrimPrefix(p, "#"))
			if err != nil {
				return nil, fmt.Errorf("bad immediate %q: %w", p, err)
			}
			ops = append(ops, NewImmOperand(v))
		default:
			// Predicate with qualifier "p0/z" or "p0/m".
			name := p
			if i := strings.IndexByte(name, '/'); i >= 0 {
				name = name[:i]
			}
			if r := oracleParseAArch64Register(name); r.Valid() {
				ops = append(ops, NewRegOperand(r))
				continue
			}
			// "lsl #3" shift modifiers attached to the previous register
			// operand are ignored for dependency purposes.
			if strings.HasPrefix(p, "lsl") || strings.HasPrefix(p, "lsr") ||
				strings.HasPrefix(p, "asr") || strings.HasPrefix(p, "sxtw") ||
				strings.HasPrefix(p, "uxtw") || strings.HasPrefix(p, "mul vl") {
				continue
			}
			if v, err := oracleParseInt(p); err == nil {
				ops = append(ops, NewImmOperand(v))
				continue
			}
			ops = append(ops, NewLabelOperand(p))
		}
	}
	return ops, nil
}

// oracleParseAArch64Mem parses [base], [base, #disp], [base, #disp]!,
// [base, xIndex], [base, xIndex, lsl #3], [base, zIndex.d] (SVE gather),
// and [base, #imm, mul vl].
func oracleParseAArch64Mem(p string) (Operand, error) {
	pre := strings.HasSuffix(p, "!")
	p = strings.TrimSuffix(p, "!")
	if !strings.HasPrefix(p, "[") || !strings.HasSuffix(p, "]") {
		return Operand{}, fmt.Errorf("bad memory operand %q", p)
	}
	inner := p[1 : len(p)-1]
	fields := oracleSplitOperands(inner)
	var m MemOp
	m.PreIndex = pre
	m.Scale = 1
	for i, f := range fields {
		f = strings.TrimSpace(f)
		switch {
		case i == 0:
			r := oracleParseAArch64Register(f)
			if !r.Valid() {
				return Operand{}, fmt.Errorf("bad base register in %q", p)
			}
			m.Base = r
		case strings.HasPrefix(f, "#"):
			v, err := oracleParseInt(strings.TrimPrefix(f, "#"))
			if err != nil {
				return Operand{}, fmt.Errorf("bad displacement in %q: %w", p, err)
			}
			m.Disp = v
		case strings.HasPrefix(f, "lsl"):
			sh := strings.TrimSpace(strings.TrimPrefix(f, "lsl"))
			sh = strings.TrimPrefix(sh, "#")
			// The one change from the original: a negative shift
			// leaves the scale at 1 instead of panicking.
			if n, err := strconv.Atoi(sh); err == nil && n >= 0 {
				m.Scale = 1 << n
			}
		case f == "mul vl":
			// SVE vector-length-scaled displacement; scale is irrelevant
			// for dependency analysis.
		default:
			r := oracleParseAArch64Register(f)
			if !r.Valid() {
				return Operand{}, fmt.Errorf("bad index register in %q", p)
			}
			m.Index = r
		}
	}
	return newMemOperand(m), nil
}

func oracleParseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	r := int64(v)
	if neg {
		r = -r
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Extension classification

func oracleClassifyExt(in *Instruction, d Dialect) Ext {
	if d == DialectAArch64 {
		return oracleClassifyExtAArch64(in)
	}
	return oracleClassifyExtX86(in)
}

func oracleClassifyExtX86(in *Instruction) Ext {
	maxW := 0
	for _, op := range in.Operands {
		if op.Kind == OpReg && op.Reg.Class == ClassVec && op.Reg.Width > maxW {
			maxW = op.Reg.Width
		}
	}
	m := in.Mnemonic
	scalarFP := strings.HasSuffix(m, "sd") && m != "movabsd"
	switch {
	case maxW == 512:
		return ExtAVX512
	case maxW == 256:
		return ExtAVX
	case maxW == 128 && !scalarFP && strings.HasPrefix(m, "v"):
		// 128-bit VEX-encoded packed ops count as AVX for licensing.
		if strings.HasSuffix(m, "pd") || strings.HasSuffix(m, "ps") ||
			strings.HasPrefix(m, "vmovdq") {
			return ExtAVX
		}
		return ExtScalar
	case maxW == 128 && !scalarFP && !strings.HasPrefix(m, "v"):
		if strings.HasSuffix(m, "pd") || strings.HasSuffix(m, "ps") {
			return ExtSSE
		}
		return ExtScalar
	default:
		return ExtScalar
	}
}

func oracleClassifyExtAArch64(in *Instruction) Ext {
	for _, op := range in.Operands {
		if op.Kind != OpReg || op.Reg.Class != ClassVec {
			continue
		}
		switch op.Reg.Name[0] {
		case 'z':
			return ExtSVE
		case 'v', 'q':
			return ExtNEON
		}
	}
	for _, op := range in.Operands {
		if op.Kind == OpReg && op.Reg.Class == ClassPred {
			return ExtSVE
		}
	}
	return ExtScalar
}

func oracleMarkNonTemporal(in *Instruction) {
	nt := strings.HasPrefix(in.Mnemonic, "vmovnt") ||
		strings.HasPrefix(in.Mnemonic, "movnt") ||
		in.Mnemonic == "stnp"
	if !nt {
		return
	}
	for i := range in.Operands {
		if in.Operands[i].Kind == OpMem {
			in.Operands[i].Mem.NonTemporal = true
		}
	}
}

// oracleParseX86Register resolves an x86-64 register name (without the AT&T "%"
// sigil) to a Register. Unknown names return an invalid register.
func oracleParseX86Register(name string) Register {
	name = strings.ToLower(name)
	if id, ok := x86GPRNames[name]; ok {
		return Register{Name: name, Class: ClassGPR, ID: id, Width: 64}
	}
	if id, ok := x86GPR32Names[name]; ok {
		return Register{Name: name, Class: ClassGPR, ID: id, Width: 32}
	}
	switch {
	case strings.HasPrefix(name, "xmm"):
		if id, err := strconv.Atoi(name[3:]); err == nil && id >= 0 && id < 32 {
			return Register{Name: name, Class: ClassVec, ID: id, Width: 128}
		}
	case strings.HasPrefix(name, "ymm"):
		if id, err := strconv.Atoi(name[3:]); err == nil && id >= 0 && id < 32 {
			return Register{Name: name, Class: ClassVec, ID: id, Width: 256}
		}
	case strings.HasPrefix(name, "zmm"):
		if id, err := strconv.Atoi(name[3:]); err == nil && id >= 0 && id < 32 {
			return Register{Name: name, Class: ClassVec, ID: id, Width: 512}
		}
	case name == "rip":
		return Register{Name: name, Class: ClassIP, ID: 0, Width: 64}
	case name == "rflags" || name == "eflags":
		return Register{Name: name, Class: ClassFlags, ID: 0, Width: 64}
	case len(name) == 2 && name[0] == 'k' && name[1] >= '0' && name[1] <= '7':
		return Register{Name: name, Class: ClassPred, ID: int(name[1] - '0'), Width: 64}
	}
	return Register{}
}

// oracleParseAArch64Register resolves an AArch64 register name to a Register.
// Supported spellings: x0..x30, w0..w30, sp, xzr/wzr, d0..d31 (scalar FP),
// s0..s31, v0..v31 (NEON, optionally with ".2d"-style arrangement),
// z0..z31 (SVE), p0..p15 (SVE predicate).
func oracleParseAArch64Register(name string) Register {
	name = strings.ToLower(name)
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i] // strip arrangement suffix like v3.2d, z1.d, p0.d
	}
	switch name {
	case "sp":
		return Register{Name: name, Class: ClassGPR, ID: 31, Width: 64}
	case "xzr", "wzr":
		// The zero register never carries dependencies; model it as a
		// distinct ID that writes are discarded to.
		return Register{Name: name, Class: ClassGPR, ID: 32, Width: 64}
	case "nzcv":
		return Register{Name: name, Class: ClassFlags, ID: 0, Width: 32}
	}
	if len(name) < 2 {
		return Register{}
	}
	num, err := strconv.Atoi(name[1:])
	if err != nil || num < 0 {
		return Register{}
	}
	switch name[0] {
	case 'x':
		if num <= 30 {
			return Register{Name: name, Class: ClassGPR, ID: num, Width: 64}
		}
	case 'w':
		if num <= 30 {
			return Register{Name: name, Class: ClassGPR, ID: num, Width: 32}
		}
	case 'v':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 128}
		}
	case 'q':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 128}
		}
	case 'd':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 64}
		}
	case 's':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 32}
		}
	case 'z':
		if num <= 31 {
			return Register{Name: name, Class: ClassVec, ID: num, Width: 128}
		}
	case 'p':
		if num <= 15 {
			return Register{Name: name, Class: ClassPred, ID: num, Width: 16}
		}
	}
	return Register{}
}
