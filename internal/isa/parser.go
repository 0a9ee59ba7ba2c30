package isa

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// ParseBlock parses assembly source text in the given dialect into a Block.
// Empty lines, comment lines (#, //, ;) and directives (leading '.') other
// than labels are ignored. Labels attach to the following instruction.
//
// Source must be valid UTF-8: accepted blocks flow into JSON wire forms
// (reports, the persistent store), where encoding/json silently rewrites
// invalid bytes to U+FFFD — a block that cannot round-trip byte-identically
// must be rejected here, not mangled there.
//
// The block is built in four allocations: the Block, its Instrs, one
// Operand slab and one MemOp slab, each sized exactly. Instructions,
// operands and memory operands are first collected in pooled scratch
// slices; each instruction's Operands is then a full slice expression of
// the operand slab (so appending to it reallocates instead of overwriting
// the next instruction's operands) and each Mem points at its own slab
// element. Register names, labels and Raw are substrings of src.
func ParseBlock(name, arch string, d Dialect, src string) (*Block, error) {
	if !utf8.ValidString(src) {
		return nil, &BlockError{Name: name, err: errNotUTF8}
	}
	s := parsePool.Get().(*parseScratch)
	defer s.release()
	pendingLabel := ""
	rest := src
	for lineNo, more := 1, true; more; lineNo++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimSpace(StripComment(line, d))
		switch {
		case line == "":
		case line[len(line)-1] == ':':
			pendingLabel = line[:len(line)-1]
		case line[0] == '.':
			// assembler directive
		default:
			if err := s.parseInstr(line, d, pendingLabel); err != nil {
				return nil, &BlockError{Name: name, line: lineNo, err: err}
			}
			pendingLabel = ""
		}
	}
	b := &Block{Name: name, Arch: arch, Dialect: d}
	s.build(b)
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

var errNotUTF8 = errors.New("source is not valid UTF-8")

// BlockError is a parse or validation failure of the block named Name.
// Its text names the block, so a copy with another Name reads exactly as
// the same source fails under that name.
type BlockError struct {
	Name string
	line int // 1-based source line a parse failed on, or 0
	err  error
	// validation marks Validate's failures, whose text quotes the name.
	validation bool
}

func (e *BlockError) Error() string {
	switch {
	case e.validation:
		return "isa: block " + strconv.Quote(e.Name) + " " + e.err.Error()
	case e.line > 0:
		return "isa: " + e.Name + " line " + strconv.Itoa(e.line) + ": " + e.err.Error()
	default:
		return "isa: " + e.Name + ": " + e.err.Error()
	}
}

func (e *BlockError) Unwrap() error { return e.err }

// parseScratch collects one block's instructions before ParseBlock copies
// them into exactly sized slices. instrs[i].Operands stays nil here;
// opEnd[i] is the end of instruction i's operands in ops, or -1 when the
// instruction had no operand text (its Operands stays nil). The k-th OpMem
// operand in ops owns mems[k].
type parseScratch struct {
	instrs []Instruction
	opEnd  []int32
	ops    []Operand
	mems   []MemOp
}

var parsePool = sync.Pool{New: func() any { return new(parseScratch) }}

// release clears the scratch, so the pool does not pin the source text,
// and returns it to the pool.
func (s *parseScratch) release() {
	clear(s.instrs)
	clear(s.ops)
	clear(s.mems)
	s.instrs, s.opEnd, s.ops, s.mems = s.instrs[:0], s.opEnd[:0], s.ops[:0], s.mems[:0]
	parsePool.Put(s)
}

// build copies the collected block into b: Instrs, one Operand slab and
// one MemOp slab, each of exact length.
func (s *parseScratch) build(b *Block) {
	if len(s.instrs) == 0 {
		return
	}
	b.Instrs = make([]Instruction, len(s.instrs))
	copy(b.Instrs, s.instrs)
	ops := make([]Operand, len(s.ops))
	copy(ops, s.ops)
	var mems []MemOp
	if len(s.mems) > 0 {
		mems = make([]MemOp, len(s.mems))
		copy(mems, s.mems)
	}
	start, m := 0, 0
	for i, end := range s.opEnd {
		if end < 0 {
			continue
		}
		in := ops[start:end:end]
		for j := range in {
			if in[j].Kind == OpMem {
				in[j].Mem = &mems[m]
				m++
			}
		}
		b.Instrs[i].Operands = in
		start = int(end)
	}
}

// StripComment cuts line at its first comment marker: '#' (x86 only; it
// introduces immediates on AArch64), "//" or ';'.
func StripComment(line string, d Dialect) string {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '#':
			if d != DialectAArch64 {
				return line[:i]
			}
		case '/':
			if i+1 < len(line) && line[i+1] == '/' {
				return line[:i]
			}
		case ';':
			return line[:i]
		}
	}
	return line
}

func (s *parseScratch) parseInstr(line string, d Dialect, label string) error {
	mnemonic, rest := splitMnemonic(line)
	if mnemonic == "" {
		return fmt.Errorf("empty instruction %q", line)
	}
	opStart, memStart := len(s.ops), len(s.mems)
	end := int32(-1)
	if rest != "" {
		var err error
		if d == DialectAArch64 {
			err = s.aarch64Operands(rest)
		} else {
			err = s.x86Operands(rest)
		}
		if err != nil {
			return fmt.Errorf("%q: %w", line, err)
		}
		end = int32(len(s.ops))
	}
	in := Instruction{Mnemonic: strings.ToLower(mnemonic), Operands: s.ops[opStart:], Raw: line, Label: label}
	in.Ext = classifyExt(&in, d)
	if isNonTemporal(in.Mnemonic) {
		for k := memStart; k < len(s.mems); k++ {
			s.mems[k].NonTemporal = true
		}
	}
	in.Operands = nil
	s.instrs = append(s.instrs, in)
	s.opEnd = append(s.opEnd, end)
	return nil
}

func (s *parseScratch) addMem(m MemOp) {
	s.ops = append(s.ops, Operand{Kind: OpMem})
	s.mems = append(s.mems, m)
}

func splitMnemonic(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i+1:])
}

// maxParts sizes the stack arrays operand and memory-field splitting fill;
// longer lists spill to the heap.
const maxParts = 8

// splitOperands appends to dst the top-level comma-separated parts of s,
// trimmed, respecting (), [] and {}. An empty final part is dropped.
func splitOperands(dst []string, s string) []string {
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
				dst = append(dst, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		dst = append(dst, t)
	}
	return dst
}

// ---------------------------------------------------------------------------
// x86 AT&T operands

func (s *parseScratch) x86Operands(str string) error {
	var buf [maxParts]string
	for _, p := range splitOperands(buf[:0], str) {
		if err := s.x86Operand(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *parseScratch) x86Operand(p string) error {
	switch {
	case strings.HasPrefix(p, "$"):
		v, err := parseInt(p[1:])
		if err != nil {
			return fmt.Errorf("bad immediate %q: %w", p, err)
		}
		s.ops = append(s.ops, NewImmOperand(v))
	case strings.HasPrefix(p, "%"):
		// Register, possibly with an AVX-512 mask suffix "{%k1}", which
		// is cut off here.
		name := p[1:]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		r := ParseX86Register(strings.TrimSpace(name))
		if !r.Valid() {
			return fmt.Errorf("unknown register %q", p)
		}
		s.ops = append(s.ops, NewRegOperand(r))
	case strings.Contains(p, "("):
		m, err := parseX86Mem(p)
		if err != nil {
			return err
		}
		s.addMem(m)
	default:
		// Bare displacement or label.
		if v, ok := scanInt(p); ok {
			s.addMem(MemOp{Disp: v})
		} else {
			s.ops = append(s.ops, NewLabelOperand(p))
		}
	}
	return nil
}

// parseX86Mem parses disp(base,index,scale).
func parseX86Mem(p string) (MemOp, error) {
	open := strings.IndexByte(p, '(')
	closing := strings.LastIndexByte(p, ')')
	if closing < open {
		return MemOp{}, fmt.Errorf("bad memory operand %q", p)
	}
	var m MemOp
	if dispStr := strings.TrimSpace(p[:open]); dispStr != "" {
		v, err := parseInt(dispStr)
		if err != nil {
			return MemOp{}, fmt.Errorf("bad displacement in %q: %w", p, err)
		}
		m.Disp = v
	}
	// The first three comma-separated fields; any further ones are
	// ignored.
	var fields [3]string
	n := 0
	for rest, more := p[open+1:closing], true; more && n < len(fields); n++ {
		fields[n], rest, more = strings.Cut(rest, ",")
		fields[n] = strings.TrimSpace(fields[n])
	}
	if fields[0] != "" {
		r := ParseX86Register(strings.TrimPrefix(fields[0], "%"))
		if !r.Valid() {
			return MemOp{}, fmt.Errorf("bad base register in %q", p)
		}
		m.Base = r
	}
	if n >= 2 && fields[1] != "" {
		r := ParseX86Register(strings.TrimPrefix(fields[1], "%"))
		if !r.Valid() {
			return MemOp{}, fmt.Errorf("bad index register in %q", p)
		}
		m.Index = r
	}
	m.Scale = 1
	if n >= 3 && fields[2] != "" {
		sc, ok := atoi(fields[2])
		if !ok {
			_, err := strconv.Atoi(fields[2])
			return MemOp{}, fmt.Errorf("bad scale in %q: %w", p, err)
		}
		m.Scale = sc
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// AArch64 operands

func (s *parseScratch) aarch64Operands(str string) error {
	// Post-index writes look like "[x0], #16": merge the immediate into
	// the preceding memory operand.
	var buf [maxParts]string
	parts := splitOperands(buf[:0], str)
	for i := 0; i < len(parts); i++ {
		p := parts[i]
		switch {
		case strings.HasPrefix(p, "["):
			m, err := parseAArch64Mem(p)
			if err != nil {
				return err
			}
			// Post-index: "[x0], #16"
			if i+1 < len(parts) && strings.HasPrefix(parts[i+1], "#") {
				if v, ok := scanInt(parts[i+1][1:]); ok {
					m.PostIndex = true
					m.Disp = v
					i++
				}
			}
			s.addMem(m)
		case strings.HasPrefix(p, "{"):
			// Register list "{ v0.2d }" or "{ z0.d }": single register.
			r := ParseAArch64Register(strings.Trim(p, "{} "))
			if !r.Valid() {
				return fmt.Errorf("bad register list %q", p)
			}
			s.ops = append(s.ops, NewRegOperand(r))
		case strings.HasPrefix(p, "#"):
			v, err := parseInt(p[1:])
			if err != nil {
				return fmt.Errorf("bad immediate %q: %w", p, err)
			}
			s.ops = append(s.ops, NewImmOperand(v))
		default:
			// Predicate with qualifier "p0/z" or "p0/m".
			name := p
			if i := strings.IndexByte(name, '/'); i >= 0 {
				name = name[:i]
			}
			if r := ParseAArch64Register(name); r.Valid() {
				s.ops = append(s.ops, NewRegOperand(r))
				continue
			}
			// "lsl #3" shift modifiers attached to the previous register
			// operand are ignored for dependency purposes.
			if strings.HasPrefix(p, "lsl") || strings.HasPrefix(p, "lsr") ||
				strings.HasPrefix(p, "asr") || strings.HasPrefix(p, "sxtw") ||
				strings.HasPrefix(p, "uxtw") || strings.HasPrefix(p, "mul vl") {
				continue
			}
			if v, ok := scanInt(p); ok {
				s.ops = append(s.ops, NewImmOperand(v))
				continue
			}
			s.ops = append(s.ops, NewLabelOperand(p))
		}
	}
	return nil
}

// parseAArch64Mem parses [base], [base, #disp], [base, #disp]!,
// [base, xIndex], [base, xIndex, lsl #3], [base, zIndex.d] (SVE gather),
// and [base, #imm, mul vl].
func parseAArch64Mem(p string) (MemOp, error) {
	pre := strings.HasSuffix(p, "!")
	p = strings.TrimSuffix(p, "!")
	if !strings.HasPrefix(p, "[") || !strings.HasSuffix(p, "]") {
		return MemOp{}, fmt.Errorf("bad memory operand %q", p)
	}
	var buf [maxParts]string
	m := MemOp{PreIndex: pre, Scale: 1}
	for i, f := range splitOperands(buf[:0], p[1:len(p)-1]) {
		switch {
		case i == 0:
			r := ParseAArch64Register(f)
			if !r.Valid() {
				return MemOp{}, fmt.Errorf("bad base register in %q", p)
			}
			m.Base = r
		case strings.HasPrefix(f, "#"):
			v, err := parseInt(f[1:])
			if err != nil {
				return MemOp{}, fmt.Errorf("bad displacement in %q: %w", p, err)
			}
			m.Disp = v
		case strings.HasPrefix(f, "lsl"):
			sh := strings.TrimSpace(f[len("lsl"):])
			sh = strings.TrimPrefix(sh, "#")
			// A negative or unparsable shift leaves the scale at 1.
			if n, ok := atoi(sh); ok && n >= 0 {
				m.Scale = 1 << n
			}
		case f == "mul vl":
			// SVE vector-length-scaled displacement; scale is irrelevant
			// for dependency analysis.
		default:
			r := ParseAArch64Register(f)
			if !r.Valid() {
				return MemOp{}, fmt.Errorf("bad index register in %q", p)
			}
			m.Index = r
		}
	}
	return m, nil
}

// parseInt parses a decimal or 0x-prefixed hexadecimal integer with an
// optional leading '-'. It fails exactly when strconv.ParseUint fails on
// the digits, with ParseUint's error.
func parseInt(s string) (int64, error) {
	if v, ok := scanInt(s); ok {
		return v, nil
	}
	// scanInt accepts what ParseUint accepts; call it only for the error.
	s = strings.TrimPrefix(strings.TrimSpace(s), "-")
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		_, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		_, err = strconv.ParseUint(s, 10, 64)
	}
	return 0, err
}

// scanInt is parseInt without building an error, for callers that only
// ask whether s is a number (labels are tried as numbers first).
func scanInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	base := uint64(10)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		base = 16
		s = s[2:]
	}
	v, ok := scanUint(s, base)
	if !ok {
		return 0, false
	}
	r := int64(v)
	if neg {
		r = -r
	}
	return r, true
}

// scanUint accepts what strconv.ParseUint(s, base, 64) accepts for base
// 10 or 16: one or more digits, no sign, no underscores, no overflow.
func scanUint(s string, base uint64) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	const maxUint64 = 1<<64 - 1
	var v uint64
	for i := 0; i < len(s); i++ {
		var d uint64
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if d >= base || v > (maxUint64-d)/base {
			return 0, false
		}
		v = v*base + d
	}
	return v, true
}

// atoi accepts exactly what strconv.Atoi accepts on a 64-bit platform —
// an optional sign, then decimal digits within int64 range — without
// building an error on failure.
func atoi(s string) (int, bool) {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	v, ok := scanUint(s, 10)
	if !ok || v > 1<<63 || (!neg && v == 1<<63) {
		return 0, false
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}

// ---------------------------------------------------------------------------
// Extension classification

func classifyExt(in *Instruction, d Dialect) Ext {
	if d == DialectAArch64 {
		return classifyExtAArch64(in)
	}
	return classifyExtX86(in)
}

func classifyExtX86(in *Instruction) Ext {
	maxW := in.VecWidth()
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

func classifyExtAArch64(in *Instruction) Ext {
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

// isNonTemporal reports whether a mnemonic is a streaming store, whose
// memory operands the parser marks NonTemporal.
func isNonTemporal(mnemonic string) bool {
	return strings.HasPrefix(mnemonic, "vmovnt") ||
		strings.HasPrefix(mnemonic, "movnt") ||
		mnemonic == "stnp"
}
