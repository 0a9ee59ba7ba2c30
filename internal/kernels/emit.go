package kernels

import (
	"strconv"
	"sync"
)

// asmWriter appends assembly text to one buffer without fmt. A line is
// begin(mnemonic), then its operands, each preceded by " " (the first) or
// ", " (the rest), then end. The dialect emitters wrap it with chainable
// operand methods.
type asmWriter struct {
	buf   []byte
	nargs int
	// used records the base registers the body addressed; the
	// pointer-bumped loops advance each of them.
	used baseSet
}

func (w *asmWriter) begin(mn string) {
	w.buf = append(w.buf, '\t')
	w.buf = append(w.buf, mn...)
	w.nargs = 0
}

func (w *asmWriter) sep() {
	if w.nargs == 0 {
		w.buf = append(w.buf, ' ')
	} else {
		w.buf = append(w.buf, ", "...)
	}
	w.nargs++
}

// str appends an operand spelled s.
func (w *asmWriter) str(s string) {
	w.sep()
	w.buf = append(w.buf, s...)
}

// num appends an operand spelled prefix followed by n in decimal.
func (w *asmWriter) num(prefix string, n int) {
	w.sep()
	w.buf = append(w.buf, prefix...)
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
}

func (w *asmWriter) end() { w.buf = append(w.buf, '\n') }

// line appends one complete line.
func (w *asmWriter) line(s string) {
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\n')
}

// baseSet is a small set of register names. A kernel addresses at most
// ten base registers.
type baseSet struct {
	n     int
	names [16]string
}

func (s *baseSet) add(name string) {
	if s.has(name) {
		return
	}
	if s.n == len(s.names) {
		panic("kernels: too many base registers")
	}
	s.names[s.n] = name
	s.n++
}

func (s *baseSet) has(name string) bool {
	for _, b := range s.names[:s.n] {
		if b == name {
			return true
		}
	}
	return false
}

// sorted returns the names in increasing string order.
func (s *baseSet) sorted() []string {
	names := s.names[:s.n]
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// regNames returns the names prefix+"0"+suffix .. prefix+"31"+suffix, so
// emitters name work registers without allocating.
func regNames(prefix, suffix string) *[32]string {
	var t [32]string
	for i := range t {
		t[i] = prefix + strconv.Itoa(i) + suffix
	}
	return &t
}

// emitBufs recycles the buffers Generate emits into; each text is copied
// out once, as the string the parser reads.
var emitBufs = sync.Pool{New: func() any { return new([]byte) }}
