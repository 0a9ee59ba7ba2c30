package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The report's fixed header columns and pressure-row label, padded once.
var (
	reportHeader   = fmt.Sprintf("%-4s %-2s %-2s %-38s %5s %4s %5s", "idx", "CP", "LC", "instruction", "uops", "lat", "tp")
	pressureLabel  = fmt.Sprintf("%-60s", "port pressure (cycles/iteration):")
	reportPadBlank = strings.Repeat(" ", 64)
)

// Report renders an OSACA-style text report of the analysis: one line per
// instruction with µ-op count, latency and per-port pressure, followed by
// the combined bounds and the binding constraint.
func (r *Result) Report() string {
	return string(r.AppendReport(make([]byte, 0, r.reportSizeHint()), r.Block.Name))
}

// reportSizeHint is a rough upper estimate of the report's length.
func (r *Result) reportSizeHint() int {
	return 512 + (len(r.Instrs)+2)*(80+6*len(r.Model.Ports))
}

// AppendReport appends the text Report renders to dst, with name in
// place of r.Block.Name, and returns the extended buffer. Taking the name
// lets a memoized Result be rendered for any requester without a copy.
// The bytes equal the fmt rendering that specifies the report: strings
// pad by rune count, floats are fixed-point with two decimals, and the
// LCD path prints like %v of an []int.
func (r *Result) AppendReport(dst []byte, name string) []byte {
	m := r.Model
	dst = append(dst, "In-core analysis: "...)
	dst = append(dst, name...)
	dst = append(dst, " on "...)
	dst = append(dst, m.Name...)
	dst = append(dst, " ("...)
	dst = append(dst, m.CPU...)
	dst = append(dst, ")\n"...)
	dst = append(dst, reportHeader...)
	for _, p := range m.Ports {
		start := len(dst) + 1
		dst = append(append(dst, ' '), p...)
		dst = padLeft(dst, start, utf8.RuneCountInString(p), 5)
	}
	dst = append(dst, '\n')
	cp, lc := pathCursor{path: r.CPPath}, pathCursor{path: r.LCD.Path}
	for i := range r.Instrs {
		ir := &r.Instrs[i]
		dst = appendIntLeft(dst, ir.Index, 4)
		dst = append(dst, ' ')
		dst = append(dst, mark(cp.on(ir.Index))...)
		dst = append(dst, ' ')
		dst = append(dst, mark(lc.on(ir.Index))...)
		dst = append(dst, ' ')
		text, ellipsis := ir.Text, ""
		if len(text) > 38 {
			text, ellipsis = text[:35], "..."
		}
		dst = append(append(dst, text...), ellipsis...)
		dst = appendBlanks(dst, 38-utf8.RuneCountInString(text)-len(ellipsis))
		dst = append(dst, ' ')
		dst = appendInt(dst, ir.Uops, 5)
		dst = append(dst, ' ')
		dst = appendInt(dst, ir.TotalLat, 4)
		dst = append(dst, ' ')
		dst = appendFixed(dst, ir.Throughput, 2, 5)
		for p := range m.Ports {
			v := 0.0
			if p < len(ir.PortLoads) {
				v = ir.PortLoads[p]
			}
			if v < 0.005 {
				dst = appendBlanks(dst, 6)
			} else {
				dst = appendFixed(append(dst, ' '), v, 2, 5)
			}
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, pressureLabel...)
	for p := range m.Ports {
		dst = appendFixed(append(dst, ' '), r.PortPressure[p], 2, 5)
	}
	dst = append(dst, '\n')
	dst = appendFixed(append(dst, "throughput bound : "...), r.TPBound, 2, 7)
	dst = append(dst, " cy/it (optimal balancing; greedy would give "...)
	dst = appendFixed(dst, r.GreedyTPBound, 2, 0)
	dst = append(dst, ")\n"...)
	dst = appendFixed(append(dst, "issue bound      : "...), r.IssueBound, 2, 7)
	dst = strconv.AppendInt(append(dst, " cy/it ("...), int64(r.TotalUops), 10)
	dst = strconv.AppendInt(append(dst, " µ-ops / issue width "...), int64(m.IssueWidth), 10)
	dst = append(dst, ")\n"...)
	dst = appendFixed(append(dst, "critical path    : "...), r.CriticalPath, 2, 7)
	dst = append(dst, " cy\n"...)
	dst = appendFixed(append(dst, "loop-carried dep : "...), r.LCD.Cycles, 2, 7)
	dst = append(dst, " cy/it"...)
	if len(r.LCD.Path) > 0 {
		dst = append(dst, " (via instrs ["...)
		for i, v := range r.LCD.Path {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, "])"...)
	}
	dst = append(dst, '\n')
	dst = appendFixed(append(dst, "prediction       : "...), r.Prediction, 2, 7)
	dst = append(append(dst, " cy/it  ["...), r.Bound...)
	dst = append(dst, " bound]\n"...)
	// The coverage footer appears only on degraded analyses, so fully
	// covered reports (the entire generated suite) stay byte-identical.
	if !r.Coverage.Full() {
		c := r.Coverage
		dst = appendFixed(append(dst, "coverage         : "...), 100*c.Fraction(), 1, 7)
		dst = strconv.AppendInt(append(dst, "% of "...), int64(c.Total()), 10)
		dst = strconv.AppendInt(append(dst, " instrs ("...), int64(c.Exact), 10)
		dst = strconv.AppendInt(append(dst, " exact, "...), int64(c.Fallback), 10)
		dst = strconv.AppendInt(append(dst, " fallback, "...), int64(c.Unknown), 10)
		dst = append(dst, " unknown)\n"...)
		dst = append(dst, "unknown          : "...)
		for i, mn := range c.UnknownMnemonics {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, mn...)
		}
		dst = append(dst, "  [conservative default descriptors; bounds are degraded]\n"...)
	}
	return dst
}

// mark renders a CP or LC column cell (%-2s of "X" or "").
func mark(on bool) string {
	if on {
		return "X "
	}
	return "  "
}

// pathCursor marks the instructions on an index path as the rows are
// visited in increasing index order. Critical paths and LCD cycles are
// built along forward intra-iteration edges, so their index lists are
// increasing and one forward walk marks every row.
type pathCursor struct {
	path []int
	k    int
}

func (c *pathCursor) on(idx int) bool {
	for c.k < len(c.path) && c.path[c.k] < idx {
		c.k++
	}
	return c.k < len(c.path) && c.path[c.k] == idx
}

// appendBlanks appends n spaces (none when n <= 0).
func appendBlanks(dst []byte, n int) []byte {
	for n > len(reportPadBlank) {
		dst = append(dst, reportPadBlank...)
		n -= len(reportPadBlank)
	}
	if n > 0 {
		dst = append(dst, reportPadBlank[:n]...)
	}
	return dst
}

// padLeft right-aligns dst[start:], which is runes wide, in width
// columns by inserting spaces before it.
func padLeft(dst []byte, start, runes, width int) []byte {
	n := width - runes
	if n <= 0 {
		return dst
	}
	end := len(dst)
	dst = appendBlanks(dst, n)
	copy(dst[start+n:], dst[start:end])
	copy(dst[start:start+n], reportPadBlank)
	return dst
}

// appendInt appends v right-aligned in width columns (%<width>d).
func appendInt(dst []byte, v, width int) []byte {
	start := len(dst)
	dst = strconv.AppendInt(dst, int64(v), 10)
	return padLeft(dst, start, len(dst)-start, width)
}

// appendIntLeft appends v left-aligned in width columns (%-<width>d).
func appendIntLeft(dst []byte, v, width int) []byte {
	start := len(dst)
	dst = strconv.AppendInt(dst, int64(v), 10)
	return appendBlanks(dst, width-(len(dst)-start))
}

// appendFixed appends v with prec decimals right-aligned in width
// columns (%<width>.<prec>f).
func appendFixed(dst []byte, v float64, prec, width int) []byte {
	start := len(dst)
	dst = appendFixedDigits(dst, v, prec)
	return padLeft(dst, start, len(dst)-start, width)
}

// fixedScale holds 10^prec for the precisions the report uses.
var fixedScale = [...]uint64{1, 10, 100}

// appendFixedDigits formats v like strconv.AppendFloat(dst, v, 'f',
// prec, 64), and so like fmt's %.<prec>f. strconv takes its slow
// multiprecision path for a fixed 'f' precision, so finite values below
// 2^40 are rounded here exactly instead: the binary value times 10^prec,
// rounded half to even, as strconv rounds.
func appendFixedDigits(dst []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	if exp >= 1023+40 || prec >= len(fixedScale) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1
	} else {
		mant |= 1 << 52
	}
	// |v| = mant * 2^-shift with shift >= 12, and scaled < 2^60.
	shift := uint(1075 - exp)
	scaled := mant * fixedScale[prec]
	var q uint64
	if shift < 62 {
		q = scaled >> shift
		rem, half := scaled&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/fixedScale[prec], 10)
	if prec > 0 {
		dst = append(dst, '.')
		frac := q % fixedScale[prec]
		for d := fixedScale[prec] / 10; d > 0; d /= 10 {
			dst = append(dst, byte('0'+frac/d%10))
		}
	}
	return dst
}
