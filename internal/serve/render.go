package serve

import (
	"math"
	"strconv"
	"sync"

	"incore/internal/jsonstr"
)

// MarshalJSON renders r compactly through the same appender, so
// /v1/batch items and job records (which go through encoding/json) come
// out byte-identical to the reflective encoding they replace.
func (r AnalyzeResponse) MarshalJSON() ([]byte, error) {
	return appendResponse(nil, &r, r.Report, false), nil
}

// appendResponse is the one renderer of AnalyzeResponse. With indent it
// appends the bytes /v1/analyze writes for r: its JSON encoding exactly
// as encoding/json's Encoder with SetIndent("", "  ") produces it,
// trailing newline included; without, MarshalJSON's compact form. It
// renders report in place of r.Report, so the handler can escape a
// report rendered into a scratch buffer without turning it into a
// string. Every float in a response is finite: the
// bounds and the coverage fraction come from finite latencies, loads
// and counts over a positive issue width.
func appendResponse[S string | []byte](dst []byte, r *AnalyzeResponse, report S, indent bool) []byte {
	e := jsonAppender{b: dst, indent: indent}
	e.open('{')
	e.str("name", r.Name)
	e.str("arch", r.Arch)
	e.float("prediction", r.Prediction)
	e.str("bound", r.Bound)
	e.float("tp_bound", r.TPBound)
	e.float("greedy_tp_bound", r.GreedyTPBound)
	e.float("issue_bound", r.IssueBound)
	e.float("critical_path", r.CriticalPath)
	e.float("lcd_cycles", r.LCDCycles)
	if len(r.LCDPath) > 0 {
		e.key("lcd_path")
		e.open('[')
		for _, v := range r.LCDPath {
			e.elem()
			e.b = strconv.AppendInt(e.b, int64(v), 10)
		}
		e.close(']')
	}
	e.int("total_uops", r.TotalUops)
	c := &r.Coverage
	e.key("coverage")
	e.open('{')
	e.int("exact", c.Exact)
	e.int("fallback", c.Fallback)
	e.int("unknown", c.Unknown)
	e.float("fraction", c.Fraction)
	if len(c.UnknownMnemonics) > 0 {
		e.key("unknown_mnemonics")
		e.open('[')
		for _, m := range c.UnknownMnemonics {
			e.elem()
			e.b = jsonstr.Append(e.b, m)
		}
		e.close(']')
	}
	e.close('}')
	e.key("report")
	e.b = jsonstr.Append(e.b, report)
	e.close('}')
	if indent {
		e.b = append(e.b, '\n')
	}
	return e.b
}

// jsonAppender lays out JSON punctuation the way encoding/json does:
// compact, or with SetIndent("", "  ")'s newlines and two-space levels
// (empty containers stay "{}" and "[]").
type jsonAppender struct {
	b      []byte
	indent bool
	depth  int
	empty  bool // the innermost open container has no member yet
}

func (e *jsonAppender) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

func (e *jsonAppender) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

// elem starts a container member: the comma after its predecessor, then
// its line.
func (e *jsonAppender) elem() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

func (e *jsonAppender) key(k string) {
	e.elem()
	e.b = append(append(append(e.b, '"'), k...), '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *jsonAppender) str(k, v string) {
	e.key(k)
	e.b = jsonstr.Append(e.b, v)
}

func (e *jsonAppender) float(k string, v float64) {
	e.key(k)
	e.b = appendJSONFloat(e.b, v)
}

func (e *jsonAppender) int(k string, v int) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

func (e *jsonAppender) newline() {
	if !e.indent {
		return
	}
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, ' ', ' ')
	}
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest round-trip decimal, in exponent form below 1e-6 and from 1e21
// up, with a single-digit negative exponent unpadded ("1e-7").
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// renderBufs are one /v1/analyze request's report scratch and response
// body. They are pooled so a warm request renders without growing fresh
// buffers; nothing in them outlives the request that filled them.
type renderBufs struct {
	report, body []byte
}

var renderPool = sync.Pool{New: func() any { return new(renderBufs) }}

// maxPooledRender bounds the buffer capacity returned to the pool, so
// one huge block's rendering is not kept alive for small requests.
const maxPooledRender = 256 << 10

func putRenderBufs(b *renderBufs) {
	if cap(b.report)+cap(b.body) <= maxPooledRender {
		renderPool.Put(b)
	}
}
