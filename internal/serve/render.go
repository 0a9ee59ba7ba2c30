package serve

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// AppendAnalyzeResponse appends the bytes /v1/analyze writes for r: its
// JSON encoding exactly as encoding/json's Encoder with SetIndent("",
// "  ") produces it, trailing newline included. It is the one renderer
// of the type; MarshalJSON is its compact form. bench/probes.go's
// serve.encode probe still rebuilds the response and encodes it through
// encoding/json; under ROADMAP item 1 it should call this instead.
func AppendAnalyzeResponse(dst []byte, r *AnalyzeResponse) []byte {
	return appendResponse(dst, r, r.Report, true)
}

// MarshalJSON renders r compactly through the same appender, so
// /v1/batch items and job records (which go through encoding/json) come
// out byte-identical to the reflective encoding they replace.
func (r AnalyzeResponse) MarshalJSON() ([]byte, error) {
	return appendResponse(nil, &r, r.Report, false), nil
}

// appendResponse renders r with report in place of r.Report, so the
// handler can escape a report rendered into a scratch buffer without
// turning it into a string. Every float in a response is finite: the
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
			e.b = appendJSONString(e.b, m)
		}
		e.close(']')
	}
	e.close('}')
	e.key("report")
	e.b = appendJSONString(e.b, report)
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
	e.b = appendJSONString(e.b, v)
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

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries unescaped when
// HTML escaping is on.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendJSONString appends s as a JSON string escaped as encoding/json
// escapes with HTML escaping on: '"' and '\\' backslashed; \b \f \n \r
// \t short forms; other control bytes and '<', '>', '&' as \u00XX;
// U+2028 and U+2029 as \u2028 and \u2029; each invalid UTF-8 byte as
// \ufffd. Everything else is copied.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
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
