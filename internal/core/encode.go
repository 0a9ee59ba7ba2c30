package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/jsonstr"
	"incore/internal/uarch"
)

// ResultSchemaVersion identifies the stable wire encoding of Result.
// Persistence layers (internal/store via internal/pipeline) stamp stored
// entries with it; bump it whenever resultWire changes shape or meaning
// so stale cached analyses self-evict instead of decoding wrongly.
//
// v2 (deliberate bump): Result carries the Coverage report and
// InstrReport the per-instruction match kind. Stores written by v1
// builds self-evict on first read and are recomputed and overwritten —
// a one-time full cold pass, never a wrong decode.
const ResultSchemaVersion = 2

// resultWire mirrors Result minus the Block and Model pointers, which are
// identity, not content: the cache key already pins their content, and the
// decoder reattaches the caller's instances. Field names are part of the
// schema — renaming one is a ResultSchemaVersion bump.
type resultWire struct {
	PortPressure  []float64          `json:"port_pressure"`
	TPBound       float64            `json:"tp_bound"`
	GreedyTPBound float64            `json:"greedy_tp_bound"`
	IssueBound    float64            `json:"issue_bound"`
	CriticalPath  float64            `json:"critical_path"`
	CPPath        []int              `json:"cp_path"`
	LCD           depgraph.LCDResult `json:"lcd"`
	Prediction    float64            `json:"prediction"`
	Bound         string             `json:"bound"`
	Instrs        []InstrReport      `json:"instrs"`
	TotalUops     int                `json:"total_uops"`
	Coverage      Coverage           `json:"coverage"`
}

// MarshalStable encodes the analysis into its stable wire form. The
// encoding is deterministic (fixed field order, shortest round-tripping
// float representation), so equal Results produce equal bytes, and
// float64 values survive a round trip bit-exactly — a warm decode renders
// byte-identical reports.
func (r *Result) MarshalStable() ([]byte, error) {
	return json.Marshal(resultWire{
		PortPressure:  r.PortPressure,
		TPBound:       r.TPBound,
		GreedyTPBound: r.GreedyTPBound,
		IssueBound:    r.IssueBound,
		CriticalPath:  r.CriticalPath,
		CPPath:        r.CPPath,
		LCD:           r.LCD,
		Prediction:    r.Prediction,
		Bound:         r.Bound,
		Instrs:        r.Instrs,
		TotalUops:     r.TotalUops,
		Coverage:      r.Coverage,
	})
}

// UnmarshalStable decodes a MarshalStable payload, reattaching the block
// and machine model the caller analyzed. b and m must carry the same
// content the encoded analysis was computed from (the persistence layers
// guarantee this by keying entries on that content).
//
// It reads exactly the bytes MarshalStable writes — resultWire's fields
// compact, in declaration order, "match" and "unknown_mnemonics" present
// only when non-empty — with a cursor, without encoding/json's
// reflection. Whatever it accepts decodes to the value encoding/json
// would produce (FuzzUnmarshalStable holds it to that): null and [] stay
// nil and empty slices, strings are unescaped as encoding/json unescapes
// them, and numbers get the bits strconv.ParseFloat and ParseInt give,
// as in encoding/json, so floats re-encode to the same bytes. Anything
// else — other spacing or field order, a missing or extra field, bytes
// after the object — is an error, which the store layer turns into an
// eviction and a recompute rather than a result.
//
// Every instruction's PortLoads is a three-index slice of one shared
// backing array, so appending to one never writes into another.
func UnmarshalStable(data []byte, b *isa.Block, m *uarch.Model) (*Result, error) {
	d := stableDecoder{data: data}
	r := &Result{Block: b, Model: m}
	d.lit(`{"port_pressure":`)
	r.PortPressure = d.floats(nil)
	d.lit(`,"tp_bound":`)
	r.TPBound = d.float()
	d.lit(`,"greedy_tp_bound":`)
	r.GreedyTPBound = d.float()
	d.lit(`,"issue_bound":`)
	r.IssueBound = d.float()
	d.lit(`,"critical_path":`)
	r.CriticalPath = d.float()
	d.lit(`,"cp_path":`)
	r.CPPath = d.ints()
	d.lit(`,"lcd":{"Cycles":`)
	r.LCD.Cycles = d.float()
	d.lit(`,"Path":`)
	r.LCD.Path = d.ints()
	d.lit(`,"ViaAccumulator":`)
	r.LCD.ViaAccumulator = d.bool()
	d.lit(`},"prediction":`)
	r.Prediction = d.float()
	d.lit(`,"bound":`)
	r.Bound = d.str()
	d.lit(`,"instrs":`)
	r.Instrs = d.instrs(len(r.PortPressure))
	d.lit(`,"total_uops":`)
	r.TotalUops = d.int()
	d.lit(`,"coverage":{"exact":`)
	r.Coverage.Exact = d.int()
	d.lit(`,"fallback":`)
	r.Coverage.Fallback = d.int()
	d.lit(`,"unknown":`)
	r.Coverage.Unknown = d.int()
	if d.peek(`,"unknown_mnemonics":`) {
		r.Coverage.UnknownMnemonics = d.strs()
	}
	d.lit(`}}`)
	if d.err == nil && d.pos != len(d.data) {
		d.fail("end of payload")
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding stored result: %w", d.err)
	}
	return r, nil
}

// stableDecoder is UnmarshalStable's cursor. The first failure sticks:
// it is recorded in err, and every later read returns a zero value.
type stableDecoder struct {
	data []byte
	pos  int
	err  error
}

func (d *stableDecoder) fail(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: want %s", d.pos, want)
	}
}

// peek consumes s if the input continues with it.
func (d *stableDecoder) peek(s string) bool {
	if d.err == nil && len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// lit consumes s or fails.
func (d *stableDecoder) lit(s string) {
	if !d.peek(s) {
		d.fail(strconv.Quote(s))
	}
}

// number consumes one token of JSON's number grammar and returns it.
func (d *stableDecoder) number() []byte {
	if d.err != nil {
		return nil
	}
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		d.fail("number")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		j := skipDigits(data, i+1)
		if j == i+1 {
			d.fail("fraction digits")
			return nil
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			d.fail("exponent digits")
			return nil
		}
		i = j
	}
	tok := data[d.pos:i]
	d.pos = i
	return tok
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

func (d *stableDecoder) float() float64 {
	tok := d.number()
	if tok == nil {
		return 0
	}
	// A token of at most 15 plain digits is an integer below 2^53, exact
	// in a float64, so converting it directly gives ParseFloat's bits.
	// Zero port loads make such tokens most of a payload.
	if len(tok) <= 15 && skipDigits(tok, 0) == len(tok) {
		var n int64
		for _, c := range tok {
			n = n*10 + int64(c-'0')
		}
		return float64(n)
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("float64")
	}
	return f
}

func (d *stableDecoder) int() int {
	tok := d.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.fail("int")
	}
	return int(n)
}

func (d *stableDecoder) bool() bool {
	if d.peek("true") {
		return true
	}
	if !d.peek("false") {
		d.fail("bool")
	}
	return false
}

func (d *stableDecoder) str() string {
	if d.err != nil {
		return ""
	}
	s, rest, ok := jsonstr.Cut(d.data[d.pos:])
	if !ok {
		d.fail("string")
		return ""
	}
	d.pos = len(d.data) - len(rest)
	return s
}

// matchKinds are the InstrReport.Match values the analyzer writes.
var matchKinds = []string{uarch.MatchFallback.String(), uarch.MatchUnknown.String()}

// strFrom is str for a field whose values are usually one of known:
// those decode to the shared string instead of a fresh copy.
func (d *stableDecoder) strFrom(known []string) string {
	if d.err != nil {
		return ""
	}
	rest := d.data[d.pos:]
	for _, s := range known {
		if len(rest) >= len(s)+2 && rest[0] == '"' && rest[len(s)+1] == '"' && string(rest[1:len(s)+1]) == s {
			d.pos += len(s) + 2
			return s
		}
	}
	return d.str()
}

// openArray consumes null (false) or '[' (true).
func (d *stableDecoder) openArray() bool {
	if d.peek("null") {
		return false
	}
	d.lit("[")
	return d.err == nil
}

// numberCount returns the element count of the number array the cursor
// is inside: numbers hold no ',' or ']', so it is exact for any array
// that parses.
func (d *stableDecoder) numberCount() int {
	body := d.data[d.pos:]
	end := bytes.IndexByte(body, ']')
	if end <= 0 {
		return 0
	}
	return bytes.Count(body[:end], comma) + 1
}

var (
	comma      = []byte{','}
	instrStart = []byte(`{"Index":`)
)

// floats reads a null or a number array. Its elements are carved from
// *slab, when slab is non-nil and has room, as a three-index slice.
func (d *stableDecoder) floats(slab *[]float64) []float64 {
	if !d.openArray() {
		return nil
	}
	n := d.numberCount()
	var out []float64
	if slab != nil && n > 0 && cap(*slab)-len(*slab) >= n {
		s := *slab
		out = s[len(s) : len(s)+n : len(s)+n]
		*slab = s[:len(s)+n]
	} else {
		out = make([]float64, n)
	}
	for k := range out {
		if k > 0 {
			d.lit(",")
		}
		out[k] = d.float()
	}
	d.lit("]")
	return out
}

func (d *stableDecoder) ints() []int {
	if !d.openArray() {
		return nil
	}
	out := make([]int, d.numberCount())
	for k := range out {
		if k > 0 {
			d.lit(",")
		}
		out[k] = d.int()
	}
	d.lit("]")
	return out
}

// strs reads a non-empty string array, the only form of an omitempty
// []string field.
func (d *stableDecoder) strs() []string {
	var out []string
	d.lit("[")
	for d.err == nil {
		out = append(out, d.str())
		if !d.peek(",") {
			break
		}
	}
	d.lit("]")
	return out
}

// instrs reads the instruction array. Its length is counted up front:
// the instruction objects' opening bytes cannot occur inside a JSON
// string (a quote there is escaped), so the count is exact for any
// payload that parses. All PortLoads share one slab sized for nPorts
// loads per instruction, capped by what the payload could hold.
func (d *stableDecoder) instrs(nPorts int) []InstrReport {
	if !d.openArray() {
		return nil
	}
	n := bytes.Count(d.data[d.pos:], instrStart)
	out := make([]InstrReport, 0, n)
	if d.peek("]") {
		return out
	}
	slab := make([]float64, 0, min(n*nPorts, len(d.data)/2))
	for d.err == nil {
		var ir InstrReport
		d.lit(`{"Index":`)
		ir.Index = d.int()
		d.lit(`,"Text":`)
		ir.Text = d.str()
		d.lit(`,"Uops":`)
		ir.Uops = d.int()
		d.lit(`,"Lat":`)
		ir.Lat = d.int()
		d.lit(`,"TotalLat":`)
		ir.TotalLat = d.int()
		d.lit(`,"Throughput":`)
		ir.Throughput = d.float()
		d.lit(`,"PortLoads":`)
		ir.PortLoads = d.floats(&slab)
		if d.peek(`,"match":`) {
			if ir.Match = d.strFrom(matchKinds); ir.Match == "" {
				d.fail("non-empty match")
			}
		}
		d.lit("}")
		out = append(out, ir)
		if !d.peek(",") {
			break
		}
	}
	d.lit("]")
	return out
}
