package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

const encodeTestLoop = `
.L0:
	vmovupd (%rsi,%rax,8), %zmm0
	vfmadd231pd (%rdx,%rax,8), %zmm15, %zmm0
	vmovupd %zmm0, (%rdi,%rax,8)
	addq $8, %rax
	cmpq %rbx, %rax
	jb .L0
`

func analyzeTriad(t *testing.T) (*Result, *isa.Block, *uarch.Model) {
	t.Helper()
	m, err := uarch.Get("goldencove")
	if err != nil {
		t.Fatalf("uarch.Get: %v", err)
	}
	b, err := isa.ParseBlock("triad", m.Key, m.Dialect, encodeTestLoop)
	if err != nil {
		t.Fatalf("ParseBlock: %v", err)
	}
	r, err := New().Analyze(b, m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return r, b, m
}

func TestStableRoundTrip(t *testing.T) {
	r, b, m := analyzeTriad(t)
	data, err := r.MarshalStable()
	if err != nil {
		t.Fatalf("MarshalStable: %v", err)
	}
	got, err := UnmarshalStable(data, b, m)
	if err != nil {
		t.Fatalf("UnmarshalStable: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, r)
	}
	// The rendered report — what experiments and the HTTP API emit — must
	// be byte-identical, or warm runs would not reproduce cold output.
	if got.Report() != r.Report() {
		t.Errorf("round-tripped report differs:\n%s\nvs\n%s", got.Report(), r.Report())
	}
}

func TestMarshalStableDeterministic(t *testing.T) {
	r, _, _ := analyzeTriad(t)
	a, err := r.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("encoding not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestUnmarshalStableRejectsGarbage(t *testing.T) {
	_, b, m := analyzeTriad(t)
	if _, err := UnmarshalStable([]byte("{truncated"), b, m); err == nil {
		t.Fatal("UnmarshalStable accepted corrupt input")
	}
}

// decodeOracle is the reflective decoding UnmarshalStable replaced:
// encoding/json into resultWire. UnmarshalStable must agree with it on
// every input it accepts.
func decodeOracle(data []byte, b *isa.Block, m *uarch.Model) (*Result, error) {
	var w resultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &Result{
		Block:         b,
		Model:         m,
		PortPressure:  w.PortPressure,
		TPBound:       w.TPBound,
		GreedyTPBound: w.GreedyTPBound,
		IssueBound:    w.IssueBound,
		CriticalPath:  w.CriticalPath,
		CPPath:        w.CPPath,
		LCD:           w.LCD,
		Prediction:    w.Prediction,
		Bound:         w.Bound,
		Instrs:        w.Instrs,
		TotalUops:     w.TotalUops,
		Coverage:      w.Coverage,
	}, nil
}

// edgeResults are hand-built results covering the encoding's optional
// shapes: nil against empty slices, escaped text, "match" present and
// absent, and "unknown_mnemonics" present.
func edgeResults() []*Result {
	return []*Result{
		{},
		{
			PortPressure: []float64{},
			CPPath:       []int{},
			LCD:          depgraph.LCDResult{Path: []int{}, ViaAccumulator: true},
			Instrs:       []InstrReport{},
		},
		{
			PortPressure: []float64{0.5, 1e-7, 1e21, -0.25},
			TPBound:      1.5, GreedyTPBound: 2, IssueBound: 0.75, CriticalPath: 3,
			CPPath:     []int{0, 2},
			LCD:        depgraph.LCDResult{Cycles: 4, Path: []int{1}},
			Prediction: 4, Bound: "lcd",
			Instrs: []InstrReport{
				{Index: 0, Text: "vaddpd %ymm0, %ymm1, %ymm2", Uops: 1, Lat: 4, TotalLat: 4, Throughput: 0.5, PortLoads: []float64{0.5, 0, 0, 0}},
				{Index: 1, Text: "a\"b\\c\n\t<&> \u2028\u2029\x01 é 😀", PortLoads: []float64{}, Match: "fallback"},
				{Index: 2, Text: "", Match: "unknown"},
			},
			TotalUops: 2,
			Coverage:  Coverage{Exact: 1, Fallback: 1, Unknown: 1, UnknownMnemonics: []string{"foo", "b<r"}},
		},
	}
}

// nonCanonical rewrites a canonical payload into JSON that encoding/json
// reads but MarshalStable never writes.
var nonCanonical = map[string]func(string) string{
	"space after brace": func(s string) string { return strings.Replace(s, "{", "{ ", 1) },
	"space after colon": func(s string) string { return strings.Replace(s, `"tp_bound":`, `"tp_bound": `, 1) },
	"trailing newline":  func(s string) string { return s + "\n" },
	"leading space":     func(s string) string { return " " + s },
	"reordered fields": func(s string) string {
		return strings.Replace(s, `"tp_bound":1.5,"greedy_tp_bound":2`, `"greedy_tp_bound":2,"tp_bound":1.5`, 1)
	},
	"plus sign":       func(s string) string { return strings.Replace(s, `"greedy_tp_bound":2`, `"greedy_tp_bound":+2`, 1) },
	"uppercase field": func(s string) string { return strings.Replace(s, `"tp_bound"`, `"TP_bound"`, 1) },
	"unknown field":   func(s string) string { return strings.Replace(s, `{"port_pressure"`, `{"x":1,"port_pressure"`, 1) },
	"missing field":   func(s string) string { return strings.Replace(s, `"tp_bound":1.5,`, ``, 1) },
	"null number":     func(s string) string { return strings.Replace(s, `"tp_bound":1.5`, `"tp_bound":null`, 1) },
	"empty match": func(s string) string {
		return strings.Replace(s, `"PortLoads":[0.5,0,0,0]`, `"PortLoads":[0.5,0,0,0],"match":""`, 1)
	},
	"escaped field name": func(s string) string { return strings.Replace(s, `"bound":`, `"bo\u0075nd":`, 1) },
}

// agreeing rewrites into JSON MarshalStable never writes either, but
// which UnmarshalStable may accept because encoding/json reads it to
// the same value.
var agreeing = map[string]func(string) string{
	"exponent":      func(s string) string { return strings.Replace(s, `"greedy_tp_bound":2`, `"greedy_tp_bound":0.02E2`, 1) },
	"trailing zero": func(s string) string { return strings.Replace(s, `"greedy_tp_bound":2`, `"greedy_tp_bound":2.0`, 1) },
	"negative zero": func(s string) string { return strings.Replace(s, `"greedy_tp_bound":2`, `"greedy_tp_bound":-0`, 1) },
	"long integer": func(s string) string {
		return strings.Replace(s, `"greedy_tp_bound":2`, `"greedy_tp_bound":123456789012345678`, 1)
	},
	"escaped slash": func(s string) string { return strings.Replace(s, `"bound":"lcd"`, `"bound":"l\/cd"`, 1) },
	"unicode escape": func(s string) string {
		return strings.Replace(s, `"bound":"lcd"`, `"bound":"lcd\ud83d\ude00\ud800"`, 1)
	},
}

func TestUnmarshalStableEdgeShapes(t *testing.T) {
	for i, r := range edgeResults() {
		data, err := r.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalStable(data, nil, nil)
		if err != nil {
			t.Fatalf("edge %d: %v\n%s", i, err, data)
		}
		want, err := decodeOracle(data, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("edge %d: decoded %+v, encoding/json %+v", i, got, want)
		}
		again, err := got.MarshalStable()
		if err != nil || !bytes.Equal(again, data) {
			t.Errorf("edge %d: re-encoded\n%s\nwant\n%s", i, again, data)
		}
	}
}

func TestUnmarshalStableRejectsNonCanonical(t *testing.T) {
	data, err := edgeResults()[2].MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	for name, rewrite := range nonCanonical {
		in := rewrite(string(data))
		if in == string(data) {
			t.Fatalf("%s: rewrite did not apply", name)
		}
		if _, err := UnmarshalStable([]byte(in), nil, nil); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
	for name, rewrite := range agreeing {
		in := rewrite(string(data))
		got, err := UnmarshalStable([]byte(in), nil, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := decodeOracle([]byte(in), nil, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json %+v (%v)", name, got, want, err)
		}
	}
}

// suiteResults analyzes all 416 suite blocks, each on its own model.
func suiteResults(tb testing.TB) []*Result {
	tb.Helper()
	suite, err := kernels.FullSuite()
	if err != nil {
		tb.Fatal(err)
	}
	an := New()
	out := make([]*Result, 0, len(suite))
	for _, s := range suite {
		m, err := uarch.Get(s.Config.Arch)
		if err != nil {
			tb.Fatal(err)
		}
		r, err := an.Analyze(s.Block, m)
		if err != nil {
			tb.Fatalf("%s: %v", s.Block.Name, err)
		}
		out = append(out, r)
	}
	return out
}

func TestStableRoundTripSuite(t *testing.T) {
	results := suiteResults(t)
	if len(results) != 416 {
		t.Fatalf("suite has %d blocks, want 416", len(results))
	}
	for _, r := range results {
		data, err := r.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalStable(data, r.Block, r.Model)
		if err != nil {
			t.Fatalf("%s/%s: %v", r.Model.Key, r.Block.Name, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s/%s: round trip diverged", r.Model.Key, r.Block.Name)
		}
		again, err := got.MarshalStable()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s/%s: re-encoding differs", r.Model.Key, r.Block.Name)
		}
	}
}

// FuzzUnmarshalStable holds the cursor decoder to encoding/json: any
// input it accepts, encoding/json accepts too, with a DeepEqual value
// that also re-encodes to the same bytes (DeepEqual compares floats with
// ==, which does not tell -0 from 0).
func FuzzUnmarshalStable(f *testing.F) {
	seen := map[string]bool{}
	add := func(data []byte) {
		if !seen[string(data)] {
			seen[string(data)] = true
			f.Add(data)
		}
	}
	for _, r := range append(suiteResults(f), edgeResults()...) {
		data, err := r.MarshalStable()
		if err != nil {
			f.Fatal(err)
		}
		add(data)
	}
	edge, err := edgeResults()[2].MarshalStable()
	if err != nil {
		f.Fatal(err)
	}
	for _, rewrites := range []map[string]func(string) string{nonCanonical, agreeing} {
		for _, rewrite := range rewrites {
			add([]byte(rewrite(string(edge))))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalStable(data, nil, nil)
		if err != nil {
			return
		}
		want, err := decodeOracle(data, nil, nil)
		if err != nil {
			t.Fatalf("accepted input encoding/json rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, encoding/json %+v, from %q", got, want, data)
		}
		gotBytes, err1 := got.MarshalStable()
		wantBytes, err2 := want.MarshalStable()
		if err1 != nil || err2 != nil || !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("re-encoded %q, encoding/json's value %q (%v, %v)", gotBytes, wantBytes, err1, err2)
		}
	})
}
