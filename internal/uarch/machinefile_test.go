package uarch

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"incore/internal/isa"
)

// TestMachineFileRoundTrip exports every built-in model and reloads it,
// checking that lookups behave identically.
func TestMachineFileRoundTrip(t *testing.T) {
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		orig := MustGet(key)
		var buf bytes.Buffer
		if err := orig.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: write: %v", orig.Key, err)
		}
		loaded, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", orig.Key, err)
		}
		if loaded.Key != orig.Key || len(loaded.Ports) != len(orig.Ports) {
			t.Errorf("%s: identity fields lost", orig.Key)
		}
		if len(loaded.Entries) != len(orig.Entries) {
			t.Fatalf("%s: entries %d -> %d", orig.Key, len(orig.Entries), len(loaded.Entries))
		}
		if loaded.LoadPorts != orig.LoadPorts ||
			loaded.StoreAGUPorts != orig.StoreAGUPorts ||
			loaded.StoreDataPorts != orig.StoreDataPorts ||
			loaded.WideLoadPorts != orig.WideLoadPorts {
			t.Errorf("%s: port masks changed", orig.Key)
		}
		// The content fingerprint survives the round trip, which is what
		// keeps a re-loaded built-in on the bare (warm-store-compatible)
		// cache key.
		if loaded.Fingerprint() != orig.Fingerprint() {
			t.Errorf("%s: fingerprint changed across round trip", orig.Key)
		}
		if loaded.CacheKey() != orig.Key {
			t.Errorf("%s: round-tripped built-in CacheKey = %q", orig.Key, loaded.CacheKey())
		}
		// The node-level section (ECM, governor, roofline calibration)
		// round-trips exactly.
		if !reflect.DeepEqual(loaded.Node, orig.Node) {
			t.Errorf("%s: node-level parameters changed: %+v vs %+v", orig.Key, loaded.Node, orig.Node)
		}
		// A lookup through the reloaded model matches the original.
		var src string
		if orig.Dialect == isa.DialectX86 {
			src = "\tvaddpd %ymm1, %ymm2, %ymm3\n"
		} else {
			src = "\tfadd v0.2d, v1.2d, v2.2d\n"
		}
		b, err := isa.ParseBlock("t", orig.Key, orig.Dialect, src)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := lookup(orig, &b.Instrs[0])
		if err != nil {
			t.Fatal(err)
		}
		d2, err := lookup(loaded, &b.Instrs[0])
		if err != nil {
			t.Fatalf("%s: reloaded lookup: %v", orig.Key, err)
		}
		if d1.Lat != d2.Lat || len(d1.Uops) != len(d2.Uops) ||
			d1.Uops[0].Ports != d2.Uops[0].Ports {
			t.Errorf("%s: lookup semantics changed after round trip", orig.Key)
		}
	}
}

func TestMachineFileRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"key":"x","dialect":"mips","ports":["0"]}`,
		`{"key":"x","name":"X","dialect":"x86","ports":["0"],
		  "issue_width":4,"decode_width":4,"retire_width":4,"rob_size":64,
		  "scheduler_size":16,"load_latency":4,"vec_width":128,
		  "load_ports":["NOPE"],"store_agu_ports":["0"],"store_data_ports":["0"],
		  "load_width_bits":128,"store_width_bits":128,
		  "cores_per_chip":1,"base_freq_ghz":1,"max_freq_ghz":1,
		  "fp_vector_units":1,"int_units":1,"instructions":[]}`,
		`{"unknown_field": 1}`,
	}
	for i, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestMachineFileRejectsTrailingData: a machine file is exactly one JSON
// document; concatenated or truncated-then-appended files must fail
// loudly instead of silently dropping the tail.
func TestMachineFileRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := MustGet("zen4").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	for _, tail := range []string{"garbage", "{}", `{"key":"x"}`, "[1,2]", "null"} {
		if _, err := ReadJSON(strings.NewReader(valid + tail)); err == nil {
			t.Errorf("trailing %q must be rejected", tail)
		} else if !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("trailing %q: unexpected error: %v", tail, err)
		}
	}
	// Trailing whitespace is not data; the canonical form itself ends in
	// a newline.
	if _, err := ReadJSON(strings.NewReader(valid + "\n\t \n")); err != nil {
		t.Errorf("trailing whitespace must be accepted: %v", err)
	}
}

func TestMachineFileValidatesSemantics(t *testing.T) {
	// A structurally valid file with an impossible latency must be
	// rejected by the embedded Validate.
	src := `{"key":"x","name":"X","cpu":"c","vendor":"v","dialect":"x86",
	  "ports":["0","1"],
	  "issue_width":4,"decode_width":4,"retire_width":4,"rob_size":64,
	  "scheduler_size":16,
	  "load_ports":["0"],"store_agu_ports":["0"],"store_data_ports":["1"],
	  "load_latency":0,"load_width_bits":128,"store_width_bits":128,
	  "vec_width":128,"cores_per_chip":1,"base_freq_ghz":1,"max_freq_ghz":1,
	  "fp_vector_units":1,"int_units":1,
	  "instructions":[]}`
	if _, err := ReadJSON(strings.NewReader(src)); err == nil {
		t.Error("zero load latency must be rejected")
	}
}

func TestMachineFileHumanReadable(t *testing.T) {
	var buf bytes.Buffer
	if err := MustGet("zen4").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"vaddpd"`, `"FP2"`, `"load_ports"`, `"aarch64"`} {
		if want == `"aarch64"` {
			continue // zen4 is x86
		}
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
	if !strings.Contains(out, `"x86"`) {
		t.Error("dialect missing")
	}
}
