package uarch

import (
	"bytes"
	"encoding/json"
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

// editedMachine reads the embedded machine file of a built-in, lets edit
// change its decoded JSON, and loads the re-encoded file with ReadJSON.
func editedMachine(t *testing.T, key string, edit func(mf map[string]any)) (*Model, error) {
	t.Helper()
	data, err := machineFiles.ReadFile("machines/" + key + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var mf map[string]any
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	edit(mf)
	out, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	return ReadJSON(bytes.NewReader(out))
}

// section returns the object at path in a decoded machine file.
func section(mf map[string]any, path ...string) map[string]any {
	for _, name := range path {
		mf = mf[name].(map[string]any)
	}
	return mf
}

// TestMachineFileECMOverlap: the ECM overlap list is a set of known
// levels. Order and repeats in the file do not reach the model's
// identity, and an unknown level or field is refused by name.
func TestMachineFileECMOverlap(t *testing.T) {
	withOverlap := func(levels ...any) (*Model, error) {
		return editedMachine(t, "neoversev2", func(mf map[string]any) {
			mf["key"] = "nv2o"
			section(mf, "node", "ecm")["overlap"] = levels
		})
	}
	canonical, err := withOverlap("l1l2", "l2l3")
	if err != nil {
		t.Fatal(err)
	}
	messy, err := withOverlap("l2l3", "l1l2", "l2l3")
	if err != nil {
		t.Fatal(err)
	}
	if messy.Fingerprint() != canonical.Fingerprint() {
		t.Errorf("overlap [l2l3 l1l2 l2l3] fingerprints %s, [l1l2 l2l3] %s", messy.Fingerprint(), canonical.Fingerprint())
	}
	if !reflect.DeepEqual(messy.Node, canonical.Node) {
		t.Errorf("overlap order reached the model: %+v vs %+v", messy.Node.ECM, canonical.Node.ECM)
	}
	_, err = withOverlap("l2l3", "l4mem")
	if want := `uarch: machine file: unknown ECM overlap level "l4mem"`; err == nil || err.Error() != want {
		t.Errorf("unknown overlap level: err = %v, want %q", err, want)
	}
	_, err = editedMachine(t, "neoversev2", func(mf map[string]any) {
		section(mf, "node", "ecm")["bogus"] = 1
	})
	if want := `uarch: machine file: json: unknown field "bogus"`; err == nil || err.Error() != want {
		t.Errorf("unknown node.ecm field: err = %v, want %q", err, want)
	}
}

// TestMachineFileNodeEditsKeepPortSignature: the node section is not
// in-core content, so editing only node fields in a machine file moves
// the fingerprint and leaves the port signature where it was.
func TestMachineFileNodeEditsKeepPortSignature(t *testing.T) {
	edits := []struct {
		name string
		edit func(mf map[string]any)
	}{
		{"bandwidth", func(mf map[string]any) { section(mf, "node")["mem_bandwidth_gbs"] = 100.5 }},
		{"flops", func(mf map[string]any) { section(mf, "node")["flops_per_cycle"] = 8 }},
		{"overlap", func(mf map[string]any) { section(mf, "node", "ecm")["overlap"] = []any{"l3mem"} }},
		{"l1l2", func(mf map[string]any) { section(mf, "node", "ecm")["l1_l2_bytes_per_cycle"] = 48 }},
		{"tdp", func(mf map[string]any) { section(mf, "node", "freq")["tdp_watts"] = 180 }},
		{"no ecm", func(mf map[string]any) { delete(section(mf, "node"), "ecm") }},
		{"no node", func(mf map[string]any) { delete(mf, "node") }},
	}
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		base := MustGet(key)
		for _, tc := range edits {
			m, err := editedMachine(t, key, tc.edit)
			if err != nil {
				t.Fatalf("%s %s: %v", key, tc.name, err)
			}
			if m.PortSignature() != base.PortSignature() {
				t.Errorf("%s %s: port signature moved", key, tc.name)
			}
			if m.Fingerprint() == base.Fingerprint() {
				t.Errorf("%s %s: fingerprint did not move", key, tc.name)
			}
		}
	}
}

// TestMachineFileGovernorNeedsWidestCeiling: sustained-peak ceilings
// evaluate the governor at its widest extension, so a governor without a
// frequency ceiling there is refused when the file loads, not when a
// roofline is first asked for.
func TestMachineFileGovernorNeedsWidestCeiling(t *testing.T) {
	cases := []struct {
		name string
		edit func(freq map[string]any)
	}{
		{"named widest", func(freq map[string]any) {}},
		{"derived widest", func(freq map[string]any) { delete(freq, "widest_vector_ext") }},
	}
	for _, tc := range cases {
		_, err := editedMachine(t, "zen4", func(mf map[string]any) {
			mf["key"] = "z4nf"
			freq := section(mf, "node", "freq")
			delete(section(freq, "max_freq_ghz"), "avx512")
			tc.edit(freq)
		})
		want := `uarch: model z4nf: governor has no frequency ceiling for its widest extension "avx512"`
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
}
