package uarch

import (
	"bytes"
	"testing"
)

// clone returns a deep-enough copy for the mutations these tests apply.
func clone(t *testing.T, m *Model) *Model {
	t.Helper()
	c := *m
	c.Ports = append([]string(nil), m.Ports...)
	c.Entries = append([]Entry(nil), m.Entries...)
	if m.Node != nil {
		nc := *m.Node
		if m.Node.ECM != nil {
			ec := *m.Node.ECM
			nc.ECM = &ec
		}
		if m.Node.Freq != nil {
			fc := *m.Node.Freq
			nc.Freq = &fc
		}
		c.Node = &nc
	}
	if err := c.Reindex(); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestPortSignatureShape(t *testing.T) {
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		m := MustGet(key)
		sig := m.PortSignature()
		if len(sig) != 64 {
			t.Fatalf("%s: signature length %d, want 64 hex chars", key, len(sig))
		}
		if sig == m.Fingerprint() {
			t.Fatalf("%s: port signature equals full fingerprint — the node section is not being excluded", key)
		}
	}
}

// TestPortSignatureNodeInvariance pins the sharing contract: edits to
// node-level, clocking, labeling, and documentation fields leave the
// port signature unchanged (artifacts stay shared) while the full
// fingerprint — the result cache identity — changes.
func TestPortSignatureNodeInvariance(t *testing.T) {
	base := MustGet("goldencove")
	mutations := []struct {
		name string
		mut  func(m *Model)
	}{
		{"mem bandwidth", func(m *Model) { m.Node.MemBWGBs *= 2 }},
		{"tdp", func(m *Model) { m.Node.Freq.TDPWatts -= 100 }},
		{"base freq", func(m *Model) { m.BaseFreqGHz += 0.5 }},
		{"max freq", func(m *Model) { m.MaxFreqGHz -= 0.5 }},
		{"cores", func(m *Model) { m.CoresPerChip = 8 }},
		{"name", func(m *Model) { m.Name = "What-If Cove" }},
		{"cpu label", func(m *Model) { m.CPU = "Xeon w9-0000X" }},
		{"entry notes", func(m *Model) { m.Entries[0].Notes = "edited provenance comment" }},
	}
	for _, tc := range mutations {
		c := clone(t, base)
		tc.mut(c)
		if err := c.Reindex(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.PortSignature() != base.PortSignature() {
			t.Errorf("%s: port signature changed — node-only variants would recompile artifacts", tc.name)
		}
		if tc.name != "entry notes" && c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: fingerprint unchanged — results of a different scenario would collide", tc.name)
		}
	}
}

// TestPortSignatureInCoreSensitivity: edits to anything descriptor
// resolution, port analysis, or the simulator reads must change the
// signature, or a variant would be served another variant's artifacts.
func TestPortSignatureInCoreSensitivity(t *testing.T) {
	base := MustGet("goldencove")
	mutations := []struct {
		name string
		mut  func(m *Model)
	}{
		{"issue width", func(m *Model) { m.IssueWidth++ }},
		{"rob size", func(m *Model) { m.ROBSize /= 2 }},
		{"scheduler size", func(m *Model) { m.SchedSize += 16 }},
		{"load latency", func(m *Model) { m.LoadLat++ }},
		{"load ports", func(m *Model) { m.LoadPorts &^= 1 << uint(m.LoadPorts.Indices()[0]) }},
		{"port list", func(m *Model) { m.Ports = append(m.Ports, "extra") }},
		{"entry latency", func(m *Model) { m.Entries[0].Lat++ }},
		{"unknown policy", func(m *Model) { m.Unknown = &UnknownPolicy{Lat: 7} }},
	}
	for _, tc := range mutations {
		c := clone(t, base)
		tc.mut(c)
		if err := c.Reindex(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.PortSignature() == base.PortSignature() {
			t.Errorf("%s: port signature unchanged — mis-parameterized artifacts would be shared", tc.name)
		}
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: fingerprint unchanged", tc.name)
		}
	}
}

// TestPortSignatureRoundTrip: a machine file read back from its wire
// form carries the same signature — the signature is content, not
// process identity.
func TestPortSignatureRoundTrip(t *testing.T) {
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		m := MustGet(key)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rt, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if rt.PortSignature() != m.PortSignature() {
			t.Fatalf("%s: signature changed across serialization round trip", key)
		}
	}
}

// TestBuiltinIdentitiesPinned pins each built-in's full fingerprint and
// port signature. Every variant's cache key and every stored sweep cell
// derive from them, so a refactor of the built-ins (or of the encodings
// they hash) that moves either value turns existing stores cold.
func TestBuiltinIdentitiesPinned(t *testing.T) {
	for _, tc := range []struct{ key, fingerprint, portSig string }{
		{"goldencove", "7ec5050b372e86dc662dd5eee6427c9762775de4f590cb25fcc46c0f9fe882aa", "01071fa59ff2219ce0547b881a0941aad2cd416dae52bc0875c4c116359e67be"},
		{"neoversev2", "42c33cb8a6d87a5909d9d93583100e369d2f014923d0e55fa6c1c606bf844990", "243f31f6e07a2bb47bcfa0b24ebe8124ebe6562bda9e16cd99fe24e48291d0c4"},
		{"zen4", "06da6c3b7354f9da41adf9c6b72e5a28a909785c72701aa76096cb49c3227f39", "d52237e52ac7df0ef610bba5ec628e0b4894a21e26d81c443fcfa33e36f56c6d"},
	} {
		m := MustGet(tc.key)
		if got := m.Fingerprint(); got != tc.fingerprint {
			t.Errorf("%s: Fingerprint() = %s, want %s", tc.key, got, tc.fingerprint)
		}
		if got := m.PortSignature(); got != tc.portSig {
			t.Errorf("%s: PortSignature() = %s, want %s", tc.key, got, tc.portSig)
		}
	}
}
