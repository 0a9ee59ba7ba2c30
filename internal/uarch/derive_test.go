package uarch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// reindexed applies apply to a clone of base and reindexes it from
// scratch: the path Derive must agree with.
func reindexed(t *testing.T, base *Model, apply func(*Model) error) (*Model, error) {
	t.Helper()
	c := base.cloneForMutation()
	if err := apply(c); err != nil {
		t.Fatal(err)
	}
	return c, c.Reindex()
}

// checkDerived requires the derived model's identities to be the
// whole-model ones: sha256 of WriteJSON, and what Reindex computes.
func checkDerived(t *testing.T, name string, d *Deriver, base *Model, apply func(*Model) error, wantShared bool) *Model {
	t.Helper()
	m, err := d.Derive(apply)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := d.tableUnchanged(m); got != wantShared {
		t.Fatalf("%s: shared table = %v, want %v", name, got, wantShared)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := m.Fingerprint(), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s: fingerprint %s, sha256(WriteJSON) %s", name, got[:12], want[:12])
	}
	ref, err := reindexed(t, base, apply)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != ref.Fingerprint() || m.PortSignature() != ref.PortSignature() || m.CacheKey() != ref.CacheKey() {
		t.Fatalf("%s: identities differ from a reindexed clone", name)
	}
	for _, e := range ref.Entries {
		if got, ok := m.find(e.Mnemonic, e.Sig, e.Width); !ok || got.Lat != e.Lat {
			t.Fatalf("%s: entry %s/%s/%d does not resolve to itself", name, e.Mnemonic, e.Sig, e.Width)
		}
	}
	return m
}

func TestDeriveSharesTheBaseTable(t *testing.T) {
	base := MustGet("goldencove")
	d := NewDeriver(base)
	m := checkDerived(t, "node", d, base, func(m *Model) error { m.Node.MemBWGBs = 123; return nil }, true)
	if m.PortSignature() != base.PortSignature() || m.Fingerprint() == base.Fingerprint() {
		t.Fatal("a node-only variant must keep the port signature and change the fingerprint")
	}
	checkDerived(t, "grown ports", d, base, func(m *Model) error {
		m.Ports = append(m.Ports, "ld#extra")
		m.LoadPorts |= 1 << uint(len(m.Ports)-1)
		return nil
	}, true)
	checkDerived(t, "same entries, resliced", d, base, func(m *Model) error {
		m.Entries = m.Entries[:len(m.Entries):len(m.Entries)]
		return nil
	}, true)
}

// TestDeriveFallsBackWhenTheTableMayChange covers the two ways apply can
// change what the table encodes to: replacing the entries, and renaming a
// port the entries refer to by name.
func TestDeriveFallsBackWhenTheTableMayChange(t *testing.T) {
	base := MustGet("zen4")
	d := NewDeriver(base)
	m := checkDerived(t, "reassigned entries", d, base, func(m *Model) error {
		m.Entries = append([]Entry(nil), m.Entries...)
		m.Entries[0].Lat++
		return nil
	}, false)
	if m.Fingerprint() == base.Fingerprint() || m.PortSignature() == base.PortSignature() {
		t.Fatal("a latency change must change both identities")
	}
	checkDerived(t, "shortened entries", d, base, func(m *Model) error {
		m.Entries = m.Entries[:len(m.Entries)-1]
		return nil
	}, false)
	m = checkDerived(t, "renamed port", d, base, func(m *Model) error {
		m.Ports[0] += "'"
		return nil
	}, false)
	if m.PortSignature() == base.PortSignature() {
		t.Fatal("renaming a port must change the port signature")
	}
}

// TestDeriveReadsTheBaseAsItIs pins that a Deriver encodes and indexes
// the base's current entries, not what the base's last index saw.
func TestDeriveReadsTheBaseAsItIs(t *testing.T) {
	base := MustGet("neoversev2").cloneForMutation()
	base.Entries = append([]Entry(nil), base.Entries...)
	if err := base.Reindex(); err != nil {
		t.Fatal(err)
	}
	stale := base.Fingerprint()
	base.Entries[3].Lat += 2
	d := NewDeriver(base)
	m := checkDerived(t, "stale base", d, base, func(*Model) error { return nil }, true)
	if m.Fingerprint() == stale {
		t.Fatal("derived fingerprint reflects the base's stale index")
	}
}

func TestDeriveErrorsLikeReindex(t *testing.T) {
	base := MustGet("goldencove")
	apply := func(m *Model) error { m.ROBSize = m.IssueWidth - 1; return nil }
	_, got := NewDeriver(base).Derive(apply)
	_, want := reindexed(t, base, apply)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("Derive error %v, Reindex error %v", got, want)
	}

	// Entries invalid on the base's ports never share a table: a variant
	// that adds the missing port is valid, one that does not is not.
	bad := base.cloneForMutation()
	bad.Entries = append([]Entry(nil), bad.Entries...)
	bad.Entries[0].Uops = []Uop{{Ports: 1 << uint(len(bad.Ports)), Cycles: 1}}
	d := NewDeriver(bad)
	checkDerived(t, "port added", d, bad, func(m *Model) error {
		m.Ports = append(m.Ports, "extra")
		return nil
	}, false)
	noop := func(*Model) error { return nil }
	_, got = d.Derive(noop)
	_, want = reindexed(t, bad, noop)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("Derive error %v, Reindex error %v", got, want)
	}
}
