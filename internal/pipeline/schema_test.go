package pipeline

import (
	"bytes"
	"testing"

	"incore/internal/store"
)

// pr5StoreSchema is the wire schema stamped by processes before the
// coverage fields landed in core.Result (persist 1, result schema 1).
// The coverage change bumped core.ResultSchemaVersion deliberately, so
// entries written under this stamp must self-evict rather than decode
// into a Result that silently lacks coverage accounting.
const pr5StoreSchema = 1*1000 + 1

// TestSchemaBumpSelfEvictsOldEntries proves the documented schema-bump
// contract end to end: an entry written by an old-schema process — even
// one whose payload bytes would decode perfectly well today — is evicted
// from disk by the first current-schema lookup, recomputed cold, and
// served warm thereafter.
func TestSchemaBumpSelfEvictsOldEntries(t *testing.T) {
	if StoreSchema() <= pr5StoreSchema {
		t.Fatalf("StoreSchema() = %d, not bumped past the pre-coverage %d; "+
			"adding wire fields without a bump would serve stale results as warm hits",
			StoreSchema(), pr5StoreSchema)
	}

	dir := t.TempDir()
	m, an, tb := genBlock(t, "goldencove", "striad")
	key := "analyze\x00" + an.Fingerprint() + "\x00" + m.Key + "\x00" + BlockKey(tb.Block)

	// Compute once under the current schema purely to obtain payload
	// bytes that the current decoder accepts.
	st0 := withFreshTiers(t, t.TempDir())
	cold, err := Analyze(an, tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := st0.GetValidated(key, nil)
	if !ok {
		t.Fatal("cold analysis did not persist its result")
	}

	// An old-schema process plants that payload in dir and can read it
	// back — the entry is intact, only its schema stamp is old.
	stOld, err := store.Open(dir, store.Options{Schema: pr5StoreSchema})
	if err != nil {
		t.Fatal(err)
	}
	stOld.Put(key, payload)
	if got, ok := stOld.GetValidated(key, nil); !ok || !bytes.Equal(got, payload) {
		t.Fatal("old-schema store cannot read its own entry back")
	}

	// A current-schema process over the same directory must treat the
	// entry as stale: evicted and recomputed, never decoded — even
	// though the payload itself would decode.
	st1 := withFreshTiers(t, dir)
	r, err := Analyze(an, tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := st1.Stats(); got.Warm() != 0 || got.Misses != 1 || got.Evictions != 1 {
		t.Fatalf("stats over old-schema entry = %+v; want 0 warm, 1 miss, 1 eviction", got)
	}
	if r.Report() != cold.Report() {
		t.Errorf("recomputed report differs from reference:\n%s\nvs\n%s", r.Report(), cold.Report())
	}

	// The eviction rewrote the entry under the current schema: a third
	// process serves it warm with byte-identical rendering.
	st2 := withFreshTiers(t, dir)
	warm, err := Analyze(an, tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.Misses != 0 || got.DiskHits != 1 {
		t.Fatalf("warm stats after schema eviction = %+v; want 0 misses, 1 disk hit", got)
	}
	if warm.Report() != cold.Report() {
		t.Errorf("warm report differs after schema eviction")
	}

	// And the stale file really is gone from disk, not merely skipped:
	// the old-schema handle that planted it now misses too.
	if _, ok := stOld.GetValidated(key, nil); ok {
		t.Fatal("old-schema entry still readable from disk after self-eviction")
	}
}
