package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fakeRemote is an in-memory Remote with scriptable behavior.
type fakeRemote struct {
	mu      sync.Mutex
	entries map[string][]byte
	gets    int
	puts    int
	// serve overrides Get entirely when non-nil.
	serve func(key string) ([]byte, bool)
}

func newFakeRemote() *fakeRemote { return &fakeRemote{entries: map[string][]byte{}} }

func (f *fakeRemote) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.serve != nil {
		return f.serve(key)
	}
	p, ok := f.entries[key]
	return p, ok
}

func (f *fakeRemote) Put(key string, payload []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.entries[key] = payload
}

func (f *fakeRemote) counts() (gets, puts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets, f.puts
}

// TestRemoteHitPopulatesLocalTiers: a disk miss that the peer answers is
// written to disk, counted as a remote hit (warm), and never consulted
// remotely again.
func TestRemoteHitPopulatesLocalTiers(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Schema: 1})
	r := newFakeRemote()
	r.entries["k"] = []byte("peer payload")
	s.SetRemote(r)

	got, ok := s.Get("k")
	if !ok || string(got) != "peer payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.RemoteHits != 1 || st.Misses != 0 || st.Warm() != 1 {
		t.Fatalf("stats = %+v; want 1 remote hit, 0 misses", st)
	}
	// Written to disk: the second lookup is a disk hit, with no further
	// remote traffic.
	if _, ok := s.Get("k"); !ok {
		t.Fatal("promoted entry missed")
	}
	if st := s.Stats(); st.DiskHits != 1 || st.RemoteHits != 1 {
		t.Fatalf("stats after second lookup = %+v; want 1 disk hit, 1 remote hit", st)
	}
	if gets, _ := r.counts(); gets != 1 {
		t.Fatalf("remote consulted %d times; want 1", gets)
	}
	// A fresh store without the remote serves it from disk too.
	s2 := open(t, dir, Options{Schema: 1})
	if _, ok := s2.Get("k"); !ok {
		t.Fatal("remote hit was not persisted to disk")
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("fresh-store stats = %+v; want 1 disk hit", st)
	}
}

// TestRemoteMissIsColdLookup: peer says no → plain miss.
func TestRemoteMissIsColdLookup(t *testing.T) {
	s := open(t, t.TempDir(), Options{Schema: 1})
	r := newFakeRemote()
	s.SetRemote(r)
	if _, ok := s.Get("absent"); ok {
		t.Fatal("phantom hit")
	}
	if st := s.Stats(); st.Misses != 1 || st.RemoteHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPutPropagatesToRemote: Put reaches the peer, PutLocal does not.
func TestPutPropagatesToRemote(t *testing.T) {
	s := open(t, t.TempDir(), Options{Schema: 1})
	r := newFakeRemote()
	s.SetRemote(r)

	s.Put("a", []byte("1"))
	if _, puts := r.counts(); puts != 1 {
		t.Fatalf("remote puts = %d; want 1", puts)
	}
	s.PutLocal("b", []byte("2"))
	if _, puts := r.counts(); puts != 1 {
		t.Fatalf("PutLocal propagated to remote (puts=%d)", puts)
	}
	// Both are locally readable.
	for _, k := range []string{"a", "b"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("Get(%q) missed", k)
		}
	}
}

// TestRemoteRejectedPayloadIsMiss: a peer payload the caller's validator
// refuses must be a cold miss that never reaches the disk tier.
func TestRemoteRejectedPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Schema: 1})
	r := newFakeRemote()
	r.entries["k"] = []byte("drifted payload")
	s.SetRemote(r)

	reject := func([]byte) error { return errors.New("undecodable") }
	if _, ok := s.GetValidated("k", reject); ok {
		t.Fatal("rejected remote payload served as a hit")
	}
	st := s.Stats()
	if st.RemoteRejects != 1 || st.Misses != 1 || st.Warm() != 0 {
		t.Fatalf("stats = %+v; want 1 remote reject counted as a miss", st)
	}
	// Not written locally: with the remote detached, the entry is gone.
	s.SetRemote(nil)
	if _, ok := s.Get("k"); ok {
		t.Fatal("rejected payload was promoted locally")
	}
	if _, err := os.Stat(entryPath(dir, "k")); !os.IsNotExist(err) {
		t.Fatalf("rejected payload written to disk (err=%v)", err)
	}
}

// TestDamagedDiskEntryFallsThroughToRemote: the peer can repair a
// locally corrupted entry.
func TestDamagedDiskEntryFallsThroughToRemote(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, Options{Schema: 1}).Put("k", []byte("good"))
	p := entryPath(dir, "k")
	if err := os.WriteFile(p, []byte("torn{{{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, Options{Schema: 1})
	r := newFakeRemote()
	r.entries["k"] = []byte("good")
	s.SetRemote(r)
	got, ok := s.Get("k")
	if !ok || string(got) != "good" {
		t.Fatalf("Get over damaged disk entry = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.RemoteHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v; want eviction + remote repair", st)
	}
	// The repaired entry is back on disk.
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("repaired entry not rewritten: %v", err)
	}
}

// TestNilRemoteUnchanged pins that a store without a remote behaves
// exactly as the two-tier store (the repro/wabench path).
func TestNilRemoteUnchanged(t *testing.T) {
	s := open(t, t.TempDir(), Options{Schema: 1})
	if s.Remote() != nil {
		t.Fatal("fresh store has a remote")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("phantom hit")
	}
	s.Put("k", []byte("v"))
	if _, ok := s.Get("k"); !ok {
		t.Fatal("miss after put")
	}
	if st := s.Stats(); st.RemoteHits != 0 || st.RemoteRejects != 0 {
		t.Fatalf("remote counters moved without a remote: %+v", st)
	}
}

// TestOpenCleansStaleTempFiles: write-temp files left by a process
// killed mid-write are removed at open and never loaded as entries.
func TestOpenCleansStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, Options{Schema: 1}).Put("k", []byte("v"))

	shard := filepath.Dir(entryPath(dir, "k"))
	for _, name := range []string{".tmp-123", ".tmp-torn-write"} {
		if err := os.WriteFile(filepath.Join(shard, name), []byte(`{"v":1,"schema":1,"key":"x","payload":"TQ=="}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := open(t, dir, Options{Schema: 1})
	entries, err := os.ReadDir(shard)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("stale temp file %s survived Open", e.Name())
		}
	}
	// The real entry is intact.
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("real entry lost in temp cleanup: %q, %v", got, ok)
	}
}

// TestTruncatedAtEveryOffsetSelfEvicts: an envelope cut at any byte
// offset must read as a miss (evicted), never an error or a wrong
// payload — the torn-write worst case, exhaustively.
func TestTruncatedAtEveryOffsetSelfEvicts(t *testing.T) {
	dir := t.TempDir()
	key, payload := "k", []byte(`{"prediction":1.25,"bound":"port"}`)
	open(t, dir, Options{Schema: 1}).Put(key, payload)
	p := entryPath(dir, key)
	full, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := open(t, dir, Options{Schema: 1})
		got, ok := s.Get(key)
		if ok {
			// A truncation that still parses to the full valid envelope
			// is impossible (cut < len); any hit is a corruption escape.
			t.Fatalf("cut at %d/%d served payload %q", cut, len(full), got)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("cut at %d: truncated entry not evicted (err=%v)", cut, err)
		}
		if st := s.Stats(); st.Evictions != 1 || st.Misses != 1 {
			t.Fatalf("cut at %d: stats = %+v", cut, st)
		}
		// Restore for the next offset.
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Sanity: the restored full entry still reads.
	s := open(t, dir, Options{Schema: 1})
	if got, ok := s.Get(key); !ok || string(got) != string(payload) {
		t.Fatalf("restored entry = %q, %v", got, ok)
	}
}
