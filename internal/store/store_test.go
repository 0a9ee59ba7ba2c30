package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Get is GetValidated without a payload check.
func (s *Store) Get(key string) ([]byte, bool) { return s.GetValidated(key, nil) }

func open(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func entryPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(dir, h[:2], h+".json")
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Schema: 1})
	key := "analyze\x00falsedeps=false\x00zen4\x00\tvmulpd %ymm0, %ymm1, %ymm2\n"
	payload := []byte(`{"prediction":1.5}`)

	if _, ok := s.Get(key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	s.Put(key, payload)
	got, ok := s.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.DiskHits != 1 || st.Misses != 1 || st.PutErrors != 0 {
		t.Fatalf("stats = %+v; want 1 disk hit, 1 miss", st)
	}
	if _, err := os.Stat(entryPath(dir, key)); err != nil {
		t.Fatalf("Put wrote no entry file: %v", err)
	}
}

func TestDiskHitAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{Schema: 7})
	s1.Put("k", []byte("42"))

	// A fresh Store over the same directory models a new process, which
	// reads the entry the first process wrote.
	s2 := open(t, dir, Options{Schema: 7})
	got, ok := s2.Get("k")
	if !ok || string(got) != "42" {
		t.Fatalf("Get = %q, %v; want 42, true", got, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v; want exactly 1 disk hit", st)
	}
	// The store keeps nothing in memory: a second read is a second disk
	// hit.
	if got, ok := s2.Get("k"); !ok || string(got) != "42" {
		t.Fatalf("second Get = %q, %v; want 42, true", got, ok)
	}
	if st := s2.Stats(); st.DiskHits != 2 || st.Misses != 0 {
		t.Fatalf("stats after second read = %+v; want 2 disk hits", st)
	}
}

func TestSchemaMismatchEvicts(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, Options{Schema: 1}).Put("k", []byte("old"))

	s := open(t, dir, Options{Schema: 2})
	if _, ok := s.Get("k"); ok {
		t.Fatal("schema-stale entry served as a hit")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want 1 eviction, 1 miss", st)
	}
	if _, err := os.Stat(entryPath(dir, "k")); !os.IsNotExist(err) {
		t.Fatalf("stale entry file still present (err=%v)", err)
	}
	// The slot is reusable at the new schema.
	s.Put("k", []byte("new"))
	if got, ok := s.Get("k"); !ok || string(got) != "new" {
		t.Fatalf("Get after rewrite = %q, %v", got, ok)
	}
}

// TestCorruptedEntryEvicts damages a written entry and reads it back
// through both disk readers, Get and GetByHash: each must evict the file
// and count it. Besides plain damage, the cases include envelopes that
// encoding/json would read but writeDisk never writes; a disk entry is
// exactly writeDisk's bytes, so those are damage too.
func TestCorruptedEntryEvicts(t *testing.T) {
	replace := func(old, new string) func([]byte) []byte {
		return func(b []byte) []byte { return []byte(strings.Replace(string(b), old, new, 1)) }
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":         func([]byte) []byte { return []byte("not json at all{{{") },
		"empty":           func([]byte) []byte { return nil },
		"wrongKey":        func([]byte) []byte { return []byte(`{"v":1,"schema":1,"key":"other","payload":"MQ=="}`) },
		"wrongVersion":    func([]byte) []byte { return []byte(`{"v":99,"schema":1,"key":"k","payload":"MQ=="}`) },
		"extraWhitespace": replace(`,"payload":`, `, "payload": `),
		"reorderedFields": func([]byte) []byte { return []byte(`{"schema":1,"v":1,"key":"k","payload":"MQ=="}`) },
		"escapedSlash":    func([]byte) []byte { return []byte(`{"v":1,"schema":1,"key":"k","payload":"\/\/\/\/"}`) },
		"escapedKey":      replace(`"key":"k"`, `"key":"\u006b"`),
		"trailingNewline": func(b []byte) []byte { return append(b, '\n') },
		"escapedNewline":  replace(`"MQ==`, `"MQ\n==`),
		"rawNewline":      replace(`"MQ==`, "\"MQ\n=="),
		"badBase64":       replace(`"MQ==`, `"M!==`),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open(t, dir, Options{Schema: 1}).Put("k", []byte("1"))
			p := entryPath(dir, "k")
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			damage := func() {
				t.Helper()
				if err := os.WriteFile(p, mutate(raw), 0o644); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
			}
			evicted := func(reader string) {
				t.Helper()
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Fatalf("%s: damaged entry file still present (err=%v)", reader, err)
				}
			}

			damage()
			s := open(t, dir, Options{Schema: 1})
			if _, ok := s.Get("k"); ok {
				t.Fatal("damaged entry served as a hit")
			}
			if st := s.Stats(); st.Evictions != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v; want 1 eviction, 1 miss", st)
			}
			evicted("Get")

			damage()
			if _, _, ok := s.GetByHash(KeyHash("k")); ok {
				t.Fatal("damaged entry served by GetByHash")
			}
			if st := s.Stats(); st.Evictions != 2 {
				t.Fatalf("stats after GetByHash = %+v; want a second eviction", st)
			}
			evicted("GetByHash")
		})
	}
}

// TestIntactEntryReadsBack is the control for TestCorruptedEntryEvicts:
// the exact bytes writeDisk writes read back through both disk readers,
// for keys and payloads that exercise escaping and base64 padding.
func TestIntactEntryReadsBack(t *testing.T) {
	key := "analyze\x00a<b>&\"c\\\n\t\u2028é"
	for _, payload := range [][]byte{nil, {}, []byte("1"), []byte("12"), []byte("123"), {0xff, 0xfe, 0xfd, 0xfc}} {
		dir := t.TempDir()
		open(t, dir, Options{Schema: -3}).Put(key, payload)
		s := open(t, dir, Options{Schema: -3})
		if got, ok := s.Get(key); !ok || string(got) != string(payload) {
			t.Fatalf("Get(%q) = %q, %v; want %q", payload, got, ok, payload)
		}
		k, got, ok := s.GetByHash(KeyHash(key))
		if !ok || k != key || string(got) != string(payload) {
			t.Fatalf("GetByHash = %q, %q, %v; want %q, %q", k, got, ok, key, payload)
		}
		if st := s.Stats(); st.Evictions != 0 || st.DiskHits != 1 {
			t.Fatalf("stats = %+v; want 1 disk hit, no eviction", st)
		}
	}
}

// TestPutRefusesInvalidUTF8Key: a key that is not valid UTF-8 would be
// written with U+FFFD in its place, an entry no read could match, so
// Put and PutLocal count a put error and write nothing.
func TestPutRefusesInvalidUTF8Key(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Schema: 1})
	rem := newFakeRemote()
	s.SetRemote(rem)
	key := "analyze\x00blk\xff\xfe"
	s.Put(key, []byte("x"))
	s.PutLocal(key, []byte("y"))
	if st := s.Stats(); st.PutErrors != 2 {
		t.Fatalf("stats = %+v; want 2 put errors", st)
	}
	if _, err := os.Stat(entryPath(dir, key)); !os.IsNotExist(err) {
		t.Fatalf("entry written for an invalid key (err=%v)", err)
	}
	// Nothing else was written either: the store holds no shard
	// directory, no entry and no temp file.
	if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
		t.Fatalf("store directory holds %d names after refused puts (err=%v)", len(names), err)
	}
	if _, n := rem.counts(); n != 0 {
		t.Fatalf("invalid key forwarded to the remote tier %d times", n)
	}
	s.SetRemote(nil)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get hit for a key that was refused")
	}
}

func TestGetValidatedRejectionIsMissAtBothTiers(t *testing.T) {
	reject := func([]byte) error { return fmt.Errorf("undecodable") }

	// Rejection right after Put, on the handle that wrote the entry:
	// the file is deleted, and a later read finds nothing.
	dir := t.TempDir()
	s := open(t, dir, Options{Schema: 1})
	s.Put("k", []byte("x"))
	if _, ok := s.GetValidated("k", reject); ok {
		t.Fatal("rejected payload served as a hit right after Put")
	}
	if st := s.Stats(); st.Warm() != 0 || st.Misses != 1 || st.Evictions != 1 {
		t.Fatalf("stats after rejection = %+v; want 0 warm, 1 miss, 1 eviction", st)
	}
	if _, err := os.Stat(entryPath(dir, "k")); !os.IsNotExist(err) {
		t.Fatalf("rejected entry file still present (err=%v)", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("rejected entry served by a later Get")
	}

	// Rejection on a fresh Store over an entry an earlier process wrote.
	dir2 := t.TempDir()
	open(t, dir2, Options{Schema: 1}).Put("k", []byte("x"))
	s2 := open(t, dir2, Options{Schema: 1})
	if _, ok := s2.GetValidated("k", reject); ok {
		t.Fatal("rejected payload served as a hit from disk")
	}
	if st := s2.Stats(); st.Warm() != 0 || st.Misses != 1 || st.Evictions != 1 {
		t.Fatalf("stats after disk-tier rejection = %+v; want 0 warm, 1 miss, 1 eviction", st)
	}

	// An accepting validator behaves like plain Get.
	dir3 := t.TempDir()
	s3 := open(t, dir3, Options{Schema: 1})
	s3.Put("k", []byte("x"))
	if got, ok := s3.GetValidated("k", func([]byte) error { return nil }); !ok || string(got) != "x" {
		t.Fatalf("GetValidated with accepting validator = %q, %v", got, ok)
	}
	if st := s3.Stats(); st.Warm() != 1 {
		t.Fatalf("accepting validator must count a warm hit: %+v", st)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Schema: 1})
	const keys = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("key-%d", (i+g)%keys)
				want := fmt.Sprintf("val-%d", (i+g)%keys)
				s.Put(k, []byte(want))
				if got, ok := s.Get(k); ok && string(got) != want {
					t.Errorf("Get(%q) = %q; want %q", k, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	// Every read that hit found the disk entry a writer had renamed into
	// place; none missed, since each goroutine reads only after its put.
	if st := s.Stats(); st.PutErrors != 0 || st.Misses != 0 || st.DiskHits != 8*keys {
		t.Fatalf("stats under concurrency = %+v; want %d disk hits, no miss or put error", st, 8*keys)
	}
	// Every key must be durable and correct after the dust settles.
	s2 := open(t, dir, Options{Schema: 1})
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if got, ok := s2.Get(k); !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%q) = %q, %v after concurrent writes", k, got, ok)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "sub"), Options{}); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}
