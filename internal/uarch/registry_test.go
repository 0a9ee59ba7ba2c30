package uarch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tinyModel builds a minimal valid x86 model under the given key; each
// call returns identical content, so fingerprints of two tinyModels with
// the same key are equal.
func tinyModel(key string) *Model {
	m := &Model{
		Key: key, Name: "Tiny " + key, CPU: "testbed", Vendor: "test",
		Ports:      []string{"p0", "p1", "ld", "sa", "sd"},
		IssueWidth: 2, DecodeWidth: 2, RetireWidth: 2,
		ROBSize: 16, SchedSize: 8,
		LoadLat: 4, LoadWidthBits: 128, StoreWidthBits: 128,
		VecWidth: 128, CoresPerChip: 4, BaseFreqGHz: 1.0, MaxFreqGHz: 2.0,
		FPVectorUnits: 1, IntUnits: 2,
	}
	m.LoadPorts = m.PortsByName("ld")
	m.StoreAGUPorts = m.PortsByName("sa")
	m.StoreDataPorts = m.PortsByName("sd")
	m.Entries = []Entry{
		{Mnemonic: "addq", Lat: 1, Uops: []Uop{{Ports: m.PortsByName("p0", "p1"), Cycles: 1}}},
	}
	return m
}

// roundTrip clones a model through its machine file.
func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegisterGetAndCacheKey(t *testing.T) {
	r := NewRegistry()
	m := tinyModel("tiny-register")
	created, err := r.Register(m)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first registration must report created")
	}
	got, err := r.Get("tiny-register")
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Error("Get must return the registered model")
	}
	// A registration belongs to its registry: neither the package-level
	// built-ins nor a second registry see it.
	if _, err := Get("tiny-register"); err == nil {
		t.Error("uarch.Get sees a model registered into a registry value")
	}
	if _, err := NewRegistry().Get("tiny-register"); err == nil {
		t.Error("a second NewRegistry sees a model registered into the first")
	}
	// A runtime model's cache identity carries its fingerprint.
	wantCK := "tiny-register@" + m.Fingerprint()
	if m.CacheKey() != wantCK {
		t.Errorf("CacheKey = %q, want %q", m.CacheKey(), wantCK)
	}
	// Re-registering identical content (same or equal model) is a
	// created=false no-op.
	if created, err := r.Register(m); err != nil || created {
		t.Errorf("idempotent re-register: created=%t err=%v", created, err)
	}
	if created, err := r.Register(tinyModel("tiny-register")); err != nil || created {
		t.Errorf("re-register of equal content: created=%t err=%v", created, err)
	}
	// Different content under a taken key must be rejected.
	variant := tinyModel("tiny-register")
	variant.ROBSize = 32
	if _, err := r.Register(variant); err == nil {
		t.Error("conflicting content under a taken key must be rejected")
	}
	// The registry still resolves to the original.
	if got2, _ := r.Get("tiny-register"); got2 != m {
		t.Error("rejected registration must not replace the model")
	}
}

func TestRegisterCannotShadowBuiltin(t *testing.T) {
	variant := roundTrip(t, MustGet("zen4"))
	variant.StoreDataPorts |= variant.PortsByName("AGU1")
	if err := variant.Reindex(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry().Register(variant); err == nil {
		t.Fatal("a mutated model must not register under a built-in key")
	}
	if got := MustGet("zen4"); got.CacheKey() != "zen4" {
		t.Errorf("built-in cache key changed: %q", got.CacheKey())
	}
}

func TestCacheKeyRules(t *testing.T) {
	for _, m := range []*Model{MustGet("goldencove"), MustGet("neoversev2"), MustGet("zen4")} {
		if m.CacheKey() != m.Key {
			t.Errorf("unmodified built-in %s: CacheKey = %q, want bare key", m.Key, m.CacheKey())
		}
		// A byte-identical runtime copy shares the built-in's content,
		// so it may (and should) share its cache identity too.
		clone := roundTrip(t, m)
		if clone.Fingerprint() != m.Fingerprint() {
			t.Errorf("%s: round-trip fingerprint changed", m.Key)
		}
		if clone.CacheKey() != m.Key {
			t.Errorf("%s: identical clone CacheKey = %q", m.Key, clone.CacheKey())
		}
		// Any mutation (after Reindex) switches to a fingerprinted key.
		mutated := roundTrip(t, m)
		mutated.ROBSize++
		if err := mutated.Reindex(); err != nil {
			t.Fatal(err)
		}
		want := m.Key + "@" + mutated.Fingerprint()
		if mutated.CacheKey() != want {
			t.Errorf("%s mutated: CacheKey = %q, want %q", m.Key, mutated.CacheKey(), want)
		}
		if mutated.Fingerprint() == m.Fingerprint() {
			t.Errorf("%s: mutation did not change the fingerprint", m.Key)
		}
	}
}

func TestLoadFileAndLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, m *Model) string {
		t.Helper()
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	path := write("a.json", tinyModel("tiny-file-a"))
	write("b.json", tinyModel("tiny-file-b"))
	write("ignored.txt", tinyModel("tiny-file-c"))

	r := NewRegistry()
	m, err := r.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get("tiny-file-a"); got != m {
		t.Error("LoadFile must register the model")
	}
	models, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("LoadDir loaded %d models, want 2 (*.json only)", len(models))
	}
	if _, err := r.Get("tiny-file-b"); err != nil {
		t.Errorf("tiny-file-b not registered: %v", err)
	}
	if _, err := r.Get("tiny-file-c"); err == nil {
		t.Error("non-.json files must be ignored")
	}
	if _, err := r.LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	if _, err := r.LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir must error")
	}
	// A directory carrying a conflicting variant of a loaded key fails.
	conflict := tinyModel("tiny-file-a")
	conflict.ROBSize = 64
	write("conflict.json", conflict)
	if _, err := r.LoadDir(dir); err == nil {
		t.Error("LoadDir must surface registration conflicts")
	} else if !strings.Contains(err.Error(), "conflict.json") {
		t.Errorf("conflict error should name the file: %v", err)
	} else if n := strings.Count(err.Error(), "uarch:"); n != 1 {
		t.Errorf("conflict error carries the package prefix %d times, want once: %v", n, err)
	}
}

// TestReadFileEditedExport: an exported-then-edited built-in (an extra
// store-data port) reads as a model of its own under a fingerprinted
// cache key, the registry's entry for that key stays the built-in, and
// only an explicitly requested arch that differs from the file's key
// is refused.
func TestReadFileEditedExport(t *testing.T) {
	builtin := MustGet("zen4")
	var buf bytes.Buffer
	if err := builtin.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	wire["ports"] = append(wire["ports"].([]any), "SD2")
	wire["store_data_ports"] = append(wire["store_data_ports"].([]any), "SD2")
	raw, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "zen4-edited.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, arch := range []string{"", "zen4"} {
		m, err := ReadFile(path, arch)
		if err != nil {
			t.Fatalf("ReadFile(%q): %v", arch, err)
		}
		if !strings.HasPrefix(m.CacheKey(), "zen4@") {
			t.Errorf("edited export CacheKey = %q, want zen4@<fingerprint>", m.CacheKey())
		}
	}
	if got := MustGet("zen4"); got != builtin || got.CacheKey() != "zen4" {
		t.Errorf("registry zen4 = %s after ReadFile, want the built-in", got.CacheKey())
	}
	if _, err := ReadFile(path, "goldencove"); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("ReadFile with a mismatching arch: err = %v, want one naming %s", err, path)
	}
	if _, err := NewRegistry().LoadFile(path); err == nil {
		t.Error("LoadFile registered an edited export over the built-in zen4")
	}
}

// TestUnknownKeyListsBoundedKeys: an unknown key lists every key of a
// small registry, and the first maxListedKeys sorted keys of a large
// one, then how many more there are.
func TestUnknownKeyListsBoundedKeys(t *testing.T) {
	r := NewRegistry()
	_, err := r.Get("m99")
	if want := fmt.Sprintf("uarch: unknown microarchitecture \"m99\" (available: %v)", Keys()); err == nil || err.Error() != want {
		t.Errorf("built-ins only: err = %v, want %q", err, want)
	}
	for i := len(r.Keys()); i < maxListedKeys+4; i++ {
		if _, err := r.Register(tinyModel(fmt.Sprintf("t%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_, err = r.Get("m99")
	want := fmt.Sprintf("uarch: unknown microarchitecture \"m99\" (available: %v … and 4 more)", r.Keys()[:maxListedKeys])
	if err == nil || err.Error() != want {
		t.Errorf("%d keys: err = %v, want %q", len(r.Keys()), err, want)
	}
}

// TestReadFileTruncated: a truncated machine file fails with the JSON
// error, naming the file once under a single package prefix, and the
// decoder's error stays reachable through the chain.
func TestReadFileTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := MustGet("zen4").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path, "")
	if want := "uarch: " + path + ": machine file: unexpected EOF"; err == nil || err.Error() != want {
		t.Fatalf("ReadFile of a truncated file: err = %v, want %q", err, want)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("ReadFile error %v does not wrap io.ErrUnexpectedEOF", err)
	}
}

// TestConcurrentRegisterGet hammers the registry from many goroutines —
// registrations (fresh keys, duplicate content, conflicting content)
// interleaved with lookups and enumerations — and must be race-clean
// (CI runs this under -race).
func TestConcurrentRegisterGet(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					// Distinct key per (worker, iter): must register.
					if created, err := r.Register(tinyModel(fmt.Sprintf("tiny-conc-%d-%d", w, i))); err != nil || !created {
						t.Errorf("register: created=%t err=%v", created, err)
					}
				case 1:
					// Shared key, identical content: every racer wins.
					if _, err := r.Register(tinyModel("tiny-conc-shared")); err != nil {
						t.Errorf("shared register: %v", err)
					}
				case 2:
					if _, err := r.Get("zen4"); err != nil {
						t.Errorf("get: %v", err)
					}
					_ = r.Keys()
				case 3:
					// Conflicting content on a contended key: whichever
					// racer lands first wins, everyone else gets the
					// collision error; no outcome may corrupt the map.
					m := tinyModel("tiny-conc-contended")
					m.ROBSize = 16 + w
					_, _ = r.Register(m)
					if _, err := r.Get("tiny-conc-contended"); err != nil {
						t.Errorf("contended key vanished: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got, err := r.Get("tiny-conc-shared"); err != nil || got.Key != "tiny-conc-shared" {
		t.Errorf("shared key lost: %v", err)
	}
}

func TestValidateRejectsDuplicatePortNames(t *testing.T) {
	m := tinyModel("tiny-dup-ports")
	m.Ports = []string{"p0", "p1", "ld", "sa", "p0"}
	if err := m.Validate(); err == nil {
		t.Error("duplicate port names must be rejected")
	} else if !strings.Contains(err.Error(), "duplicate port name") {
		t.Errorf("unexpected error: %v", err)
	}
	m.Ports = []string{"p0", "", "ld", "sa", "sd"}
	if err := m.Validate(); err == nil {
		t.Error("empty port names must be rejected")
	}
	// The same rejection must fire on machine-file load: names resolve
	// by first match, so a duplicate would silently alias two ports.
	dup := tinyModel("tiny-dup-ports2")
	var buf bytes.Buffer
	if err := dup.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(buf.String(), `"p1"`, `"p0"`, 1)
	if src == buf.String() {
		t.Fatal("replacement did not apply")
	}
	if _, err := ReadJSON(strings.NewReader(src)); err == nil {
		t.Error("machine file with duplicate port names must be rejected")
	}
}
