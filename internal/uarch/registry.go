package uarch

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The model registry maps keys to machine models. It starts with the
// three compiled-in microarchitectures and is mutable at runtime:
// Register (and the LoadFile/LoadDir conveniences) add machine-file
// models, after which every tool that resolves models by key — the
// analyzer CLIs, the experiment runners, ecm.For/freq.For/roofline.For,
// and the HTTP service — sees them.
//
// Identity is content-based: a key maps to exactly one fingerprint
// (Model.Fingerprint, the sha256 of the canonical machine-file wire
// form). Registering the same content twice is an idempotent no-op;
// registering different content under a taken key is an error, so a
// runtime model can never shadow a built-in — or another runtime model —
// and silently change what a key means mid-process. What-if variants of
// an existing machine therefore register under their own key, while
// unregistered models remain fully usable by passing the *Model
// directly (every analysis entry point takes one).
var (
	regOnce sync.Once
	regMu   sync.RWMutex
	regMap  map[string]*Model
	// builtinFPs pins the content fingerprint of each compiled-in model;
	// CacheKey compares against it to keep bare cache keys stable for
	// unmodified built-ins. Written once under regOnce, read-only after.
	builtinFPs map[string]string
)

func initRegistry() {
	regOnce.Do(func() {
		regMap = make(map[string]*Model)
		builtinFPs = make(map[string]string)
		for _, m := range []*Model{NewGoldenCove(), NewNeoverseV2(), NewZen4()} {
			m.buildIndex()
			regMap[m.Key] = m
			builtinFPs[m.Key] = m.Fingerprint()
		}
	})
}

// builtinFingerprint returns the fingerprint of the compiled-in model
// with the given key, if there is one.
func builtinFingerprint(key string) (string, bool) {
	initRegistry()
	fp, ok := builtinFPs[key]
	return fp, ok
}

// Get returns the machine model registered under key, or an error listing
// the available keys.
func Get(key string) (*Model, error) {
	initRegistry()
	regMu.RLock()
	m, ok := regMap[key]
	regMu.RUnlock()
	if ok {
		return m, nil
	}
	return nil, fmt.Errorf("uarch: unknown microarchitecture %q (available: %v)", key, Keys())
}

// MustGet is Get that panics on unknown keys; for tests and table-driven
// experiment code where the key set is static.
func MustGet(key string) *Model {
	m, err := Get(key)
	if err != nil {
		panic(err)
	}
	return m
}

// Register adds a model to the registry under its key. The model is
// validated and indexed first, so a registered model is always ready
// for use. Registering content identical to what the key already maps
// to is a no-op (created=false); a key collision with differing content
// is an error. The check and the insert happen under one lock, so of
// all racing registrations of a key exactly one reports created=true
// and exactly one fingerprint ever holds the key.
// Safe for concurrent use with Get/Keys/All and other Registers.
func Register(m *Model) (created bool, err error) {
	if err := m.Validate(); err != nil {
		return false, err
	}
	// Index on first registration only: re-registering an already-indexed
	// (possibly in-use) model must not rebuild its live lookup tables.
	// Models mutated in place refresh via Reindex before registering.
	if m.index == nil {
		m.buildIndex()
	}
	initRegistry()
	regMu.Lock()
	defer regMu.Unlock()
	if old, ok := regMap[m.Key]; ok {
		if old.Fingerprint() == m.Fingerprint() {
			return false, nil
		}
		return false, fmt.Errorf("uarch: key %q is already registered with different content (fingerprint %s vs %s); pick a distinct key for the variant",
			m.Key, old.Fingerprint()[:12], m.Fingerprint()[:12])
	}
	regMap[m.Key] = m
	return true, nil
}

// ReadFile reads a JSON machine file without registering it, so the
// file may share a registered key (an exported-then-edited built-in)
// and still get its own fingerprinted CacheKey. A non-empty arch is the
// key the caller asked for explicitly; a file with any other key fails.
func ReadFile(path, arch string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("uarch: %w", err)
	}
	defer f.Close()
	m, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("uarch: %s: %w", path, err)
	}
	if arch != "" && arch != m.Key {
		return nil, fmt.Errorf("uarch: %s: -arch %q does not match machine file key %q", path, arch, m.Key)
	}
	return m, nil
}

// LoadFile reads a JSON machine file and registers the model, returning
// it. The key inside the file decides the registry slot; loading a file
// whose key is taken by different content fails (see Register).
func LoadFile(path string) (*Model, error) {
	m, err := ReadFile(path, "")
	if err != nil {
		return nil, err
	}
	created, err := Register(m)
	if err != nil {
		return nil, fmt.Errorf("uarch: %s: %w", path, err)
	}
	if !created {
		// The key already held identical content: return the registered
		// instance so repeated loads share one model (and one pointer
		// identity) instead of keeping duplicate instruction tables
		// alive.
		return Get(m.Key)
	}
	return m, nil
}

// LoadDir registers every *.json machine file directly inside dir (in
// lexical order, so collision errors are deterministic) and returns the
// loaded models.
func LoadDir(dir string) ([]*Model, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("uarch: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() || e.Type()&fs.ModeSymlink != 0 {
			if strings.HasSuffix(e.Name(), ".json") {
				names = append(names, e.Name())
			}
		}
	}
	sort.Strings(names)
	models := make([]*Model, 0, len(names))
	for _, name := range names {
		m, err := LoadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}

// Keys returns the registered model keys in sorted order.
func Keys() []string {
	initRegistry()
	regMu.RLock()
	out := make([]string, 0, len(regMap))
	for k := range regMap {
		out = append(out, k)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// All returns all registered models sorted by key.
func All() []*Model {
	initRegistry()
	regMu.RLock()
	out := make([]*Model, 0, len(regMap))
	for _, m := range regMap {
		out = append(out, m)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
