package uarch

import (
	"embed"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// machineFiles holds the built-in models as machine files, read through
// the same loader as -machine-dir (see machines/README.md).
//
//go:embed machines/*.json
var machineFiles embed.FS

// A Registry maps keys to machine models. NewRegistry starts one with
// the three built-in microarchitectures; Register (and the
// LoadFile/LoadDir conveniences) add machine-file models to it. Each
// registry is a value its owner passes on: a CLI's -machine-dir or the
// HTTP service's POST /v1/models changes what a key means for that
// registry's users only. The package-level Get, MustGet and Keys read a
// built-ins-only registry nothing registers into.
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
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model
}

var (
	builtinOnce sync.Once
	builtinReg  *Registry
	// builtinFPs pins the content fingerprint of each built-in model;
	// CacheKey compares against it to keep bare cache keys stable for
	// unmodified built-ins, even if a caller mutates one in place.
	// Written once under builtinOnce, read-only after.
	builtinFPs map[string]string
)

// builtins returns the registry of the built-in models, loaded from the
// embedded machine files on first use.
func builtins() *Registry {
	builtinOnce.Do(func() {
		builtinReg = &Registry{models: make(map[string]*Model)}
		builtinFPs = make(map[string]string)
		dir, err := fs.Sub(machineFiles, "machines")
		if err == nil {
			_, err = builtinReg.loadFS(dir, "machines")
		}
		if err != nil {
			panic(err)
		}
		for k, m := range builtinReg.models {
			builtinFPs[k] = m.Fingerprint()
		}
	})
	return builtinReg
}

// builtinFingerprint returns the fingerprint of the built-in model
// with the given key, if there is one.
func builtinFingerprint(key string) (string, bool) {
	builtins()
	fp, ok := builtinFPs[key]
	return fp, ok
}

// NewRegistry returns a registry holding the built-in models (the
// same instances the package-level Get returns).
func NewRegistry() *Registry {
	b := builtins()
	r := &Registry{models: make(map[string]*Model, len(b.models))}
	for k, m := range b.models {
		r.models[k] = m
	}
	return r
}

// Get returns the built-in model with the given key, or an error
// listing the available keys.
func Get(key string) (*Model, error) { return builtins().Get(key) }

// MustGet is Get that panics on unknown keys; for tests and table-driven
// experiment code where the key set is static.
func MustGet(key string) *Model {
	m, err := Get(key)
	if err != nil {
		panic(err)
	}
	return m
}

// Keys returns the built-in model keys in sorted order.
func Keys() []string { return builtins().Keys() }

// maxListedKeys bounds how many keys an unknown-key error lists, so that
// a registry of many models keeps the error short.
const maxListedKeys = 16

// Get returns the model registered under key, or an error listing the
// first maxListedKeys available keys and how many more there are.
func (r *Registry) Get(key string) (*Model, error) {
	r.mu.RLock()
	m, ok := r.models[key]
	r.mu.RUnlock()
	if ok {
		return m, nil
	}
	keys, more := r.Keys(), ""
	if len(keys) > maxListedKeys {
		keys, more = keys[:maxListedKeys], fmt.Sprintf(" … and %d more", len(keys)-maxListedKeys)
	}
	return nil, fmt.Errorf("uarch: unknown microarchitecture %q (available: %v%s)", key, keys, more)
}

// Register adds a model to the registry under its key. The model is
// validated and indexed first, so a registered model is always ready
// for use. Registering content identical to what the key already maps
// to is a no-op (created=false); a key collision with differing content
// is an error. The check and the insert happen under one lock, so of
// all racing registrations of a key exactly one reports created=true
// and exactly one fingerprint ever holds the key.
// Safe for concurrent use with Get/Keys/All and other Registers.
func (r *Registry) Register(m *Model) (created bool, err error) {
	if err := m.Validate(); err != nil {
		return false, err
	}
	if _, created, err = r.add(m); err != nil {
		return false, fmt.Errorf("uarch: %w", err)
	}
	return created, nil
}

// add indexes a validated model and inserts it unless its key is taken,
// returning the model the key holds afterwards. Its collision error
// carries no package prefix: Register and LoadFile each add their own.
func (r *Registry) add(m *Model) (held *Model, created bool, err error) {
	// Index on first registration only: re-registering an already-indexed
	// (possibly in-use) model must not rebuild its live lookup tables.
	// Models mutated in place refresh via Reindex before registering.
	if m.index == nil {
		m.buildIndex()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.models[m.Key]; ok {
		if old.Fingerprint() == m.Fingerprint() {
			return old, false, nil
		}
		return nil, false, fmt.Errorf("key %q is already registered with different content (fingerprint %s vs %s); pick a distinct key for the variant",
			m.Key, old.Fingerprint()[:12], m.Fingerprint()[:12])
	}
	r.models[m.Key] = m
	return m, true, nil
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
	m, err := readNamed(f, path)
	if err != nil {
		return nil, err
	}
	if arch != "" && arch != m.Key {
		return nil, fmt.Errorf("uarch: %s: -arch %q does not match machine file key %q", path, arch, m.Key)
	}
	return m, nil
}

// readNamed reads a machine file and names it path in errors.
func readNamed(f fs.File, path string) (*Model, error) {
	m, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("uarch: %s: %w", path, unprefixed{err})
	}
	return m, nil
}

// unprefixed is an error whose text drops the package prefix, for a
// wrapper that puts the prefix before its own context; it unwraps to the
// error.
type unprefixed struct{ error }

func (u unprefixed) Error() string { return strings.TrimPrefix(u.error.Error(), "uarch: ") }
func (u unprefixed) Unwrap() error { return u.error }

// Resolve picks the model a CLI run works on. With a machine file it
// reads that file unregistered; otherwise it looks arch up. Either way
// every *.json file in dir (when dir is non-empty) is loaded into a
// fresh registry first, so a bad directory fails the run. archSet says
// whether arch was given explicitly: only then can it contradict the
// machine file's key.
func Resolve(dir, file, arch string, archSet bool) (*Model, error) {
	r := NewRegistry()
	if dir != "" {
		if _, err := r.LoadDir(dir); err != nil {
			return nil, err
		}
	}
	if file != "" {
		if !archSet {
			arch = ""
		}
		return ReadFile(file, arch)
	}
	return r.Get(arch)
}

// LoadFile reads a JSON machine file and registers the model, returning
// it. The key inside the file decides the registry slot; loading a file
// whose key is taken by different content fails (see Register). When
// the key already holds identical content LoadFile returns the
// registered instance, so repeated loads share one model (and one
// pointer identity) instead of keeping duplicate instruction tables
// alive.
func (r *Registry) LoadFile(path string) (*Model, error) {
	m, err := ReadFile(path, "")
	if err != nil {
		return nil, err
	}
	return r.addNamed(m, path)
}

// addNamed registers a model read from path, naming path in a collision
// error.
func (r *Registry) addNamed(m *Model, path string) (*Model, error) {
	held, _, err := r.add(m)
	if err != nil {
		return nil, fmt.Errorf("uarch: %s: %w", path, err)
	}
	return held, nil
}

// LoadDir registers every *.json machine file directly inside dir (in
// lexical order, so collision errors are deterministic) and returns the
// loaded models.
func (r *Registry) LoadDir(dir string) ([]*Model, error) {
	return r.loadFS(os.DirFS(dir), dir)
}

// loadFS is LoadDir over the root of fsys, which errors call dir; the
// built-in models load through it from the embedded machine files.
func (r *Registry) loadFS(fsys fs.FS, dir string) ([]*Model, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, pathError(dir, err)
	}
	var models []*Model
	for _, e := range entries {
		if !e.Type().IsRegular() && e.Type()&fs.ModeSymlink == 0 || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := fsys.Open(e.Name())
		if err != nil {
			return nil, pathError(dir, err)
		}
		m, err := readNamed(f, path)
		f.Close()
		if err != nil {
			return nil, err
		}
		if m, err = r.addNamed(m, path); err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}

// pathError restores dir in the path of an fs.FS error, which names
// files relative to the FS root.
func pathError(dir string, err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return fmt.Errorf("uarch: %s %s: %w", pe.Op, filepath.Join(dir, pe.Path), pe.Err)
	}
	return fmt.Errorf("uarch: %w", err)
}

// Keys returns the registered model keys in sorted order.
func (r *Registry) Keys() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.models))
	for k := range r.models {
		out = append(out, k)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// All returns all registered models sorted by key.
func (r *Registry) All() []*Model {
	r.mu.RLock()
	out := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
