package pipeline

import (
	"encoding/json"

	"incore/internal/core"
	"incore/internal/store"
)

// This file layers the persistent content-addressed store (internal/store)
// under the process-lifetime memo cache, forming a two-tier read path for
// every memoized entry point in memo.go:
//
//	memo cache (per process, singleflight)
//	  → store   (per machine: on-disk entries, optionally a remote peer)
//	    → compute
//
// The memo cache keeps singleflight semantics and pointer sharing within
// a process; the store makes results survive across processes. Both tiers
// use the same content keys, so anything the memo layer would share, the
// persistent layer shares too. Only successful computations persist:
// errors stay process-local (cached by the memo tier) so a transient
// failure never becomes a durable wrong answer.

// persistSchemaVersion stamps stored payloads. It covers the JSON
// encodings used by doStoredJSON below; core.Result's encoding is
// versioned separately by core.ResultSchemaVersion, and StoreSchema folds
// both in so a bump to either self-evicts stale entries.
const persistSchemaVersion = 1

// StoreSchema is the payload schema version CLIs pass to store.Open.
func StoreSchema() int {
	return persistSchemaVersion*1000 + core.ResultSchemaVersion
}

// persistent is the process-wide store behind the memo cache; nil means
// results live only for the process lifetime. Like shared, it is set once
// at startup (AttachStore) before any pipeline work runs.
var persistent *store.Store

// AttachStore opens (creating if needed) dir as the persistent result
// store behind the memo cache and returns it so callers can report its
// accounting. Call it before submitting pipeline work.
func AttachStore(dir string) (*store.Store, error) {
	st, err := store.Open(dir, store.Options{Schema: StoreSchema()})
	if err != nil {
		return nil, err
	}
	persistent = st
	return st, nil
}

// PersistentStore returns the attached store, or nil when results are
// process-local only.
func PersistentStore() *store.Store { return persistent }

// SwapTiers replaces the memo cache and persistent store, returning the
// previous pair so the caller can restore them. It exists for tests in
// other packages (serve's peer-store suite) that need an isolated store
// behind a live server; production code attaches once at startup and
// never swaps.
func SwapTiers(c *Cache, st *store.Store) (*Cache, *store.Store) {
	oldC, oldSt := shared, persistent
	shared, persistent = c, st
	return oldC, oldSt
}

// doStored is Do with the persistent store layered underneath: on a memo
// miss it tries the store before computing, and persists what it computes.
// dec doubles as the store lookup's validator, so a stored payload that
// fails it (payload drift without a schema bump) is evicted and counted
// as a cold lookup — never a warm hit — then recomputed and overwritten
// rather than surfaced as an error.
func doStored[T any](c *Cache, key string, enc func(T) ([]byte, error), dec func([]byte) (T, error), fn func() (T, error)) (T, error) {
	st := persistent
	if st == nil {
		return Do(c, key, nil, fn)
	}
	return Do(c, key, nil, func() (T, error) {
		var decoded T
		if _, ok := st.GetValidated(key, func(data []byte) error {
			v, err := dec(data)
			if err == nil {
				decoded = v
			}
			return err
		}); ok {
			return decoded, nil
		}
		v, err := fn()
		if err != nil {
			return v, err
		}
		if data, err := enc(v); err == nil {
			st.Put(key, data)
		}
		return v, nil
	})
}

// doStoredJSON is doStored for results that are plain data — every
// exported field, no unexported state, no identity pointers — where
// encoding/json round-trips the value exactly (float64 encodes shortest
// round-trippable, so warm and cold runs render identical bytes).
func doStoredJSON[T any](c *Cache, key string, fn func() (T, error)) (T, error) {
	return doStored(c, key,
		func(v T) ([]byte, error) { return json.Marshal(v) },
		func(data []byte) (T, error) {
			var v T
			err := json.Unmarshal(data, &v)
			return v, err
		},
		fn)
}
