package pipeline

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe, content-keyed memoization table with
// singleflight semantics: for each key the compute function runs exactly
// once per process; concurrent requesters block for the single executor's
// result instead of duplicating work. Values are treated as immutable
// after insertion — callers must not mutate what Do returns.
//
// Both process tiers are Caches: the memo tier (Shared) and the
// compiled-artifact tier (CompiledArtifacts, a thin Artifacts wrapper
// that adds per-kind accounting). Each keeps three-way request
// accounting: the executor of a key counts one miss, a requester that
// found the entry settled counts a hit, and a requester that arrived
// while the computation was in flight counts a singleflight attach.
type Cache struct {
	mu       sync.Mutex
	m        map[string]*centry
	hits     atomic.Uint64
	attaches atomic.Uint64
	misses   atomic.Uint64
}

// centry is one key's singleflight slot. val, err and size are written
// once inside once.Do, before done is set; readers that did not run or
// wait on the once may read them only after observing done.
type centry struct {
	once sync.Once
	done atomic.Bool
	val  any
	err  error
	size int64 // estimated retained bytes of a successful value
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: map[string]*centry{}} }

// Do returns the cached value for key, computing it with fn on first use.
// Errors are cached too: a failed computation is not retried, so the
// outcome for a key is stable for the process lifetime (determinism over
// optimism). size, when non-nil, estimates the retained bytes of a
// successful value; the estimate is recorded on the entry. The first
// computation of a key fixes the concrete type; all requesters of that
// key must use the same T.
func Do[T any](c *Cache, key string, size func(T) int, fn func() (T, error)) (T, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &centry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	settled := ok && e.done.Load()
	executed := false
	e.once.Do(func() {
		executed = true
		v, err := fn()
		e.val, e.err = v, err
		if err == nil && size != nil {
			e.size = int64(size(v))
		}
		e.done.Store(true)
	})
	switch {
	case executed:
		c.misses.Add(1)
	case settled:
		c.hits.Add(1)
	default:
		c.attaches.Add(1)
	}
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	return e.val.(T), nil
}

// Stats is a point-in-time memo accounting snapshot. Hits and Misses
// depend only on the sequence of Do keys, not on scheduling: the executor
// of a key counts one miss, every other requester one hit (settled hits
// and singleflight attaches together) — so the totals for a fixed
// workload are identical at any worker count.
type Stats struct {
	Hits    uint64 `json:"hits" help:"Memo cache hits."`
	Misses  uint64 `json:"misses" help:"Memo cache misses."`
	Entries int    `json:"entries" help:"Memo cache population."`
}

// Stats returns the current accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load() + c.attaches.Load(), Misses: c.misses.Load(), Entries: n}
}

// Reset drops all entries and zeroes the counters. In-flight computations
// keyed before the reset complete against the old entries.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.m = map[string]*centry{}
	c.mu.Unlock()
	c.hits.Store(0)
	c.attaches.Store(0)
	c.misses.Store(0)
}

// shared is the process-wide memo cache used by the wrappers in memo.go.
var shared = NewCache()

// Shared returns the process-wide memo cache.
func Shared() *Cache { return shared }

// ReportTiers writes the process tiers' accounting to w, one line each,
// prefixed with the program name: the memo cache with the worker count,
// the persistent store when one is attached, and the compiled-artifact
// tier. CI greps these lines, so their text is a contract.
func ReportTiers(w io.Writer, prog string, workers int) {
	st := shared.Stats()
	fmt.Fprintf(w, "%s: pipeline j=%d, cache %d hits / %d misses (%d entries)\n",
		prog, workers, st.Hits, st.Misses, st.Entries)
	if ps := persistent; ps != nil {
		s := ps.Stats()
		fmt.Fprintf(w, "%s: store %d warm / %d cold (disk %d, evictions %d, put errors %d)\n",
			prog, s.Warm(), s.Misses, s.DiskHits, s.Evictions, s.PutErrors)
	}
	cs := artifacts.Stats()
	fmt.Fprintf(w, "%s: compiled %d programs / %d skeletons / %d mca, %d hits + %d attaches / %d compiles (~%d KiB)\n",
		prog, cs.Programs, cs.Skeletons, cs.MCA, cs.Hits, cs.Attaches, cs.Compiles, cs.BytesEstimated/1024)
}
