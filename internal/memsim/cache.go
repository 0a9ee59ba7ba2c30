// Package memsim simulates the memory hierarchy of the three test systems
// at cache-line granularity: per-core L1/L2, a shared L3, and per-NUMA-
// domain memory controllers with bounded bandwidth. Its purpose is the
// paper's write-allocate (WA) evasion study (Fig. 4) and the node
// bandwidth measurements (Table I): it accounts every byte that crosses
// the memory interface, under four write-miss policies:
//
//   - always-allocate (classic write-allocate: read-for-ownership, then
//     eventual writeback — 2 bytes of traffic per byte stored),
//   - automatic cache-line claim (Neoverse V2 / Grace: a streaming
//     detector recognizes full-line overwrites and claims lines without
//     reading them),
//   - SpecI2M (Intel Ice Lake+/SPR: the controller converts RFOs to I2M
//     ownership requests, but only once the memory interface is close to
//     saturation, and only for a bounded share of misses),
//   - non-temporal stores (write-combining buffers that bypass the cache
//     hierarchy; perfect on Zen 4, with a residual RFO fraction on SPR).
package memsim

import (
	"fmt"
	"math/bits"
)

// LineAddr is a cache-line-granular address.
type LineAddr uint64

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int64
	Ways      int
	LineBytes int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	if c.Ways <= 0 || c.LineBytes <= 0 {
		return 0
	}
	s := c.SizeBytes / int64(c.Ways) / int64(c.LineBytes)
	if s < 1 {
		return 1
	}
	return int(s)
}

// maxWays is the largest associativity a cache supports: a set's valid
// ways are one bit each in a uint64.
const maxWays = 64

// noWay ends a set's age list.
const noWay = 0xff

// wayState is one way's replacement state: its neighbours in the set's
// age list and its dirty bit.
type wayState struct {
	older, newer uint8
	dirty        bool
}

// setState is one set's valid mask and the ends of its age list.
type setState struct {
	valid          uint64
	oldest, newest uint8
}

// Cache is a set-associative write-back cache with LRU replacement.
//
// Each set keeps its valid ways in a doubly linked age list, oldest
// first. A hit moves its way to the newest end, an insert into a full set
// evicts the oldest way, and an insert into a set with room fills its
// lowest-index invalid way. Both are O(1) and choose exactly the way a
// per-line timestamp scan would: every touch takes a fresh timestamp, so
// the way with the smallest one is always the head of the list.
//
// A way stores its full line address rather than a tag: within one set
// the two identify a line equally, and the address needs no division to
// form or to hand back as a victim.
//
// On a stream that never repeats a line there are no hits, so a set's
// age order is its insertion order: the ways fill 0..W-1, then each
// eviction takes the next way, round robin. A replayed System run (see
// replay.go) drives each layout class's L1 and L2 with such a stream.
type Cache struct {
	ways  int
	nsets uint64
	pow2  bool   // nsets is a power of two: the set index is a mask
	full  uint64 // valid mask of a full set

	addrs []LineAddr // per line: set s, way w at s*ways+w
	lines []wayState // per line, same index
	sets  []setState

	CacheStats
}

// CacheStats counts a cache's lookups and evictions.
type CacheStats struct {
	Hits, Misses   int64
	Evictions      int64
	DirtyEvictions int64
}

// NewCache builds an empty cache. It rejects configs without a set or
// with more ways than the age list can hold.
func NewCache(cfg CacheConfig) (*Cache, error) {
	n := cfg.Sets()
	if n == 0 || cfg.Ways > maxWays {
		return nil, fmt.Errorf("memsim: cache %+v: need 1..%d ways and a positive size and line size", cfg, maxWays)
	}
	c := &Cache{
		ways:  cfg.Ways,
		nsets: uint64(n),
		pow2:  n&(n-1) == 0,
		full:  ^uint64(0) >> (maxWays - cfg.Ways),
		addrs: make([]LineAddr, n*cfg.Ways),
		lines: make([]wayState, n*cfg.Ways),
		sets:  make([]setState, n),
	}
	c.reset()
	return c, nil
}

// reset empties the cache in place and zeroes its stats.
func (c *Cache) reset() {
	for s := range c.sets {
		c.sets[s] = setState{oldest: noWay, newest: noWay}
	}
	clear(c.lines)
	c.CacheStats = CacheStats{}
}

// setOf returns the set a line maps to.
func (c *Cache) setOf(a LineAddr) int {
	if c.pow2 {
		return int(uint64(a) & (c.nsets - 1))
	}
	return int(uint64(a) % c.nsets)
}

// find returns the lowest-index valid way of set s holding a, or -1.
func (c *Cache) find(s int, a LineAddr) int {
	valid := c.sets[s].valid
	base := s * c.ways
	for w, x := range c.addrs[base : base+c.ways] {
		if x == a && valid&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1
}

// unlink removes way w from set s's age list.
func (c *Cache) unlink(s, w int) {
	base := s * c.ways
	l := c.lines[base+w]
	if l.older == noWay {
		c.sets[s].oldest = l.newer
	} else {
		c.lines[base+int(l.older)].newer = l.newer
	}
	if l.newer == noWay {
		c.sets[s].newest = l.older
	} else {
		c.lines[base+int(l.newer)].older = l.older
	}
}

// pushNewest appends way w to the newest end of set s's age list.
func (c *Cache) pushNewest(s, w int) {
	base := s * c.ways
	st := &c.sets[s]
	c.lines[base+w].older = st.newest
	c.lines[base+w].newer = noWay
	if st.newest == noWay {
		st.oldest = uint8(w)
	} else {
		c.lines[base+int(st.newest)].newer = uint8(w)
	}
	st.newest = uint8(w)
}

// Lookup probes the cache; on a hit it updates LRU state and, for writes,
// the dirty bit.
func (c *Cache) Lookup(a LineAddr, write bool) bool {
	s := c.setOf(a)
	w := c.find(s, a)
	if w < 0 {
		c.Misses++
		return false
	}
	if int(c.sets[s].newest) != w {
		c.unlink(s, w)
		c.pushNewest(s, w)
	}
	if write {
		c.lines[s*c.ways+w].dirty = true
	}
	c.Hits++
	return true
}

// Insert allocates a line (marking it dirty for writes) and returns the
// evicted victim, if any. evictedDirty reports whether the victim needs a
// writeback.
func (c *Cache) Insert(a LineAddr, dirty bool) (victim LineAddr, evicted, evictedDirty bool) {
	s := c.setOf(a)
	st := &c.sets[s]
	var w int
	if free := c.full &^ st.valid; free != 0 {
		// Prefer the lowest-index invalid way.
		w = bits.TrailingZeros64(free)
		st.valid |= 1 << uint(w)
	} else {
		// Evict LRU: the age list's head.
		w = int(st.oldest)
		c.unlink(s, w)
		i := s*c.ways + w
		victim = c.addrs[i]
		evicted, evictedDirty = true, c.lines[i].dirty
		c.Evictions++
		if evictedDirty {
			c.DirtyEvictions++
		}
	}
	i := s*c.ways + w
	c.addrs[i] = a
	c.lines[i].dirty = dirty
	c.pushNewest(s, w)
	return victim, evicted, evictedDirty
}

// FlushDirty visits every dirty line, invokes fn, and marks it clean.
func (c *Cache) FlushDirty(fn func(LineAddr)) {
	for s := range c.sets {
		valid := c.sets[s].valid
		for w := 0; w < c.ways; w++ {
			i := s*c.ways + w
			if valid&(1<<uint(w)) != 0 && c.lines[i].dirty {
				fn(c.addrs[i])
				c.lines[i].dirty = false
			}
		}
	}
}
