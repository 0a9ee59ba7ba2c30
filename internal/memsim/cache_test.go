package memsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func testCache() *Cache {
	c, err := NewCache(CacheConfig{SizeBytes: 4096, Ways: 4, LineBytes: 64})
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewCacheRejectsUnsupportedGeometry(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{},
		{SizeBytes: 4096, Ways: 0, LineBytes: 64},
		{SizeBytes: 4096, Ways: 4, LineBytes: 0},
		{SizeBytes: 1 << 20, Ways: maxWays + 1, LineBytes: 64},
	} {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("NewCache(%+v) must fail", cfg)
		}
	}
	if _, err := NewCache(CacheConfig{SizeBytes: 1 << 20, Ways: maxWays, LineBytes: 64}); err != nil {
		t.Errorf("NewCache with %d ways: %v", maxWays, err)
	}
}

// refCache is the timestamp-scan LRU cache the age-list Cache replaced:
// every access stamps its line with a fresh clock value, an insert fills
// the lowest-index invalid way, and a full set evicts its minimum stamp.
type refCache struct {
	sets  [][]refLine
	nsets uint64
	clock uint64

	Hits, Misses, Evictions, DirtyEvictions int64
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	n := cfg.Sets()
	sets := make([][]refLine, n)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{sets: sets, nsets: uint64(n)}
}

func (c *refCache) Lookup(a LineAddr, write bool) bool {
	set := c.sets[uint64(a)%c.nsets]
	tag := uint64(a) / c.nsets
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.clock++
			set[i].lru = c.clock
			if write {
				set[i].dirty = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

func (c *refCache) Insert(a LineAddr, dirty bool) (victim LineAddr, evicted, evictedDirty bool) {
	si := uint64(a) % c.nsets
	set := c.sets[si]
	tag := uint64(a) / c.nsets
	c.clock++
	for i := range set {
		if !set[i].valid {
			set[i] = refLine{tag: tag, valid: true, dirty: dirty, lru: c.clock}
			return 0, false, false
		}
	}
	v := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	victim, evictedDirty = LineAddr(set[v].tag*c.nsets+si), set[v].dirty
	set[v] = refLine{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	c.Evictions++
	if evictedDirty {
		c.DirtyEvictions++
	}
	return victim, true, evictedDirty
}

func (c *refCache) Invalidate(a LineAddr) (present, dirty bool) {
	set := c.sets[uint64(a)%c.nsets]
	tag := uint64(a) / c.nsets
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			d := set[i].dirty
			set[i] = refLine{}
			return true, d
		}
	}
	return false, false
}

func (c *refCache) FlushDirty(fn func(LineAddr)) {
	for si := range c.sets {
		for i := range c.sets[si] {
			l := &c.sets[si][i]
			if l.valid && l.dirty {
				fn(LineAddr(l.tag*c.nsets + uint64(si)))
				l.dirty = false
			}
		}
	}
}

// TestCacheMatchesScanLRU drives the age-list cache and the scan-LRU
// reference with the same seeded operation sequences and requires
// identical return values, stats and flush order throughout, also after
// an in-place reset. Addresses
// come from a pool a few times the cache's capacity, so sequences mix
// hits, misses, evictions, duplicate inserts and invalidations.
func TestCacheMatchesScanLRU(t *testing.T) {
	var geoms []CacheConfig
	for _, sets := range []int{1, 3, 4, 7, 16} {
		for _, ways := range []int{1, 2, 3, 4, 8, 11, 16} {
			geoms = append(geoms, CacheConfig{SizeBytes: int64(sets * ways * 64), Ways: ways, LineBytes: 64})
		}
	}
	for gi, cfg := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%dsets/%dways/seed%d", cfg.Sets(), cfg.Ways, seed)
			t.Run(name, func(t *testing.T) {
				got, err := NewCache(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := newRefCache(cfg)
				rng := rand.New(rand.NewSource(seed*1000 + int64(gi)))
				pool := 3*cfg.Sets()*cfg.Ways + 1
				var gotFlush, wantFlush []LineAddr
				hits, evictions := 0, 0
				for op := 0; op < 4000; op++ {
					a := LineAddr(rng.Intn(pool))
					switch k := rng.Intn(1000); {
					case k < 450:
						w := rng.Intn(2) == 0
						if g, r := got.Lookup(a, w), want.Lookup(a, w); g != r {
							t.Fatalf("op %d: Lookup(%d, %t) = %t, want %t", op, a, w, g, r)
						} else if r {
							hits++
						}
					case k < 850:
						d := rng.Intn(2) == 0
						gv, ge, gd := got.Insert(a, d)
						rv, re, rd := want.Insert(a, d)
						if gv != rv || ge != re || gd != rd {
							t.Fatalf("op %d: Insert(%d, %t) = (%d, %t, %t), want (%d, %t, %t)",
								op, a, d, gv, ge, gd, rv, re, rd)
						} else if re {
							evictions++
						}
					case k < 950:
						gp, gd := got.Invalidate(a)
						rp, rd := want.Invalidate(a)
						if gp != rp || gd != rd {
							t.Fatalf("op %d: Invalidate(%d) = (%t, %t), want (%t, %t)", op, a, gp, gd, rp, rd)
						}
					case k < 998:
						gotFlush, wantFlush = gotFlush[:0], wantFlush[:0]
						got.FlushDirty(func(a LineAddr) { gotFlush = append(gotFlush, a) })
						want.FlushDirty(func(a LineAddr) { wantFlush = append(wantFlush, a) })
						if fmt.Sprint(gotFlush) != fmt.Sprint(wantFlush) {
							t.Fatalf("op %d: FlushDirty visited %v, want %v", op, gotFlush, wantFlush)
						}
					default:
						got.reset()
						want = newRefCache(cfg)
					}
					if got.Hits != want.Hits || got.Misses != want.Misses ||
						got.Evictions != want.Evictions || got.DirtyEvictions != want.DirtyEvictions {
						t.Fatalf("op %d: stats (%d, %d, %d, %d), want (%d, %d, %d, %d)", op,
							got.Hits, got.Misses, got.Evictions, got.DirtyEvictions,
							want.Hits, want.Misses, want.Evictions, want.DirtyEvictions)
					}
				}
				if hits == 0 || evictions == 0 {
					t.Fatalf("sequence too easy: %d hits, %d evictions", hits, evictions)
				}
			})
		}
	}
}

func TestCacheConfigSets(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 4096, Ways: 4, LineBytes: 64}
	if cfg.Sets() != 16 {
		t.Errorf("Sets = %d, want 16", cfg.Sets())
	}
	if (CacheConfig{}).Sets() != 0 {
		t.Error("zero config must have no sets")
	}
	tiny := CacheConfig{SizeBytes: 64, Ways: 4, LineBytes: 64}
	if tiny.Sets() != 1 {
		t.Errorf("tiny cache must clamp to 1 set, got %d", tiny.Sets())
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := testCache()
	if c.Lookup(100, false) {
		t.Error("cold cache must miss")
	}
	c.Insert(100, false)
	if !c.Lookup(100, false) {
		t.Error("inserted line must hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheWriteMarksDirty(t *testing.T) {
	c := testCache()
	c.Insert(5, false)
	c.Lookup(5, true) // write hit -> dirty
	var flushed []LineAddr
	c.FlushDirty(func(a LineAddr) { flushed = append(flushed, a) })
	if len(flushed) != 1 || flushed[0] != 5 {
		t.Errorf("flushed = %v", flushed)
	}
	// Second flush: clean.
	flushed = nil
	c.FlushDirty(func(a LineAddr) { flushed = append(flushed, a) })
	if len(flushed) != 0 {
		t.Error("flush must clean lines")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := testCache() // 16 sets, 4 ways
	// Fill one set (addresses congruent mod 16).
	for i := 0; i < 4; i++ {
		c.Insert(LineAddr(i*16), false)
	}
	// Touch line 0 to make it MRU.
	c.Lookup(0, false)
	// Insert a 5th line: the LRU victim must be line 16 (not 0).
	victim, evicted, _ := c.Insert(4*16, false)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	if victim == 0 {
		t.Error("MRU line must not be evicted")
	}
	if victim != 16 {
		t.Errorf("victim = %d, want 16 (LRU)", victim)
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := testCache()
	for i := 0; i < 4; i++ {
		c.Insert(LineAddr(i*16), true)
	}
	_, evicted, dirty := c.Insert(4*16, false)
	if !evicted || !dirty {
		t.Error("evicting a dirty line must report dirty")
	}
	if c.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.DirtyEvictions)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := testCache()
	c.Insert(7, true)
	present, dirty := c.Invalidate(7)
	if !present || !dirty {
		t.Error("invalidate must report presence and dirtiness")
	}
	if c.Lookup(7, false) {
		t.Error("invalidated line must miss")
	}
	present, _ = c.Invalidate(7)
	if present {
		t.Error("double invalidate must report absence")
	}
}

// TestCacheCapacityProperty: inserting W distinct lines mapping to one set
// keeps at most `ways` resident.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(n uint8) bool {
		c := testCache()
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			c.Insert(LineAddr(i*16), false) // all in set 0
		}
		resident := 0
		for i := 0; i < count; i++ {
			if c.Lookup(LineAddr(i*16), false) {
				resident++
			}
		}
		return resident <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamDetector(t *testing.T) {
	var d streamDetector
	d.TrainLen = 4
	for i := 0; i < 4; i++ {
		if d.Observe(LineAddr(i)) {
			t.Errorf("detector engaged during training at line %d", i)
		}
	}
	if !d.Observe(4) {
		t.Error("detector must engage after TrainLen consecutive lines")
	}
	if !d.Streaming() {
		t.Error("Streaming() must report the engaged state")
	}
	// A jump resets it.
	if d.Observe(100) {
		t.Error("non-sequential write must reset the detector")
	}
	if d.Streaming() {
		t.Error("detector must be reset")
	}
}

func TestSpecI2MStateRamp(t *testing.T) {
	s := specI2MState{Threshold: 0.6, MaxShare: 0.25, RampEnd: 0.9}
	// Below threshold: never converts.
	for i := 0; i < 100; i++ {
		if s.Convert(0.5) {
			t.Fatal("conversion below threshold")
		}
	}
	// At saturation: exactly 25% convert.
	conv := 0
	for i := 0; i < 1000; i++ {
		if s.Convert(1.0) {
			conv++
		}
	}
	if conv < 240 || conv > 260 {
		t.Errorf("conversion share at saturation = %d/1000, want ~250", conv)
	}
	// Mid-ramp: between 0 and 25%.
	s2 := specI2MState{Threshold: 0.6, MaxShare: 0.25, RampEnd: 0.9}
	conv = 0
	for i := 0; i < 1000; i++ {
		if s2.Convert(0.75) {
			conv++
		}
	}
	if conv < 100 || conv > 150 {
		t.Errorf("mid-ramp conversion = %d/1000, want ~125", conv)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[WAPolicyKind]string{
		PolicyAlwaysAllocate: "always-allocate",
		PolicyAutoClaim:      "auto-claim",
		PolicySpecI2M:        "specI2M",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}
