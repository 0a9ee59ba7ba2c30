package memsim

import (
	"math"
	"slices"
	"testing"

	"incore/internal/uarch"
)

func sys(t *testing.T, key string) *System {
	t.Helper()
	s, err := NewSystem(MustConfigFor(key))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const testLines = 4096

// TrafficGBs is the achieved memory-interface bandwidth.
func (r TrafficResult) TrafficGBs() float64 {
	t := float64(r.Ticks) * TickSeconds
	if t <= 0 {
		return 0
	}
	return float64(r.MemReadBytes+r.MemWriteBytes) / t / 1e9
}

// TestConfigForAllNodes: cores and socket bandwidth come from the model,
// the calibration from the data sheet of the system it is keyed as, and
// a model memsim has no calibration for is refused. Every field of the
// three built-ins' configs is pinned, so a config no golden or repro
// sample happens to exercise cannot move unnoticed.
func TestConfigForAllNodes(t *testing.T) {
	want := map[string]Config{
		"neoversev2": {
			Key: "neoversev2", Cores: 72, Domains: 1,
			L1: CacheConfig{SizeBytes: 256, Ways: 8}, L2: CacheConfig{SizeBytes: 4096, Ways: 8},
			L3:        CacheConfig{SizeBytes: 466944, Ways: 16},
			DomainGBs: 466.87104, CoreGBs: 8, Policy: PolicyAutoClaim,
		},
		"goldencove": {
			Key: "goldencove", Cores: 52, Domains: 4,
			L1: CacheConfig{SizeBytes: 192, Ways: 8}, L2: CacheConfig{SizeBytes: 8192, Ways: 8},
			L3:        CacheConfig{SizeBytes: 107520, Ways: 16},
			DomainGBs: 70.656, CoreGBs: 5, Policy: PolicySpecI2M,
			SpecI2MThreshold: 0.65, SpecI2MMaxShare: 0.25, SpecI2MRampEnd: 0.9,
			NTResidualRFO: 0.1, NTResidualMinCores: 4,
		},
		"zen4": {
			Key: "zen4", Cores: 96, Domains: 1,
			L1: CacheConfig{SizeBytes: 128, Ways: 8}, L2: CacheConfig{SizeBytes: 4096, Ways: 8},
			L3:        CacheConfig{SizeBytes: 4718592, Ways: 16},
			DomainGBs: 359.88480000000004, CoreGBs: 5.5, Policy: PolicyAlwaysAllocate,
		},
	}
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		m := uarch.MustGet(key)
		cfg, err := ConfigFor(m)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if cfg != want[key] {
			t.Errorf("%s config:\n got %+v\nwant %+v", key, cfg, want[key])
		}
		if cfg.Cores != m.CoresPerChip || cfg.DomainGBs*float64(cfg.Domains) != m.Node.MemBWGBs {
			t.Errorf("%s: %d cores, %.1f GB/s, want the model's %d cores, %.1f GB/s",
				key, cfg.Cores, cfg.DomainGBs*float64(cfg.Domains), m.CoresPerChip, m.Node.MemBWGBs)
		}
	}
	derive := func(edit func(*uarch.Model)) *uarch.Model {
		m, err := uarch.NewDeriver(uarch.MustGet("zen4")).Derive(func(m *uarch.Model) error { edit(m); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	half := derive(func(m *uarch.Model) { m.CoresPerChip, m.Node.MemBWGBs = 48, m.Node.MemBWGBs/2 })
	if cfg, err := ConfigFor(half); err != nil || cfg.Cores != 48 || cfg.DomainGBs != half.Node.MemBWGBs {
		t.Errorf("edited zen4: %+v (%v), want 48 cores at %.1f GB/s", cfg, err, half.Node.MemBWGBs)
	}
	if _, err := ConfigFor(derive(func(m *uarch.Model) { m.Key = "unknown" })); err == nil {
		t.Error("unknown node must error")
	}
	if _, err := ConfigFor(derive(func(m *uarch.Model) { m.Node = nil })); err == nil {
		t.Error("a model without a node section must error")
	}
}

// TestIssueCreditWhole: each calibration's core issues a whole number of
// bytes of credit per tick, so credit adds exactly and a slept tick costs
// nothing (the goldens and TestReproSamplesDigest pin that the results
// are those of the per-tick fractional sums), and a system whose CoreGBs
// would need fractional credit is refused.
func TestIssueCreditWhole(t *testing.T) {
	for key, want := range map[string]int64{"neoversev2": 80, "goldencove": 50, "zen4": 55} {
		if got, err := issueCredit(MustConfigFor(key)); err != nil || got != want {
			t.Errorf("%s: credit %d bytes per tick (%v), want %d", key, got, err, want)
		}
	}
	cfg := MustConfigFor("zen4")
	for _, gbs := range []float64{5.55, 0, -1, 1e9} {
		cfg.CoreGBs = gbs
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("CoreGBs %g: NewSystem accepted %g bytes of credit per tick", gbs, gbs*TickSeconds*1e9)
		}
	}
}

func TestGraceAutoClaimPerfectEvasion(t *testing.T) {
	s := sys(t, "neoversev2")
	for _, cores := range []int{1, 8, 72} {
		r, err := s.RunStoreStream(cores, testLines, false)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := r.WARatio(); ratio > 1.05 {
			t.Errorf("Grace at %d cores: ratio %.3f, want ~1.0 (paper Fig. 4)", cores, ratio)
		}
	}
}

func TestGenoaFullWATraffic(t *testing.T) {
	s := sys(t, "zen4")
	for _, cores := range []int{1, 48, 96} {
		r, err := s.RunStoreStream(cores, testLines, false)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := r.WARatio(); math.Abs(ratio-2.0) > 0.05 {
			t.Errorf("Genoa at %d cores: ratio %.3f, want 2.0", cores, ratio)
		}
	}
}

func TestGenoaNTStoresPerfect(t *testing.T) {
	s := sys(t, "zen4")
	r, err := s.RunStoreStream(96, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r.WARatio(); math.Abs(ratio-1.0) > 0.02 {
		t.Errorf("Genoa NT ratio = %.3f, want 1.0", ratio)
	}
}

func TestSPRSpecI2MGatedBySaturation(t *testing.T) {
	s := sys(t, "goldencove")
	low, err := s.RunStoreStream(2, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := low.WARatio(); math.Abs(ratio-2.0) > 0.05 {
		t.Errorf("SPR at 2 cores: ratio %.3f, want 2.0 (SpecI2M must not engage)", ratio)
	}
	high, err := s.RunStoreStream(52, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := high.WARatio(); math.Abs(ratio-1.75) > 0.05 {
		t.Errorf("SPR at 52 cores: ratio %.3f, want ~1.75 (25%% reduction cap)", ratio)
	}
}

func TestSPRNTResidual(t *testing.T) {
	s := sys(t, "goldencove")
	small, err := s.RunStoreStream(2, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := small.WARatio(); math.Abs(ratio-1.0) > 0.02 {
		t.Errorf("SPR NT at 2 cores: ratio %.3f, want 1.0", ratio)
	}
	big, err := s.RunStoreStream(52, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := big.WARatio(); math.Abs(ratio-1.10) > 0.03 {
		t.Errorf("SPR NT at 52 cores: ratio %.3f, want ~1.10 (residual RFOs)", ratio)
	}
}

func TestTriadTrafficAccounting(t *testing.T) {
	s := sys(t, "zen4")
	r, err := s.RunTriad(4, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	// Per line: 2 loads + 1 NT store; loaded = 2x stored.
	if r.LoadedBytes != 2*r.StoredBytes {
		t.Errorf("loaded %d, stored %d: want 2:1", r.LoadedBytes, r.StoredBytes)
	}
	// NT: traffic equals useful bytes.
	traffic := r.MemReadBytes + r.MemWriteBytes
	useful := r.LoadedBytes + r.StoredBytes
	if math.Abs(float64(traffic)/float64(useful)-1.0) > 0.02 {
		t.Errorf("NT triad traffic %d vs useful %d", traffic, useful)
	}
	// With standard stores the WA read adds a third of the loads again.
	r2, err := s.RunTriad(4, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	traffic2 := r2.MemReadBytes + r2.MemWriteBytes
	if !(traffic2 > traffic) {
		t.Error("standard stores must add write-allocate traffic")
	}
}

func TestCopyWorkload(t *testing.T) {
	s := sys(t, "zen4")
	r, err := s.RunCopy(2, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.LoadedBytes != r.StoredBytes {
		t.Errorf("copy: loaded %d != stored %d", r.LoadedBytes, r.StoredBytes)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// At full socket the achieved traffic bandwidth approaches the
	// configured controller capacity.
	cfg := MustConfigFor("zen4")
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunStoreStream(96, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	cap := cfg.DomainGBs * float64(cfg.Domains)
	if got := r.TrafficGBs(); got < 0.9*cap || got > 1.05*cap {
		t.Errorf("saturated traffic %.1f GB/s, capacity %.1f", got, cap)
	}
}

func TestSingleCoreBelowSaturation(t *testing.T) {
	cfg := MustConfigFor("zen4")
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunStoreStream(1, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	// One core generates CoreGBs of stores -> 2x traffic with WA.
	want := 2 * cfg.CoreGBs
	if got := r.TrafficGBs(); math.Abs(got-want) > 0.2*want {
		t.Errorf("single-core traffic %.1f GB/s, want ~%.1f", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	s := sys(t, "zen4")
	if _, err := s.RunStoreStream(0, testLines, false); err == nil {
		t.Error("zero cores must error")
	}
	if _, err := s.RunStoreStream(200, testLines, false); err == nil {
		t.Error("too many cores must error")
	}
	if _, err := s.RunStoreStream(1, 0, false); err == nil {
		t.Error("zero lines must error")
	}
}

func TestSystemReuse(t *testing.T) {
	// Back-to-back runs on one system must be independent (reset).
	s := sys(t, "zen4")
	a, err := s.RunStoreStream(4, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunStoreStream(4, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.WARatio() != b.WARatio() {
		t.Errorf("runs not reproducible: %.4f vs %.4f", a.WARatio(), b.WARatio())
	}
}

// cacheCounts is one cache's counters.
type cacheCounts struct {
	Hits, Misses, Evictions, DirtyEvictions int64
}

// counters returns the counters of every L1 and L2, then every L3.
func counters(s *System) []cacheCounts {
	var out []cacheCounts
	add := func(c *Cache) {
		out = append(out, cacheCounts{c.Hits, c.Misses, c.Evictions, c.DirtyEvictions})
	}
	for _, c := range s.cores {
		add(c.l1)
		add(c.l2)
	}
	for _, c := range s.l3 {
		add(c)
	}
	return out
}

// TestInPlaceUpdateTakesLRUPath runs an in-place a[i] = s*a[i]: a load
// stream and a store stream on the same base, so each line is loaded and
// then stored. The layout check must see the repeats and keep the LRU
// path, the stores must hit L1, and the run must equal one forced onto
// the LRU path.
func TestInPlaceUpdateTakesLRUPath(t *testing.T) {
	streams := []workStream{{base: 0}, {base: 0, write: true}}
	s := sys(t, "zen4")
	got, err := s.run(4, testLines, streams)
	if err != nil {
		t.Fatal(err)
	}
	if s.replay {
		t.Fatal("layout check chose the replay for a workload that repeats lines")
	}
	if h := s.cores[0].l1.Hits; h == 0 {
		t.Fatal("in-place update: no L1 hits")
	}
	gotCounts := counters(s)

	lru := sys(t, "zen4")
	lru.forceLRU = true
	want, err := lru.run(4, testLines, streams)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("result %+v, forced LRU %+v", got, want)
	}
	if wantCounts := counters(lru); !slices.Equal(gotCounts, wantCounts) {
		t.Errorf("counters %v, forced LRU %v", gotCounts, wantCounts)
	}
}

// TestReplayLayoutClasses replays a triad whose four cores form three
// layout classes, and requires the same result and per-cache counters as
// the run forced onto the LRU path. Each core has its own region, shifted
// per stream: core 1's streams all by 3 lines, which is not a multiple of
// the L2 set count; core 2's by 0, 5 and 16 lines; core 3's all by 64,
// which joins core 0's class. Core 0 has the highest region, so core 3
// lies below its class representative.
func TestReplayLayoutClasses(t *testing.T) {
	shifts := [][3]LineAddr{{0, 0, 0}, {3, 3, 3}, {0, 5, 16}, {64, 64, 64}}
	run := func(forceLRU bool) (*System, TrafficResult) {
		s := sys(t, "neoversev2")
		s.forceLRU = forceLRU
		act := s.cores[:len(shifts)]
		for i, c := range act {
			region := LineAddr(len(act)-1-i) << 27
			c.strides = []workStream{
				{base: 1<<24 + region + shifts[i][0]},
				{base: 2<<24 + region + shifts[i][1]},
				{base: region + shifts[i][2], write: true},
			}
		}
		r, err := s.simulate(act, testLines)
		if err != nil {
			t.Fatal(err)
		}
		return s, r
	}
	s, got := run(false)
	if !s.replay {
		t.Fatal("layout check rejected a layout that never repeats a line")
	}
	var classes []int
	for _, c := range s.cores[:len(shifts)] {
		classes = append(classes, c.class)
	}
	if want := []int{0, 1, 2, 0}; !slices.Equal(classes, want) {
		t.Fatalf("layout classes %v, want %v", classes, want)
	}
	if s.l3[0].Evictions == 0 {
		t.Fatal("no L3 evictions: the layout does not fill the L3")
	}
	lru, want := run(true)
	if got != want {
		t.Errorf("result %+v, forced LRU %+v", got, want)
	}
	if g, w := counters(s), counters(lru); !slices.Equal(g, w) {
		t.Errorf("counters %v, forced LRU %v", g, w)
	}
}

// TestWarmReplayAllocatesNothing reruns a replayed run on a reused
// System: the class schedules, the L3 fill counts and the controller
// rings keep their buffers, so a warm run allocates nothing.
func TestWarmReplayAllocatesNothing(t *testing.T) {
	s := sys(t, "goldencove")
	run := func() {
		if _, err := s.RunTriad(8, 2048, false); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if !s.replay {
		t.Fatal("triad not replayed")
	}
	if n := testing.AllocsPerRun(3, run); n != 0 {
		t.Errorf("warm replayed triad: %v allocs per run, want 0", n)
	}
}

// TestLinesNeverRepeatEdges checks the layout check's interval
// arithmetic: two cores with streams at unsorted bases 100 lines apart
// at the closest are first-touch up to 100 lines per stream and not at
// 101.
func TestLinesNeverRepeatEdges(t *testing.T) {
	s := sys(t, "zen4")
	act := s.cores[:2]
	act[0].strides = []workStream{{base: 500}, {base: 100, write: true}}
	act[1].strides = []workStream{{base: 200}, {base: 350, write: true, nt: true}}
	for lines, want := range map[int]bool{1: true, 100: true, 101: false, 1000: false} {
		if got := s.linesNeverRepeat(act, lines); got != want {
			t.Errorf("linesNeverRepeat(%d lines) = %t, want %t", lines, got, want)
		}
	}
}

// TestPlacementCompactVsScatter pins scatter placement: active cores go
// round-robin across goldencove's four domains, so 13 split 4/3/3/3
// rather than filling one domain first.
func TestPlacementCompactVsScatter(t *testing.T) {
	s := sys(t, "goldencove")
	if _, err := s.RunStoreStream(13, testLines, false); err != nil {
		t.Fatal(err)
	}
	var got []int
	for d := range s.doms {
		got = append(got, len(s.doms[d].members))
	}
	if want := []int{4, 3, 3, 3}; !slices.Equal(got, want) {
		t.Errorf("13 active cores per domain = %v, want %v", got, want)
	}
}
