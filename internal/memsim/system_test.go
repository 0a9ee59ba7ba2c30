package memsim

import (
	"math"
	"slices"
	"testing"
)

func sys(t *testing.T, key string) *System {
	t.Helper()
	cfg, err := ConfigFor(key)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const testLines = 4096

func TestConfigForAllNodes(t *testing.T) {
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		cfg, err := ConfigFor(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if cfg.Cores <= 0 || cfg.DomainGBs <= 0 || cfg.CoreGBs <= 0 {
			t.Errorf("%s config incomplete: %+v", key, cfg)
		}
	}
	if _, err := ConfigFor("unknown"); err == nil {
		t.Error("unknown node must error")
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
	if s.cores[0].l1.firstTouch || s.l3[0].firstTouch {
		t.Fatal("layout check chose first-touch mode for a workload that repeats lines")
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

func TestPlacementCompactVsScatter(t *testing.T) {
	cfg := MustConfigFor("goldencove")
	cfg.Placement = PlacementCompact
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With compact placement, 13 cores land on one domain and saturate
	// it -> SpecI2M engages earlier than with scatter.
	r, err := s.RunStoreStream(13, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	compact13 := r.WARatio()

	cfg2 := MustConfigFor("goldencove")
	s2, err := NewSystem(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.RunStoreStream(13, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	scatter13 := r2.WARatio()
	if !(compact13 < scatter13) {
		t.Errorf("compact placement must engage SpecI2M earlier: compact %.3f vs scatter %.3f",
			compact13, scatter13)
	}
}
