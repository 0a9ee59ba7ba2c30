package nodes

import (
	"math"
	"testing"

	"incore/internal/uarch"
)

func TestThreeNodes(t *testing.T) {
	if len(Nodes) != 3 {
		t.Fatalf("want 3 nodes, got %d", len(Nodes))
	}
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		n, err := Get(key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if n.Key != key {
			t.Errorf("key mismatch: %q", n.Key)
		}
	}
	if _, err := Get("unknown"); err == nil {
		t.Error("unknown node must error")
	}
}

// mustGet returns the node for key, failing the test on unknown keys.
func mustGet(t *testing.T, key string) *Node {
	t.Helper()
	n, err := Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTableIValues(t *testing.T) {
	// Core counts, frequencies, TDP — Table I verbatim. The chip facts
	// come from the built-in model, the rest from the node.
	cases := []struct {
		key       string
		cores     int
		base, max float64
		tdp       float64
		l3MB      int64
		memGB     int
		numa      int
	}{
		{"neoversev2", 72, 3.4, 3.4, 250, 114, 240, 1},
		{"goldencove", 52, 2.0, 3.8, 350, 105, 512, 4},
		{"zen4", 96, 2.55, 3.7, 400, 1152, 384, 1},
	}
	for _, c := range cases {
		m, n := uarch.MustGet(c.key), mustGet(t, c.key)
		if m.CoresPerChip != c.cores || m.BaseFreqGHz != c.base || m.MaxFreqGHz != c.max ||
			m.Node.Freq.TDPWatts != c.tdp || n.L3Bytes != c.l3MB<<20 || n.MemGB != c.memGB ||
			n.CCNUMADomains != c.numa {
			t.Errorf("%s Table I mismatch: %+v", c.key, n)
		}
	}
}

func TestTheoreticalBandwidth(t *testing.T) {
	// Paper: 546 / 307 / 461 GB/s.
	want := map[string]float64{"neoversev2": 546, "goldencove": 307, "zen4": 461}
	for key, w := range want {
		n := mustGet(t, key)
		if got := n.TheoreticalBandwidthGBs(); math.Abs(got-w) > 0.01*w {
			t.Errorf("%s theoretical BW = %.1f, want %.0f", key, got, w)
		}
	}
}

func TestTheoreticalPeak(t *testing.T) {
	// Paper: 3.92 / 6.32 / 8.52 TFlop/s.
	want := map[string]float64{"neoversev2": 3.92, "goldencove": 6.32, "zen4": 8.52}
	for key, w := range want {
		m := uarch.MustGet(key)
		if got := PeakTFs(m.CoresPerChip, m.Node.FlopsPerCycle, m.MaxFreqGHz); math.Abs(got-w) > 0.02*w {
			t.Errorf("%s theoretical peak = %.2f TF, want %.2f", key, got, w)
		}
	}
}

func TestFlopsPerCycle(t *testing.T) {
	// GCS: 4 FMA x 2 lanes x 2 = 16; SPR: 2 x 8 x 2 = 32;
	// Genoa: 1 x 8 x 2 + 8 (ADD pipes) = 24. The model carries the
	// vendor count; the node the FMA pipes alone.
	want := map[string]struct{ vendor, fma int }{
		"neoversev2": {16, 16}, "goldencove": {32, 32}, "zen4": {24, 16},
	}
	for key, w := range want {
		if got := uarch.MustGet(key).Node.FlopsPerCycle; got != w.vendor {
			t.Errorf("%s flops/cycle = %d, want %d", key, got, w.vendor)
		}
		if got := mustGet(t, key).FMAFlopsPerCycle(); got != w.fma {
			t.Errorf("%s FMA flops/cycle = %d, want %d", key, got, w.fma)
		}
	}
}

func TestAchievablePeak(t *testing.T) {
	n := mustGet(t, "goldencove")
	// At the sustained AVX-512 frequency of 2.0 GHz.
	got := PeakTFs(uarch.MustGet("goldencove").CoresPerChip, n.FMAFlopsPerCycle(), 2.0)
	if math.Abs(got-3.33) > 0.05 {
		t.Errorf("SPR achievable peak at 2.0 GHz = %.2f, want ~3.33", got)
	}
}

func TestStreamEfficiencyRanges(t *testing.T) {
	// Genoa has the worst efficiency (paper: 78%), SPR the best (90%):
	// the models' sustained bandwidth over the nodes' pin limit.
	eff := func(key string) float64 {
		return uarch.MustGet(key).Node.MemBWGBs / mustGet(t, key).TheoreticalBandwidthGBs()
	}
	gcs, spr, gen := eff("neoversev2"), eff("goldencove"), eff("zen4")
	if !(gen < gcs && gen < spr) {
		t.Errorf("Genoa must have the lowest efficiency: %f %f %f", gcs, spr, gen)
	}
}
