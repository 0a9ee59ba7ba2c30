package experiments

import (
	"math"
	"slices"
	"testing"

	"incore/internal/memsim"
	"incore/internal/uarch"
)

// table1Rows runs Table I and indexes its rows by model key.
func table1Rows(t *testing.T) map[string]Table1Row {
	t.Helper()
	tab, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table1Row{}
	for _, r := range tab.Rows {
		rows[r.Model.Key] = r
	}
	return rows
}

func TestMeasuredBandwidthMatchesTableI(t *testing.T) {
	// Paper Table I measured values: 467 / 273 / 360 GB/s.
	want := map[string]float64{"neoversev2": 467, "goldencove": 273, "zen4": 360}
	rows := table1Rows(t)
	for key, w := range want {
		if got := rows[key].MeasuredBWGBs; got < 0.95*w || got > 1.05*w {
			t.Errorf("%s measured %.0f GB/s, want ~%.0f", key, got, w)
		}
	}
}

func TestEfficiencyOrdering(t *testing.T) {
	// Paper: SPR 90% > GCS 87% > Genoa 78%.
	eff := map[string]float64{}
	for key, r := range table1Rows(t) {
		eff[key] = r.MeasuredBWGBs / r.TheoreticalBWGBs
	}
	if !(eff["zen4"] < eff["neoversev2"]) || !(eff["zen4"] < eff["goldencove"]) {
		t.Errorf("Genoa must have the lowest BW efficiency: %+v", eff)
	}
	if eff["zen4"] < 0.74 || eff["zen4"] > 0.82 {
		t.Errorf("Genoa efficiency = %.2f, want ~0.78", eff["zen4"])
	}
}

func TestScalingSaturates(t *testing.T) {
	counts := []int{1, 4, 16, 96}
	_, useful, err := triadScaling(uarch.MustGet("zen4"), counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(useful) != len(counts) {
		t.Fatalf("points = %d", len(useful))
	}
	// More cores must never give (much) less useful bandwidth.
	for i := 1; i < len(useful); i++ {
		if useful[i] < useful[i-1]*0.95 {
			t.Errorf("scaling regressed at %d cores: %.1f after %.1f", counts[i], useful[i], useful[i-1])
		}
	}
	// Single core is nowhere near saturation.
	full := useful[len(useful)-1]
	if useful[0] > full/3 {
		t.Errorf("single core too fast: %.1f of %.1f", useful[0], full)
	}
}

func TestUnknownNode(t *testing.T) {
	m, err := uarch.NewDeriver(uarch.MustGet("zen4")).Derive(func(m *uarch.Model) error { m.Key = "unknown"; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := triadScaling(m, []int{1}); err == nil {
		t.Error("a model without a memory calibration must error")
	}
}

func TestTheoreticalMatchesNodes(t *testing.T) {
	r := table1Rows(t)["goldencove"]
	if r.Memory != paperTable1["goldencove"] || r.TheoreticalBWGBs != paperTable1["goldencove"].theoreticalGBs() {
		t.Error("theoretical bandwidth must come from the paper's goldencove memory")
	}
	if r.Sim != memsim.MustConfigFor("goldencove") {
		t.Error("cache geometry and ccNUMA domains must come from goldencove's memsim config")
	}
	m := uarch.MustGet("goldencove")
	if r.Model != m || r.TheoreticalPeakTFs != peakTFs(m.CoresPerChip, float64(m.Node.FlopsPerCycle), m.MaxFreqGHz) {
		t.Error("theoretical peak must come from the goldencove model's cores, flops/cycle and max frequency")
	}
}

func TestThreeNodes(t *testing.T) {
	if len(paperTable1) != len(paperArchs) {
		t.Fatalf("want %d data sheets, got %d", len(paperArchs), len(paperTable1))
	}
	for _, key := range paperArchs {
		if _, ok := paperTable1[key]; !ok {
			t.Errorf("%s: no Table I main memory", key)
		}
		if _, err := memsim.ConfigFor(uarch.MustGet(key)); err != nil {
			t.Errorf("%s: %v", key, err)
		}
	}
	if _, ok := paperTable1["unknown"]; ok {
		t.Error("unknown node must have no data sheet")
	}
}

func TestTableIValues(t *testing.T) {
	// Core counts, frequencies, TDP — Table I verbatim. The chip facts
	// come from the built-in model, the caches and domains from memsim,
	// the main memory from the paper's data sheet.
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
		m, cfg, mem := uarch.MustGet(c.key), memsim.MustConfigFor(c.key), paperTable1[c.key]
		if m.CoresPerChip != c.cores || m.BaseFreqGHz != c.base || m.MaxFreqGHz != c.max ||
			m.Node.Freq.TDPWatts != c.tdp || cfg.L3.SizeBytes*memsim.CacheScale*int64(cfg.Domains) != c.l3MB<<20 ||
			mem.GB != c.memGB || cfg.Domains != c.numa {
			t.Errorf("%s Table I mismatch: %+v %+v", c.key, cfg, mem)
		}
	}
}

func TestTheoreticalBandwidth(t *testing.T) {
	// Paper: 546 / 307 / 461 GB/s.
	want := map[string]float64{"neoversev2": 546, "goldencove": 307, "zen4": 461}
	for key, w := range want {
		if got := paperTable1[key].theoreticalGBs(); math.Abs(got-w) > 0.01*w {
			t.Errorf("%s theoretical BW = %.1f, want %.0f", key, got, w)
		}
	}
}

func TestTheoreticalPeak(t *testing.T) {
	// Paper: 3.92 / 6.32 / 8.52 TFlop/s.
	want := map[string]float64{"neoversev2": 3.92, "goldencove": 6.32, "zen4": 8.52}
	for key, w := range want {
		m := uarch.MustGet(key)
		if got := peakTFs(m.CoresPerChip, float64(m.Node.FlopsPerCycle), m.MaxFreqGHz); math.Abs(got-w) > 0.02*w {
			t.Errorf("%s theoretical peak = %.2f TF, want %.2f", key, got, w)
		}
	}
}

// mustFMAFlops returns m's FMA-pipe flops per cycle, failing the test on
// an analysis error.
func mustFMAFlops(t *testing.T, m *uarch.Model) float64 {
	t.Helper()
	f, err := fmaFlopsPerCycle(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlopsPerCycle(t *testing.T) {
	// GCS: 4 FMA x 2 lanes x 2 = 16; SPR: 2 x 8 x 2 = 32;
	// Genoa: 2 x 4 x 2 + 8 (ADD pipes) = 24. The model's node section
	// carries the vendor count; the FMA pipes alone are derived from its
	// instruction table.
	want := map[string]struct {
		vendor int
		fma    float64
	}{
		"neoversev2": {16, 16}, "goldencove": {32, 32}, "zen4": {24, 16},
	}
	for key, w := range want {
		m := uarch.MustGet(key)
		if got := m.Node.FlopsPerCycle; got != w.vendor {
			t.Errorf("%s flops/cycle = %d, want %d", key, got, w.vendor)
		}
		if got := mustFMAFlops(t, m); got != w.fma {
			t.Errorf("%s FMA flops/cycle = %g, want %g", key, got, w.fma)
		}
	}
}

// TestFMAFlopsFollowModel: a goldencove whose 512-bit vfmadd231pd issues
// on port 0 alone has half the FMA pipes, and the built-in keeps both.
func TestFMAFlopsFollowModel(t *testing.T) {
	gc := uarch.MustGet("goldencove")
	edited := 0
	m, err := uarch.NewDeriver(gc).Derive(func(m *uarch.Model) error {
		m.Entries = slices.Clone(m.Entries)
		for i := range m.Entries {
			if e := &m.Entries[i]; e.Mnemonic == "vfmadd231pd" && e.Width == 512 {
				u := e.Uops[0]
				u.Ports = m.PortsByName("0")
				e.Uops = []uarch.Uop{u}
				edited++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if edited != 1 {
		t.Fatalf("edited %d 512-bit vfmadd231pd entries, want 1", edited)
	}
	if got := mustFMAFlops(t, m); got != 16 {
		t.Errorf("one-pipe goldencove FMA flops/cycle = %g, want 16", got)
	}
	if got := mustFMAFlops(t, gc); got != 32 {
		t.Errorf("built-in goldencove FMA flops/cycle = %g after the what-if, want 32", got)
	}
}

func TestAchievablePeak(t *testing.T) {
	m := uarch.MustGet("goldencove")
	// At the sustained AVX-512 frequency of 2.0 GHz.
	got := peakTFs(m.CoresPerChip, mustFMAFlops(t, m), 2.0)
	if math.Abs(got-3.33) > 0.05 {
		t.Errorf("SPR achievable peak at 2.0 GHz = %.2f, want ~3.33", got)
	}
}

func TestStreamEfficiencyRanges(t *testing.T) {
	// Genoa has the worst efficiency (paper: 78%), SPR the best (90%):
	// the models' sustained bandwidth over the pin limit.
	eff := func(key string) float64 {
		return uarch.MustGet(key).Node.MemBWGBs / paperTable1[key].theoreticalGBs()
	}
	gcs, spr, gen := eff("neoversev2"), eff("goldencove"), eff("zen4")
	if !(gen < gcs && gen < spr) {
		t.Errorf("Genoa must have the lowest efficiency: %f %f %f", gcs, spr, gen)
	}
}
