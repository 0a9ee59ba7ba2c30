package experiments

import (
	"testing"

	"incore/internal/nodes"
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
		rows[r.Node.Key] = r
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
	useful, err := triadScaling(uarch.MustGet("zen4"), counts)
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
	if _, err := triadScaling(m, []int{1}); err == nil {
		t.Error("a model without a memory calibration must error")
	}
}

func TestTheoreticalMatchesNodes(t *testing.T) {
	r := table1Rows(t)["goldencove"]
	if r.TheoreticalBWGBs != nodes.MustGet("goldencove").TheoreticalBandwidthGBs() {
		t.Error("theoretical bandwidth mismatch")
	}
}
