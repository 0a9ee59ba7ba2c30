package bw

import (
	"testing"

	"incore/internal/nodes"
)

func TestMeasuredBandwidthMatchesTableI(t *testing.T) {
	// Paper Table I measured values: 467 / 273 / 360 GB/s.
	want := map[string]float64{"neoversev2": 467, "goldencove": 273, "zen4": 360}
	for key, w := range want {
		res, err := MeasureNode(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if res.PeakGBs < 0.95*w || res.PeakGBs > 1.05*w {
			t.Errorf("%s measured %.0f GB/s, want ~%.0f", key, res.PeakGBs, w)
		}
	}
}

func TestEfficiencyOrdering(t *testing.T) {
	// Paper: SPR 90% > GCS 87% > Genoa 78%.
	eff := map[string]float64{}
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		res, err := MeasureNode(key)
		if err != nil {
			t.Fatal(err)
		}
		eff[key] = res.PeakGBs / res.TheoreticalGBs
	}
	if !(eff["zen4"] < eff["neoversev2"]) || !(eff["zen4"] < eff["goldencove"]) {
		t.Errorf("Genoa must have the lowest BW efficiency: %+v", eff)
	}
	if eff["zen4"] < 0.74 || eff["zen4"] > 0.82 {
		t.Errorf("Genoa efficiency = %.2f, want ~0.78", eff["zen4"])
	}
}

func TestScalingSaturates(t *testing.T) {
	res, err := MeasureTriad("zen4", []int{1, 4, 16, 96})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// More cores must never give (much) less useful bandwidth.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].UsefulGBs < res.Points[i-1].UsefulGBs*0.95 {
			t.Errorf("scaling regressed at %d cores: %.1f after %.1f",
				res.Points[i].Cores, res.Points[i].UsefulGBs, res.Points[i-1].UsefulGBs)
		}
	}
	// Single core is nowhere near saturation.
	full := res.Points[len(res.Points)-1].UsefulGBs
	if res.Points[0].UsefulGBs > full/3 {
		t.Errorf("single core too fast: %.1f of %.1f", res.Points[0].UsefulGBs, full)
	}
}

func TestUnknownNode(t *testing.T) {
	if _, err := MeasureNode("unknown"); err == nil {
		t.Error("unknown node must error")
	}
}

func TestTheoreticalMatchesNodes(t *testing.T) {
	res, err := MeasureNode("goldencove")
	if err != nil {
		t.Fatal(err)
	}
	n := nodes.MustGet("goldencove")
	if res.TheoreticalGBs != n.TheoreticalBandwidthGBs() {
		t.Error("theoretical bandwidth mismatch")
	}
}
