package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	tab, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.MeasuredBWGBs <= 0 || r.MeasuredBWGBs > r.TheoreticalBWGBs {
			t.Errorf("%s: measured %.0f vs theoretical %.0f", r.Model.Key, r.MeasuredBWGBs, r.TheoreticalBWGBs)
		}
		if r.AchievablePeakTFs > r.TheoreticalPeakTFs {
			t.Errorf("%s: achievable peak exceeds theoretical", r.Model.Key)
		}
	}
	out := tab.Render()
	for _, want := range []string{"Grace", "8470", "9684X", "ccNUMA"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I render missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	tab, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table II verbatim.
	byKey := map[string]Table2Row{}
	for _, r := range tab.Rows {
		byKey[r.Model.Key] = r
	}
	if byKey["neoversev2"].Ports != 17 || byKey["goldencove"].Ports != 12 || byKey["zen4"].Ports != 13 {
		t.Error("port counts do not match Table II")
	}
	if byKey["neoversev2"].SIMDBytes != 16 || byKey["goldencove"].SIMDBytes != 64 || byKey["zen4"].SIMDBytes != 32 {
		t.Error("SIMD widths do not match Table II")
	}
	if byKey["neoversev2"].LoadsBytes != 48 { // 3 x 16 B
		t.Errorf("GCS loads/cy = %d B, want 48", byKey["neoversev2"].LoadsBytes)
	}
	if byKey["goldencove"].LoadsBytes != 128 { // 2 x 64 B
		t.Errorf("SPR loads/cy = %d B, want 128", byKey["goldencove"].LoadsBytes)
	}
	if byKey["zen4"].StoresBytes != 32 { // 1 x 32 B
		t.Errorf("Genoa stores/cy = %d B, want 32", byKey["zen4"].StoresBytes)
	}
	if !strings.Contains(tab.Render(), "Number of ports") {
		t.Error("Table II render incomplete")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tab, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	for arch, cells := range tab.Cells {
		for kind, c := range cells {
			if c.PaperThroughput == 0 {
				t.Fatalf("%s/%s missing paper reference", arch, kind)
			}
			// Throughput within 10% of the published value — except the
			// Zen 4 scalar divide, where the simulated hardware
			// deliberately beats the model (the paper's π outlier).
			tol := 0.10
			if arch == "zen4" && kind == IScalarDiv {
				if c.ThroughputElems < c.PaperThroughput {
					t.Errorf("zen4 scalar div: measured %.3f must beat the model's %.3f",
						c.ThroughputElems, c.PaperThroughput)
				}
				continue
			}
			if rel := math.Abs(c.ThroughputElems-c.PaperThroughput) / c.PaperThroughput; rel > tol {
				t.Errorf("%s/%s throughput %.3f vs paper %.3f (%.0f%% off)",
					arch, kind, c.ThroughputElems, c.PaperThroughput, 100*rel)
			}
			// Latency within 2 cycles (the non-pipelined divider chains
			// measure reciprocal throughput instead).
			if math.Abs(c.LatencyCy-c.PaperLatency) > 2 {
				t.Errorf("%s/%s latency %.1f vs paper %.0f", arch, kind, c.LatencyCy, c.PaperLatency)
			}
		}
	}
	if !strings.Contains(tab.Render(), "gather") {
		t.Error("Table III render incomplete")
	}
}

func TestFig2(t *testing.T) {
	f, err := RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(f.Series))
	}
	var spr512, sprAVX, gcs, genoa *Fig2Series
	for i := range f.Series {
		s := &f.Series[i]
		switch s.Label {
		case "SPR AVX-512":
			spr512 = s
		case "SPR AVX/SSE":
			sprAVX = s
		case "GCS":
			gcs = s
		case "Genoa":
			genoa = s
		}
	}
	if math.Abs(spr512.At(52)-2.0) > 0.05 {
		t.Errorf("SPR AVX-512 @52 = %.2f, want 2.0", spr512.At(52))
	}
	if math.Abs(sprAVX.At(52)-3.0) > 0.05 {
		t.Errorf("SPR AVX/SSE @52 = %.2f, want 3.0", sprAVX.At(52))
	}
	if gcs.At(72) != 3.4 {
		t.Errorf("GCS @72 = %.2f, want 3.4", gcs.At(72))
	}
	if math.Abs(genoa.At(96)-3.1) > 0.05 {
		t.Errorf("Genoa @96 = %.2f, want 3.1", genoa.At(96))
	}
	if !strings.Contains(f.Render(), "1.7x") {
		t.Error("Fig 2 render must report the GCS/SPR advantage")
	}
}

func TestFig4(t *testing.T) {
	f, err := RunFig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(f.Series))
	}
	endpoints := map[string]struct{ want, tol float64 }{
		"GCS":             {1.0, 0.05},
		"SPR":             {1.75, 0.06},
		"SPR NT stores":   {1.10, 0.04},
		"Genoa":           {2.0, 0.05},
		"Genoa NT stores": {1.0, 0.03},
	}
	for _, s := range f.Series {
		e, ok := endpoints[s.Label]
		if !ok {
			t.Errorf("unexpected series %q", s.Label)
			continue
		}
		if got := s.AtFullSocket(); math.Abs(got-e.want) > e.tol {
			t.Errorf("%s full-socket ratio = %.3f, want %.2f", s.Label, got, e.want)
		}
	}
	if !strings.Contains(f.Render(), "write-allocate") {
		t.Error("Fig 4 render incomplete")
	}
}

func TestChipLabel(t *testing.T) {
	if chipLabel("neoversev2") != "GCS" || chipLabel("goldencove") != "SPR" ||
		chipLabel("zen4") != "Genoa" || chipLabel("x") != "x" {
		t.Error("chipLabel broken")
	}
}
