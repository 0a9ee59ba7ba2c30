package freq

import (
	"math"
	"testing"

	"incore/internal/isa"
	"incore/internal/uarch"
)

func mustFor(t *testing.T, key string) *Governor {
	t.Helper()
	m, err := ForModel(uarch.MustGet(key))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPaperEndpoints(t *testing.T) {
	// The headline numbers of Fig. 2.
	cases := []struct {
		key   string
		ext   isa.Ext
		cores int
		want  float64
		tol   float64
	}{
		{"goldencove", isa.ExtAVX512, 52, 2.0, 0.05},
		{"goldencove", isa.ExtAVX, 52, 3.0, 0.05},
		{"goldencove", isa.ExtSSE, 52, 3.0, 0.05},
		{"zen4", isa.ExtAVX512, 96, 3.1, 0.05},
		{"neoversev2", isa.ExtSVE, 72, 3.4, 0.001},
		{"neoversev2", isa.ExtNEON, 72, 3.4, 0.001},
		{"neoversev2", isa.ExtScalar, 1, 3.4, 0.001},
	}
	for _, c := range cases {
		g := mustFor(t, c.key)
		f, err := g.Sustained(c.cores, c.ext)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if math.Abs(f-c.want) > c.tol {
			t.Errorf("%s %s @%d cores = %.3f GHz, want %.2f", c.key, c.ext, c.cores, f, c.want)
		}
	}
}

func TestSPRAVX512LicenseCap(t *testing.T) {
	g := mustFor(t, "goldencove")
	f512, _ := g.Sustained(1, isa.ExtAVX512)
	favx, _ := g.Sustained(1, isa.ExtAVX)
	if !(f512 < favx) {
		t.Errorf("AVX-512 license must cap single-core frequency: %f vs %f", f512, favx)
	}
}

func TestGraceFlatAcrossSocket(t *testing.T) {
	g := mustFor(t, "neoversev2")
	curve, err := g.Curve(isa.ExtSVE)
	if err != nil {
		t.Fatal(err)
	}
	for n, f := range curve {
		if f != 3.4 {
			t.Fatalf("Grace must hold 3.4 GHz at %d cores, got %f", n+1, f)
		}
	}
}

func TestMonotonicNonIncreasing(t *testing.T) {
	for _, key := range []string{"goldencove", "zen4", "neoversev2"} {
		g := mustFor(t, key)
		for ext := range g.ActivityFactor {
			curve, err := g.Curve(ext)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(curve); i++ {
				if curve[i] > curve[i-1]+1e-12 {
					t.Errorf("%s/%s: frequency increased from %d to %d cores", key, ext, i, i+1)
				}
			}
		}
	}
}

func TestPowerBudgetRespected(t *testing.T) {
	for _, key := range []string{"goldencove", "zen4"} {
		g := mustFor(t, key)
		for ext := range g.ActivityFactor {
			for _, n := range []int{1, g.Cores / 2, g.Cores} {
				f, err := g.Sustained(n, ext)
				if err != nil {
					t.Fatal(err)
				}
				// Package power at n cores and frequency f.
				p := g.UncoreWatts + float64(n)*(g.StaticWattsPerCore+g.ActivityFactor[ext]*f*f*f)
				if p > g.TDPWatts*1.001 && f > g.MinFreqGHz {
					t.Errorf("%s/%s @%d cores: %.1f W exceeds TDP %.0f", key, ext, n, p, g.TDPWatts)
				}
			}
		}
	}
}

func TestGCSvsSPRAdvantage(t *testing.T) {
	// Paper: 1.7x sustained-frequency advantage for AVX-512-heavy code.
	gcs := mustFor(t, "neoversev2")
	spr := mustFor(t, "goldencove")
	fg, _ := gcs.Sustained(72, isa.ExtSVE)
	fs, _ := spr.Sustained(52, isa.ExtAVX512)
	ratio := fg / fs
	if math.Abs(ratio-1.7) > 0.05 {
		t.Errorf("GCS/SPR advantage = %.2fx, want 1.7x", ratio)
	}
}

func TestErrors(t *testing.T) {
	g := mustFor(t, "zen4")
	if _, err := g.Sustained(0, isa.ExtAVX); err == nil {
		t.Error("zero cores must error")
	}
	if _, err := g.Sustained(1000, isa.ExtAVX); err == nil {
		t.Error("too many cores must error")
	}
	if _, err := g.Sustained(1, isa.ExtSVE); err == nil {
		t.Error("x86 governor must reject SVE")
	}
}

func TestSPRThrottleShape(t *testing.T) {
	// AVX-512 stays at the license cap for small counts, then decays.
	g := mustFor(t, "goldencove")
	f4, _ := g.Sustained(4, isa.ExtAVX512)
	if f4 != 3.5 {
		t.Errorf("SPR AVX-512 at 4 cores = %f, want license cap 3.5", f4)
	}
	f26, _ := g.Sustained(26, isa.ExtAVX512)
	if !(f26 < 3.0) {
		t.Errorf("SPR AVX-512 at 26 cores = %f, want below 3.0", f26)
	}
}
