package roofline

import (
	"math"
	"strings"
	"testing"

	"incore/internal/uarch"
)

func mustFor(t *testing.T, key string) *Model {
	t.Helper()
	m, err := ForModel(uarch.MustGet(key))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForAllArchs(t *testing.T) {
	for _, key := range []string{"goldencove", "zen4", "neoversev2"} {
		m, err := ForModel(uarch.MustGet(key))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if m.BWGBs <= 0 || len(m.Ceilings) < 2 {
			t.Errorf("%s roofline incomplete", key)
		}
		// Sustained ceiling must not exceed nominal.
		if m.Ceilings[1].GFlops > m.Ceilings[0].GFlops {
			t.Errorf("%s: sustained ceiling above nominal", key)
		}
	}
}

func TestSPRSustainedDrop(t *testing.T) {
	// SPR loses ~47% of its nominal peak to AVX-512 throttling; Grace
	// loses nothing.
	spr := mustFor(t, "goldencove")
	drop := spr.Ceilings[1].GFlops / spr.Ceilings[0].GFlops
	if drop > 0.60 || drop < 0.45 {
		t.Errorf("SPR sustained/nominal = %.2f, want ~0.53", drop)
	}
	gcs := mustFor(t, "neoversev2")
	if math.Abs(gcs.Ceilings[1].GFlops-gcs.Ceilings[0].GFlops) > 1 {
		t.Error("Grace must sustain its nominal peak")
	}
}

func TestKneeConsistency(t *testing.T) {
	m := mustFor(t, "goldencove")
	c := m.Ceilings[1]
	knee := m.Knee(c)
	// At the knee the memory roof meets the ceiling.
	if gMem := knee * m.BWGBs; math.Abs(gMem-c.GFlops) > 1e-9*c.GFlops {
		t.Errorf("roofs disagree at the knee: %f vs %f", gMem, c.GFlops)
	}
}

func TestRender(t *testing.T) {
	m := mustFor(t, "neoversev2")
	out := m.Render()
	if !strings.Contains(out, "knee") || !strings.Contains(out, "GFlop/s") {
		t.Errorf("render incomplete:\n%s", out)
	}
}
