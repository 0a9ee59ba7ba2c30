package memsim_test

import (
	"testing"

	"incore/internal/memsim"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// TestWACurveAndDefaultCounts checks the Fig. 4 sweep counts, and that a
// curve whose samples run in parallel on fresh systems equals a serial
// sweep over one reused system.
func TestWACurveAndDefaultCounts(t *testing.T) {
	counts := memsim.DefaultCounts(52)
	if counts[0] != 1 || counts[len(counts)-1] != 52 {
		t.Errorf("DefaultCounts bounds: %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Errorf("DefaultCounts not strictly increasing: %v", counts)
		}
	}

	oldCache, oldStore := pipeline.SwapTiers(pipeline.NewCache(), nil)
	defer pipeline.SwapTiers(oldCache, oldStore)
	defer pipeline.SetDefaultWorkers(pipeline.Default().Workers())
	pipeline.SetDefaultWorkers(2)

	sweep := []int{1, 4, 9, 12}
	for _, nt := range []bool{false, true} {
		curve, err := pipeline.WACurve(uarch.MustGet("goldencove"), nt, sweep)
		if err != nil {
			t.Fatal(err)
		}
		if len(curve) != len(sweep) {
			t.Errorf("nt=%t: curve size = %d, want %d", nt, len(curve), len(sweep))
		}
		sys, err := memsim.NewSystem(memsim.MustConfigFor("goldencove"))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sweep {
			r, err := sys.RunStoreStream(n, memsim.DefaultStoreLinesPerCore, nt)
			if err != nil {
				t.Fatal(err)
			}
			if curve[n] != r.WARatio() {
				t.Errorf("nt=%t at %d cores: parallel curve %v, serial sweep %v", nt, n, curve[n], r.WARatio())
			}
		}
	}
	nosuch, err := uarch.NewDeriver(uarch.MustGet("goldencove")).Derive(func(m *uarch.Model) error { m.Key = "nosuchnode"; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.WACurve(nosuch, false, sweep); err == nil {
		t.Error("unknown node must error")
	}
}
