package sim_test

// Steady-state extrapolation contract (ISSUE 3): when the engine proves a
// run periodic and stops simulating, the Result must be bit-identical to
// the full-length simulation — same CyclesPerIter, TotalCycles, and
// per-port busy time down to the last float bit — for every kernel of the
// paper's validation set on all three machine models, and the fast path
// must actually engage on a healthy fraction of them (a detector that
// never fires would pass the identity check vacuously).

import (
	"fmt"
	"testing"

	"incore/internal/kernels"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func assertBitIdentical(t *testing.T, name string, fast, full *sim.Result) {
	t.Helper()
	if fast.CyclesPerIter != full.CyclesPerIter || fast.TotalCycles != full.TotalCycles ||
		fast.Iters != full.Iters {
		t.Errorf("%s: extrapolated (%v cy/iter, %v total) != full (%v, %v)",
			name, fast.CyclesPerIter, fast.TotalCycles, full.CyclesPerIter, full.TotalCycles)
		return
	}
	if len(fast.PortCycles) != len(full.PortCycles) {
		t.Errorf("%s: port count %d != %d", name, len(fast.PortCycles), len(full.PortCycles))
		return
	}
	for i := range fast.PortCycles {
		if fast.PortCycles[i] != full.PortCycles[i] {
			t.Errorf("%s: port %d busy %v != %v", name, i, fast.PortCycles[i], full.PortCycles[i])
		}
	}
}

func TestSteadyStateBitIdenticalAllKernels(t *testing.T) {
	engaged, total := 0, 0
	for _, arch := range []string{"goldencove", "neoversev2", "zen4"} {
		m := uarch.MustGet(arch)
		for i := range kernels.Kernels {
			k := &kernels.Kernels[i]
			for _, c := range kernels.TargetOf(uarch.MustGet(arch)).Compilers() {
				for _, o := range kernels.AllOptLevels() {
					b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: c, Opt: o})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/%s", arch, b.Name)
					cfg := sim.DefaultConfig(m)
					fast, err := sim.Run(b, m, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cfg.DisableSteadyState = true
					full, err := sim.Run(b, m, cfg)
					if err != nil {
						t.Fatalf("%s (full): %v", name, err)
					}
					if full.SteadyStateIter != 0 {
						t.Fatalf("%s: DisableSteadyState run still extrapolated", name)
					}
					assertBitIdentical(t, name, fast, full)
					total++
					if fast.SteadyStateIter > 0 {
						engaged++
						if fast.SteadyStateIter >= cfg.WarmupIters+cfg.MeasureIters {
							t.Errorf("%s: claims convergence at %d of %d iterations",
								name, fast.SteadyStateIter, cfg.WarmupIters+cfg.MeasureIters)
						}
					}
				}
			}
		}
	}
	t.Logf("steady-state extrapolation engaged on %d/%d suite runs", engaged, total)
	if engaged*2 < total {
		t.Errorf("extrapolation engaged on only %d/%d runs; detector is not earning its keep", engaged, total)
	}
}

// TestSteadyStateEdgeConfigs covers the window edge cases with the
// periodicity machinery active: tiny measure windows, issue-width
// starvation, and a block bigger than every structural resource.
func TestSteadyStateEdgeConfigs(t *testing.T) {
	for _, arch := range []string{"goldencove", "neoversev2", "zen4"} {
		m := uarch.MustGet(arch)
		blk := goldenBlock(t, "striad", arch, kernels.GCC, kernels.O3)
		for _, tc := range []struct {
			name string
			cfg  sim.Config
		}{
			{"warmup0", sim.Config{WarmupIters: 0, MeasureIters: 5}},
			{"measure1", sim.Config{WarmupIters: 8, MeasureIters: 1}},
			{"longrun", sim.Config{WarmupIters: 16, MeasureIters: 1024}},
			{"issue1", sim.Config{WarmupIters: 64, MeasureIters: 256, IssueWidthOverride: 1}},
		} {
			fast, err := sim.Run(blk, m, tc.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, tc.name, err)
			}
			cfg := tc.cfg
			cfg.DisableSteadyState = true
			full, err := sim.Run(blk, m, cfg)
			if err != nil {
				t.Fatalf("%s/%s (full): %v", arch, tc.name, err)
			}
			assertBitIdentical(t, arch+"/striad/"+tc.name, fast, full)
		}
		big := oversizeBlock(t, arch, 80)
		cfg := sim.Config{WarmupIters: 2, MeasureIters: 3}
		fast, err := sim.Run(big, m, cfg)
		if err != nil {
			t.Fatalf("%s/bigblock: %v", arch, err)
		}
		cfg.DisableSteadyState = true
		full, err := sim.Run(big, m, cfg)
		if err != nil {
			t.Fatalf("%s/bigblock (full): %v", arch, err)
		}
		assertBitIdentical(t, arch+"/bigblock", fast, full)
	}
}

// TestSteadyStateLongRunEngages pins that a long healthy run converges
// early: the whole point of the detector is to make simulation cost
// O(transient), not O(iterations).
func TestSteadyStateLongRunEngages(t *testing.T) {
	m := uarch.MustGet("goldencove")
	blk := goldenBlock(t, "striad", "goldencove", kernels.GCC, kernels.O3)
	cfg := sim.DefaultConfig(m)
	cfg.WarmupIters = 64
	cfg.MeasureIters = 4096
	r, err := sim.Run(blk, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SteadyStateIter == 0 {
		t.Fatal("striad/goldencove never converged in 4160 iterations")
	}
	if r.SteadyStateIter > 1024 {
		t.Errorf("converged only at iteration %d; detector horizon regressed", r.SteadyStateIter)
	}
	if r.Iters != 4096 {
		t.Errorf("Iters = %d, want 4096", r.Iters)
	}
}
