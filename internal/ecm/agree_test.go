package ecm

import (
	"math"
	"testing"

	"incore/internal/core"
	"incore/internal/kernels"
	"incore/internal/memsim"
	"incore/internal/uarch"
)

// agreeLinesPerCore is the memsim working set per core and stream: far
// above the scaled caches, as in Table I's sweep, at a quarter the cost.
const agreeLinesPerCore = 2048

// TestECMAgreesWithMemsim tabulates the repo's two node-level models on
// the same machines and streams, E7's striad and the store stream (init,
// a[i] = s), both with standard stores, from memory:
//
//   - ECM: one core's memory-interface bandwidth (the traffic T_ECM
//     moves per cache line, write-allocate included, at the base clock)
//     and n_sat;
//   - memsim: one core's memory-interface bandwidth and the first core
//     count that reaches 95% of the full socket's.
//
// The table is pinned as it stands, disagreement included: ECM divides
// traffic by the whole socket's bandwidth, so one core moves 1.2-11x what
// memsim's per-core issue limit allows, and ECM saturates at 5-14 cores
// where memsim needs 16-57. GB/s figures hold within 0.5%, core counts
// exactly. Nothing here reads or writes the pipeline's memo or store.
func TestECMAgreesWithMemsim(t *testing.T) {
	type row struct {
		ecmGBs  float64
		ecmNSat int
		simGBs  float64
		sim95   int
	}
	want := map[string]map[string]row{
		"neoversev2": {"striad": {108.8, 5, 23.63, 21}, "init": {88.2, 6, 7.90, 57}},
		"goldencove": {"striad": {22.4, 13, 18.83, 16}, "init": {21.2, 14, 9.41, 36}},
		"zen4":       {"striad": {55.3, 7, 21.67, 21}, "init": {47.3, 8, 10.84, 55}},
	}
	trafficGBs := func(r memsim.TrafficResult) float64 {
		return float64(r.MemReadBytes+r.MemWriteBytes) / (float64(r.Ticks) * memsim.TickSeconds) / 1e9
	}
	near := func(got, w float64) bool { return math.Abs(got-w) <= 0.005*w }
	for key, kernelRows := range want {
		m := uarch.MustGet(key)
		em, err := ForModel(m)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := memsim.NewSystem(memsim.MustConfigFor(key))
		if err != nil {
			t.Fatal(err)
		}
		for kname, w := range kernelRows {
			k, err := kernels.ByName(kname)
			if err != nil {
				t.Fatal(err)
			}
			tg := kernels.TargetOf(m)
			cfg := kernels.Config{Target: tg, Compiler: tg.Compilers()[0], Opt: kernels.Ofast}
			b, err := kernels.Generate(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.New().Analyze(b, m)
			if err != nil {
				t.Fatal(err)
			}
			tOL, tnOL, err := InCoreInputs(res, kernels.ElemsPerIter(k, cfg))
			if err != nil {
				t.Fatal(err)
			}
			tr := TrafficForBlock(b)
			if tr.NT {
				t.Fatalf("%s/%s: want standard stores", key, kname)
			}
			r := em.Predict(tOL, tnOL, tr, MEM)
			var got row
			got.ecmGBs = (tr.LoadBytes + em.WAFactor*tr.StoreBytes) * em.FreqGHz / r.TECM
			got.ecmNSat = r.NSat

			run := func(cores int) float64 {
				var tres memsim.TrafficResult
				if kname == "striad" {
					tres, err = sys.RunTriad(cores, agreeLinesPerCore, false)
				} else {
					tres, err = sys.RunStoreStream(cores, agreeLinesPerCore, false)
				}
				if err != nil {
					t.Fatalf("%s/%s at %d cores: %v", key, kname, cores, err)
				}
				return trafficGBs(tres)
			}
			full := run(m.CoresPerChip)
			got.simGBs = run(1)
			for c := 1; c <= m.CoresPerChip; c++ {
				if run(c) >= 0.95*full {
					got.sim95 = c
					break
				}
			}
			t.Logf("%-10s %-6s ECM %6.1f GB/s, n_sat %2d | memsim %6.2f GB/s, 95%% at %2d cores",
				key, kname, got.ecmGBs, got.ecmNSat, got.simGBs, got.sim95)
			if !near(got.ecmGBs, w.ecmGBs) || got.ecmNSat != w.ecmNSat || !near(got.simGBs, w.simGBs) || got.sim95 != w.sim95 {
				t.Errorf("%s/%s: got %+v, want %+v", key, kname, got, w)
			}
		}
	}
}
