// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact and reporting its headline metric),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
package incore_test

import (
	"testing"

	"incore/internal/core"
	"incore/internal/experiments"
	"incore/internal/freq"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/mca"
	"incore/internal/memsim"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// BenchmarkTable1NodeBandwidth regenerates Table I (node comparison with
// measured memory bandwidth).
func BenchmarkTable1NodeBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].MeasuredBWGBs, "GCS-GB/s")
	}
}

// BenchmarkTable2PortModels regenerates Table II (port-model comparison).
func BenchmarkTable2PortModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t.Rows[0].Ports), "GCS-ports")
	}
}

// BenchmarkTable3InstrTPLat regenerates Table III (instruction throughput
// and latency microbenchmarks on the core simulator).
func BenchmarkTable3InstrTPLat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Cells["goldencove"][experiments.IVecFMA].ThroughputElems, "SPR-FMA-elems/cy")
	}
}

// BenchmarkFig2FreqScaling regenerates Fig. 2 (sustained frequency vs.
// active cores).
func BenchmarkFig2FreqScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[1].At(52), "SPR-AVX512-GHz")
	}
}

// BenchmarkFig3RPEValidation regenerates Fig. 3 (the 416-block validation
// of the in-core model against the simulated hardware and the baseline).
func BenchmarkFig3RPEValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.OSACASummary["all"].RightFrac, "OSACA-right-%")
		b.ReportMetric(100*f.MCASummary["all"].RightFrac, "MCA-right-%")
	}
}

// BenchmarkFig4WAEvasion regenerates Fig. 4 (write-allocate evasion
// traffic ratios).
func BenchmarkFig4WAEvasion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range f.Series {
			if s.Label == "SPR" {
				b.ReportMetric(s.AtFullSocket(), "SPR-ratio")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md Sec. 5)

// BenchmarkAblationPortBalancing compares the analyzer's optimal
// port-pressure bound against the greedy bound over the full suite
// (design choice #1: why OSACA's balancing matters).
func BenchmarkAblationPortBalancing(b *testing.B) {
	blocks, err := kernels.FullSuite()
	if err != nil {
		b.Fatal(err)
	}
	an := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var optSum, greedySum float64
		for _, tb := range blocks {
			m := uarch.MustGet(tb.Config.Arch)
			res, err := an.Analyze(tb.Block, m)
			if err != nil {
				b.Fatal(err)
			}
			optSum += res.TPBound
			greedySum += res.GreedyTPBound
		}
		b.ReportMetric(greedySum/optSum, "greedy/optimal")
	}
}

// BenchmarkAblationRenaming measures the cost of disabling register
// renaming in the simulated hardware (design choice #2).
func BenchmarkAblationRenaming(b *testing.B) {
	m := uarch.MustGet("goldencove")
	k, err := kernels.ByName("j2d5")
	if err != nil {
		b.Fatal(err)
	}
	blk, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.Clang, Opt: kernels.O3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on, err := sim.Run(blk, m, sim.DefaultConfig(m))
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultConfig(m)
		cfg.DisableRenaming = true
		off, err := sim.Run(blk, m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.CyclesPerIter/on.CyclesPerIter, "norename-slowdown")
	}
}

// BenchmarkAblationSpecI2MThreshold sweeps the SpecI2M engagement
// threshold (design choice #3).
func BenchmarkAblationSpecI2MThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, thresh := range []float64{0.4, 0.65, 0.8} {
			cfg := memsim.MustConfigFor("goldencove")
			cfg.SpecI2MThreshold = thresh
			cfg.SpecI2MRampEnd = thresh + 0.25
			sys, err := memsim.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, err := sys.RunStoreStream(26, 4096, false)
			if err != nil {
				b.Fatal(err)
			}
			if thresh == 0.65 {
				b.ReportMetric(r.WARatio(), "ratio@26c")
			}
		}
	}
}

// BenchmarkAblationNTResidual contrasts SPR's imperfect NT stores with
// Genoa's perfect ones (design choice #4).
func BenchmarkAblationNTResidual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spr := memsim.MustConfigFor("goldencove")
		sysS, err := memsim.NewSystem(spr)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sysS.RunStoreStream(52, 4096, true)
		if err != nil {
			b.Fatal(err)
		}
		gen := memsim.MustConfigFor("zen4")
		sysG, err := memsim.NewSystem(gen)
		if err != nil {
			b.Fatal(err)
		}
		rg, err := sysG.RunStoreStream(96, 4096, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs.WARatio()-rg.WARatio(), "SPR-minus-Genoa")
	}
}

// BenchmarkAblationFrontendWidth sweeps the simulator's issue width for
// high-ILP scalar code on Neoverse V2 (design choice #5).
func BenchmarkAblationFrontendWidth(b *testing.B) {
	m := uarch.MustGet("neoversev2")
	k, err := kernels.ByName("j3d27")
	if err != nil {
		b.Fatal(err)
	}
	blk, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("neoversev2")), Compiler: kernels.GCC, Opt: kernels.O1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c4, c8 float64
		for _, w := range []int{4, 8} {
			cfg := sim.DefaultConfig(m)
			cfg.IssueWidthOverride = w
			r, err := sim.Run(blk, m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if w == 4 {
				c4 = r.CyclesPerIter
			} else {
				c8 = r.CyclesPerIter
			}
		}
		b.ReportMetric(c4/c8, "width4/width8")
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks (library performance)

func BenchmarkAnalyzerSingleBlock(b *testing.B) {
	m := uarch.MustGet("goldencove")
	k, _ := kernels.ByName("striad")
	blk, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.GCC, Opt: kernels.O3})
	if err != nil {
		b.Fatal(err)
	}
	an := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Analyze(blk, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorSingleBlock(b *testing.B) {
	m := uarch.MustGet("goldencove")
	k, _ := kernels.ByName("striad")
	blk, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.GCC, Opt: kernels.O3})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(blk, m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCASingleBlock(b *testing.B) {
	m := uarch.MustGet("goldencove")
	k, _ := kernels.ByName("striad")
	blk, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.GCC, Opt: kernels.O3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mca.PredictDefault(blk, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParserX86(b *testing.B) {
	k, _ := kernels.ByName("j3d27")
	blk, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.Clang, Opt: kernels.O3})
	if err != nil {
		b.Fatal(err)
	}
	text := blk.Text()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.ParseBlock("bench", "goldencove", isa.DialectX86, text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		blocks, err := kernels.FullSuite()
		if err != nil {
			b.Fatal(err)
		}
		if len(blocks) != 416 {
			b.Fatal("suite size")
		}
	}
}

func BenchmarkFreqGovernor(b *testing.B) {
	g, err := freq.ForModel(uarch.MustGet("goldencove"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Curve(isa.ExtAVX512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemsimStoreStream(b *testing.B) {
	cfg := memsim.MustConfigFor("neoversev2")
	sys, err := memsim.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunStoreStream(8, 4096, false); err != nil {
			b.Fatal(err)
		}
	}
}
