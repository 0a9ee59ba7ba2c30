package experiments

import (
	"fmt"
	"strings"

	"incore/internal/core"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/sim"
	"incore/internal/stats"
	"incore/internal/uarch"
)

// Fig3Record is one validation data point: a generated kernel variant with
// its measurement and both predictions.
type Fig3Record struct {
	Block        string
	Arch         string
	Kernel       string
	Compiler     kernels.Compiler
	Opt          kernels.OptLevel
	MeasuredCy   float64
	OSACACy      float64
	MCACy        float64
	OSACARPE     float64
	MCARPE       float64
	ElemsPerIter int
	Bound        string
}

// Fig3 reproduces the model-validation study: 416 kernel variants,
// measured on the core simulator, predicted by the OSACA-style model and
// the LLVM-MCA-style baseline.
type Fig3 struct {
	Records []Fig3Record
	// Per-architecture and total summaries for both predictors.
	OSACASummary map[string]stats.Summary
	MCASummary   map[string]stats.Summary
	// Histograms per architecture and predictor.
	OSACAHist map[string]*stats.Histogram
	MCAHist   map[string]*stats.Histogram
	Unique    int
}

// RunFig3 executes the full study: one pipeline job per test block, each
// running the analyzer, the simulator, and the baseline through the
// shared memo cache (the suite's duplicate code bodies — 416 blocks, 229
// unique — collapse onto single computations). Records come back in suite
// order, so aggregation and rendering are independent of the worker
// count.
func RunFig3() (*Fig3, error) {
	blocks, err := kernels.FullSuite()
	if err != nil {
		return nil, err
	}
	f := &Fig3{
		OSACASummary: map[string]stats.Summary{},
		MCASummary:   map[string]stats.Summary{},
		OSACAHist:    map[string]*stats.Histogram{},
		MCAHist:      map[string]*stats.Histogram{},
		Unique:       kernels.UniqueBlocks(blocks),
	}
	an := core.New()
	f.Records, err = pipeline.Map(pipeline.Default(), blocks, func(tb kernels.TestBlock) (Fig3Record, error) {
		m, err := uarch.Get(tb.Config.Arch)
		if err != nil {
			return Fig3Record{}, err
		}
		res, err := pipeline.Analyze(an, tb.Block, m)
		if err != nil {
			return Fig3Record{}, fmt.Errorf("fig3: analyze %s: %w", tb.Block.Name, err)
		}
		meas, err := pipeline.Simulate(tb.Block, m, sim.DefaultConfig(m))
		if err != nil {
			return Fig3Record{}, fmt.Errorf("fig3: simulate %s: %w", tb.Block.Name, err)
		}
		mres, err := pipeline.MCAPredict(tb.Block, m)
		if err != nil {
			return Fig3Record{}, fmt.Errorf("fig3: mca %s: %w", tb.Block.Name, err)
		}
		rec := Fig3Record{
			Block: tb.Block.Name, Arch: tb.Config.Arch, Kernel: tb.Kernel.Name,
			Compiler: tb.Config.Compiler, Opt: tb.Config.Opt,
			MeasuredCy: meas.CyclesPerIter, OSACACy: res.Prediction,
			MCACy: mres.CyclesPerIter, ElemsPerIter: tb.ElemsPerIter,
			Bound: res.Bound,
		}
		rec.OSACARPE = stats.RPE(rec.MeasuredCy, rec.OSACACy)
		rec.MCARPE = stats.RPE(rec.MeasuredCy, rec.MCACy)
		return rec, nil
	})
	if err != nil {
		return nil, err
	}
	rpesO := map[string][]float64{}
	rpesM := map[string][]float64{}
	for _, rec := range f.Records {
		rpesO[rec.Arch] = append(rpesO[rec.Arch], rec.OSACARPE)
		rpesM[rec.Arch] = append(rpesM[rec.Arch], rec.MCARPE)
		rpesO["all"] = append(rpesO["all"], rec.OSACARPE)
		rpesM["all"] = append(rpesM["all"], rec.MCARPE)
	}
	for arch, v := range rpesO {
		f.OSACASummary[arch] = stats.Summarize(v)
		h := stats.NewHistogram()
		h.AddAll(v)
		f.OSACAHist[arch] = h
	}
	for arch, v := range rpesM {
		f.MCASummary[arch] = stats.Summarize(v)
		h := stats.NewHistogram()
		h.AddAll(v)
		f.MCAHist[arch] = h
	}
	return f, nil
}

// Outliers returns records with RPE below the threshold for the OSACA
// model (the paper's discussed over-predictions).
func (f *Fig3) Outliers(threshold float64) []Fig3Record {
	var out []Fig3Record
	for _, r := range f.Records {
		if r.OSACARPE < threshold {
			out = append(out, r)
		}
	}
	return out
}

// Render draws per-architecture histograms and the paper's aggregates.
func (f *Fig3) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 3 — relative prediction error of %d test blocks (%d unique) for OSACA-style model vs. LLVM-MCA-style baseline\n",
		len(f.Records), f.Unique)
	sb.WriteString("RPE = (measured - predicted)/measured; right of zero = prediction faster than measurement (desired for a lower bound)\n\n")
	for _, arch := range []string{"goldencove", "neoversev2", "zen4"} {
		fmt.Fprintf(&sb, "=== %s (%s) ===\n", chipLabel(arch), arch)
		fmt.Fprintf(&sb, "--- OSACA-style model: %s\n", f.OSACASummary[arch])
		sb.WriteString(f.OSACAHist[arch].Render(40))
		fmt.Fprintf(&sb, "--- LLVM-MCA-style baseline: %s\n", f.MCASummary[arch])
		sb.WriteString(f.MCAHist[arch].Render(40))
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "TOTAL OSACA: %s\n", f.OSACASummary["all"])
	fmt.Fprintf(&sb, "TOTAL MCA  : %s\n", f.MCASummary["all"])
	sb.WriteString("\nDiscussed over-predictions (RPE < -0.1):\n")
	for _, r := range f.Outliers(-0.1) {
		fmt.Fprintf(&sb, "  %-44s pred=%6.2f meas=%6.2f rpe=%+.2f [%s]\n",
			r.Block, r.OSACACy, r.MeasuredCy, r.OSACARPE, r.Bound)
	}
	return sb.String()
}
