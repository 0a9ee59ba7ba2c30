// Package experiments contains one runner per table and figure of the
// paper's evaluation, regenerating each artifact on the simulation
// substrate (see DESIGN.md's experiment index E1..E6).
//
// Every runner submits its unit of work — a system, a (arch,
// instruction) cell, a test block — as jobs on the shared
// internal/pipeline pool, with analyzer and simulator results memoized
// process-wide. Results are collected in submission order, so rendered
// output is byte-identical at any parallelism (cmd/repro -j N).
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"incore/internal/core"
	"incore/internal/freq"
	"incore/internal/ibench"
	"incore/internal/memsim"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// Table1Row is one system column of Table I: the chip's facts come from
// its built-in model, the FMA pipes from the in-core analysis of Table
// III's FMA throughput block, the cache geometry and ccNUMA domains from
// the memsim config its triad sweep runs on, and the main memory from the
// paper's data sheet.
type Table1Row struct {
	Model  *uarch.Model
	Sim    memsim.Config
	Memory paperMemory

	TheoreticalPeakTFs float64
	AchievablePeakTFs  float64
	SustainedVecGHz    float64

	TheoreticalBWGBs float64
	MeasuredBWGBs    float64
}

// paperMemory is one system's main memory as Table I lists it: facts no
// model or simulator reads.
type paperMemory struct {
	Type     string
	GB       int
	Channels int
	MTs      float64 // transfers/s per channel (millions)
	BusBytes int     // bytes per channel per transfer
}

// theoreticalGBs returns channels x rate x width in GB/s.
func (p paperMemory) theoreticalGBs() float64 {
	return float64(p.Channels) * p.MTs * 1e6 * float64(p.BusBytes) / 1e9
}

// paperTable1 holds Table I's main memory of each system.
var paperTable1 = map[string]paperMemory{
	"neoversev2": {Type: "LPDDR5X", GB: 240, Channels: 32, MTs: 8532 / 4, BusBytes: 8},
	"goldencove": {Type: "DDR5", GB: 512, Channels: 8, MTs: 4800, BusBytes: 8},
	"zen4":       {Type: "DDR5", GB: 384, Channels: 12, MTs: 4800, BusBytes: 8},
}

// peakTFs returns a chip's double-precision peak in TFlop/s for the given
// cores, flops per cycle per core, and clock.
func peakTFs(cores int, flopsPerCycle, ghz float64) float64 {
	return float64(cores) * flopsPerCycle * ghz * 1e9 / 1e12
}

// fmaFlopsPerCycle returns the DP flops per cycle per core of m's FMA
// pipes alone, the rate the achievable peak counts (without the ADD
// pipes vendors add to the theoretical one): Table III's FMA throughput
// block at its in-core throughput bound, two flops per lane. The analysis
// runs directly, past the pipeline's memo and store.
func fmaFlopsPerCycle(m *uarch.Model) (float64, error) {
	b, err := ibench.Build(m, ibench.VecFMA, false)
	if err != nil {
		return 0, err
	}
	res, err := core.New().Analyze(b, m)
	if err != nil {
		return 0, err
	}
	return ibench.TputInstances / res.TPBound * float64(ibench.Lanes(m, ibench.VecFMA)) * 2, nil
}

// Table1 reproduces Table I: node features plus measured bandwidth and
// achievable peak from the simulation substrate.
type Table1 struct {
	Rows []Table1Row
}

// triadLinesPerCore keeps the triad sweep fast while staying far above
// the scaled cache capacity.
const triadLinesPerCore = 8192

// RunTable1 measures bandwidth with the triad benchmark and derives
// achievable peak from the frequency governor's sustained all-core
// frequency for the widest vector ISA. One pipeline job per system; the
// bandwidth sweep inside each job fans out further on the same pool.
func RunTable1() (*Table1, error) {
	rows, err := pipeline.MapN(pipeline.Default(), len(paperArchs), func(i int) (Table1Row, error) {
		m := uarch.MustGet(paperArchs[i])
		row := Table1Row{Model: m, Memory: paperTable1[m.Key]}
		row.TheoreticalPeakTFs = peakTFs(m.CoresPerChip, float64(m.Node.FlopsPerCycle), m.MaxFreqGHz)
		row.TheoreticalBWGBs = row.Memory.theoreticalGBs()

		g, err := freq.ForModel(m)
		if err != nil {
			return row, err
		}
		ext, err := m.Node.Freq.WidestExt()
		if err != nil {
			return row, fmt.Errorf("table1: model %q: %w", m.Key, err)
		}
		f, err := g.Sustained(m.CoresPerChip, ext)
		if err != nil {
			return row, err
		}
		row.SustainedVecGHz = f
		fma, err := fmaFlopsPerCycle(m)
		if err != nil {
			return row, fmt.Errorf("table1: model %q: %w", m.Key, err)
		}
		row.AchievablePeakTFs = peakTFs(m.CoresPerChip, fma, f)

		var useful []float64
		row.Sim, useful, err = triadScaling(m, memsim.DefaultCounts(m.CoresPerChip))
		if err != nil {
			return row, err
		}
		row.MeasuredBWGBs = slices.Max(useful)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1{Rows: rows}, nil
}

// triadScaling runs the STREAM-triad-shaped benchmark on m's memory
// system at each core count and returns the useful bandwidth in GB/s.
// NT stores are used wherever memsim's calibrated policy does not claim
// lines automatically (the x86 systems: the STREAM convention with
// streaming stores); Grace's automatic claim achieves the same with
// standard stores. Each sample is a memoized pipeline.Triad job on the
// default pool. It also returns the memsim config the sweep runs on.
func triadScaling(m *uarch.Model, counts []int) (memsim.Config, []float64, error) {
	cfg, err := memsim.ConfigFor(m)
	if err != nil {
		return cfg, nil, err
	}
	nt := cfg.Policy != memsim.PolicyAutoClaim
	useful, err := pipeline.Map(pipeline.Default(), counts, func(c int) (float64, error) {
		tr, err := pipeline.Triad(m, c, triadLinesPerCore, nt)
		if err != nil {
			return 0, fmt.Errorf("table1: %s at %d cores: %w", m.Key, c, err)
		}
		return tr.UsefulGBs(), nil
	})
	return cfg, useful, err
}

// Render draws the table in the paper's layout (systems as columns).
func (t *Table1) Render() string {
	var sb strings.Builder
	head := []string{""}
	for _, r := range t.Rows {
		head = append(head, r.Model.CPU)
	}
	rows := [][]string{
		{"Microarchitecture"}, {"Cores"}, {"Freq (max/base) [GHz]"},
		{"Theor. DP peak [TFlop/s]"}, {"Achiev. DP peak [TFlop/s]"},
		{"TDP [W]"}, {"Cache (L1/L2/L3)"}, {"Main memory"},
		{"ccNUMA domains"}, {"Max mem BW theor. [GB/s]"},
		{"Max mem BW measured [GB/s]"}, {"BW efficiency"},
	}
	for _, r := range t.Rows {
		m, c, mem := r.Model, r.Sim, r.Memory
		rows[0] = append(rows[0], m.Name)
		rows[1] = append(rows[1], fmt.Sprintf("%d", m.CoresPerChip))
		rows[2] = append(rows[2], fmt.Sprintf("%.1f / %.2f", m.MaxFreqGHz, m.BaseFreqGHz))
		rows[3] = append(rows[3], fmt.Sprintf("%.2f", r.TheoreticalPeakTFs))
		rows[4] = append(rows[4], fmt.Sprintf("%.2f", r.AchievablePeakTFs))
		rows[5] = append(rows[5], fmt.Sprintf("%.0f", m.Node.Freq.TDPWatts))
		rows[6] = append(rows[6], fmt.Sprintf("%dKB/%dMB/%dMB", c.L1.SizeBytes*memsim.CacheScale>>10,
			c.L2.SizeBytes*memsim.CacheScale>>20, c.L3.SizeBytes*memsim.CacheScale*int64(c.Domains)>>20))
		rows[7] = append(rows[7], fmt.Sprintf("%dGB %s", mem.GB, mem.Type))
		rows[8] = append(rows[8], fmt.Sprintf("%d", c.Domains))
		rows[9] = append(rows[9], fmt.Sprintf("%.0f", r.TheoreticalBWGBs))
		rows[10] = append(rows[10], fmt.Sprintf("%.0f", r.MeasuredBWGBs))
		rows[11] = append(rows[11], fmt.Sprintf("%.0f%%", 100*r.MeasuredBWGBs/r.TheoreticalBWGBs))
	}
	sb.WriteString("Table I — node feature comparison (measured values from the simulation substrate)\n")
	writeTable(&sb, head, rows)
	return sb.String()
}

// writeTable renders rows with a header, padding columns.
func writeTable(sb *strings.Builder, head []string, rows [][]string) {
	width := make([]int, len(head))
	for i, h := range head {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(head)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
}
