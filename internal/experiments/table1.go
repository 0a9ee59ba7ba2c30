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

	"incore/internal/freq"
	"incore/internal/memsim"
	"incore/internal/nodes"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// Table1Row is one system column of Table I.
type Table1Row struct {
	Node *nodes.Node

	TheoreticalPeakTFs float64
	AchievablePeakTFs  float64
	SustainedVecGHz    float64

	TheoreticalBWGBs float64
	MeasuredBWGBs    float64
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
	rows, err := pipeline.MapN(pipeline.Default(), len(nodes.Nodes), func(i int) (Table1Row, error) {
		n := &nodes.Nodes[i]
		row := Table1Row{Node: n}
		row.TheoreticalPeakTFs = n.TheoreticalPeakTFs()
		row.TheoreticalBWGBs = n.TheoreticalBandwidthGBs()

		m := uarch.MustGet(n.Key)
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
		row.AchievablePeakTFs = n.AchievablePeakTFs(f)

		useful, err := triadScaling(m, memsim.DefaultCounts(m.CoresPerChip))
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
// default pool.
func triadScaling(m *uarch.Model, counts []int) ([]float64, error) {
	cfg, err := memsim.ConfigFor(m)
	if err != nil {
		return nil, err
	}
	nt := cfg.Policy != memsim.PolicyAutoClaim
	return pipeline.Map(pipeline.Default(), counts, func(c int) (float64, error) {
		tr, err := pipeline.Triad(m, c, triadLinesPerCore, nt)
		if err != nil {
			return 0, fmt.Errorf("table1: %s at %d cores: %w", m.Key, c, err)
		}
		return tr.UsefulGBs(), nil
	})
}

// Render draws the table in the paper's layout (systems as columns).
func (t *Table1) Render() string {
	var sb strings.Builder
	head := []string{""}
	for _, r := range t.Rows {
		head = append(head, r.Node.Name)
	}
	rows := [][]string{
		{"Microarchitecture"}, {"Cores"}, {"Freq (max/base) [GHz]"},
		{"Theor. DP peak [TFlop/s]"}, {"Achiev. DP peak [TFlop/s]"},
		{"TDP [W]"}, {"Cache (L1/L2/L3)"}, {"Main memory"},
		{"ccNUMA domains"}, {"Max mem BW theor. [GB/s]"},
		{"Max mem BW measured [GB/s]"}, {"BW efficiency"},
	}
	for _, r := range t.Rows {
		n := r.Node
		rows[0] = append(rows[0], n.Uarch)
		rows[1] = append(rows[1], fmt.Sprintf("%d", n.Cores))
		rows[2] = append(rows[2], fmt.Sprintf("%.1f / %.2f", n.MaxFreqGHz, n.BaseFreqGHz))
		rows[3] = append(rows[3], fmt.Sprintf("%.2f", r.TheoreticalPeakTFs))
		rows[4] = append(rows[4], fmt.Sprintf("%.2f", r.AchievablePeakTFs))
		rows[5] = append(rows[5], fmt.Sprintf("%.0f", n.TDPWatts))
		rows[6] = append(rows[6], fmt.Sprintf("%dKB/%dMB/%dMB", n.L1Bytes>>10, n.L2Bytes>>20, n.L3Bytes>>20))
		rows[7] = append(rows[7], fmt.Sprintf("%dGB %s", n.MemGB, n.MemType))
		rows[8] = append(rows[8], fmt.Sprintf("%d", n.CCNUMADomains))
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
