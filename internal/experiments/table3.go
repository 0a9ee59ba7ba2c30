package experiments

import (
	"fmt"
	"strings"

	"incore/internal/ibench"
	"incore/internal/pipeline"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// InstrKind aliases the ibench instruction classes (the rows of the
// paper's Table III).
type InstrKind = ibench.Kind

// Table III instruction classes, re-exported for the experiment API.
const (
	IGather    = ibench.Gather
	IVecAdd    = ibench.VecAdd
	IVecMul    = ibench.VecMul
	IVecFMA    = ibench.VecFMA
	IVecDiv    = ibench.VecDiv
	IScalarAdd = ibench.ScalarAdd
	IScalarMul = ibench.ScalarMul
	IScalarFMA = ibench.ScalarFMA
	IScalarDiv = ibench.ScalarDiv
)

// AllInstrKinds lists Table III's rows in order.
func AllInstrKinds() []InstrKind { return ibench.AllKinds() }

// paperTable3 holds the published values for comparison:
// [arch][kind] = {throughput, latency}. Throughput in DP elements/cy
// (gather in cache lines/cy).
var paperTable3 = map[string]map[InstrKind][2]float64{
	"neoversev2": {
		IGather: {0.25, 9}, IVecAdd: {8, 2}, IVecMul: {8, 3}, IVecFMA: {8, 4},
		IVecDiv: {0.4, 5}, IScalarAdd: {4, 2}, IScalarMul: {4, 3},
		IScalarFMA: {4, 4}, IScalarDiv: {0.4, 12},
	},
	"goldencove": {
		IGather: {1.0 / 3, 20}, IVecAdd: {16, 2}, IVecMul: {16, 4}, IVecFMA: {16, 4},
		IVecDiv: {0.5, 14}, IScalarAdd: {2, 2}, IScalarMul: {2, 4},
		IScalarFMA: {2, 5}, IScalarDiv: {0.25, 14},
	},
	"zen4": {
		IGather: {0.125, 13}, IVecAdd: {8, 3}, IVecMul: {8, 3}, IVecFMA: {8, 4},
		IVecDiv: {0.8, 13}, IScalarAdd: {2, 3}, IScalarMul: {2, 3},
		IScalarFMA: {2, 4}, IScalarDiv: {0.2, 13},
	},
}

// PaperTable3Value returns the published (throughput, latency) pair.
func PaperTable3Value(arch string, kind InstrKind) (tp, lat float64, ok bool) {
	m, ok := paperTable3[arch]
	if !ok {
		return 0, 0, false
	}
	v, ok := m[kind]
	return v[0], v[1], ok
}

// Table3Cell is one measured (arch, instruction) pair.
type Table3Cell struct {
	Arch string
	Kind InstrKind
	// ThroughputElems is DP elements per cycle (cache lines per cycle
	// for gathers).
	ThroughputElems float64
	// LatencyCy is the measured dependency-chain latency.
	LatencyCy float64
	// PaperThroughput / PaperLatency are the published values.
	PaperThroughput, PaperLatency float64
}

// Table3 reproduces Table III via throughput and latency microbenchmarks
// (package ibench) executed on the core simulator.
type Table3 struct {
	Cells map[string]map[InstrKind]Table3Cell
}

// RunTable3 executes all microbenchmarks: the (arch, instruction) cross
// product is flattened into one pipeline job per cell, each memoized on
// the shared cache.
func RunTable3() (*Table3, error) {
	kinds := AllInstrKinds()
	cells, err := pipeline.MapN(pipeline.Default(), len(paperArchs)*len(kinds), func(i int) (Table3Cell, error) {
		arch, kind := paperArchs[i/len(kinds)], kinds[i%len(kinds)]
		m, err := uarch.Get(arch)
		if err != nil {
			return Table3Cell{}, err
		}
		r, err := pipeline.MeasureInstr(m, kind, sim.DefaultConfig(m))
		if err != nil {
			return Table3Cell{}, fmt.Errorf("table3: %s/%s: %w", arch, kind, err)
		}
		cell := Table3Cell{
			Arch: arch, Kind: kind,
			ThroughputElems: r.ThroughputElems, LatencyCy: r.LatencyCy,
		}
		cell.PaperThroughput, cell.PaperLatency, _ = PaperTable3Value(arch, kind)
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table3{Cells: map[string]map[InstrKind]Table3Cell{}}
	for _, c := range cells {
		if t.Cells[c.Arch] == nil {
			t.Cells[c.Arch] = map[InstrKind]Table3Cell{}
		}
		t.Cells[c.Arch][c.Kind] = c
	}
	return t, nil
}

// Render draws Table III with paper values alongside.
func (t *Table3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table III — DP instruction throughput and latency (measured on the core simulator; paper values in parentheses)\n")
	head := []string{"Instruction"}
	for _, a := range paperArchs {
		head = append(head, chipLabel(a)+" tp", chipLabel(a)+" lat")
	}
	var rows [][]string
	for _, kind := range AllInstrKinds() {
		row := []string{kind.String()}
		for _, a := range paperArchs {
			c := t.Cells[a][kind]
			row = append(row,
				fmt.Sprintf("%.2f (%.2f)", c.ThroughputElems, c.PaperThroughput),
				fmt.Sprintf("%.0f (%.0f)", c.LatencyCy, c.PaperLatency))
		}
		rows = append(rows, row)
	}
	writeTable(&sb, head, rows)
	sb.WriteString("Throughput in DP elements/cy (gather: cache lines/cy); latency in cycles.\n")
	return sb.String()
}
