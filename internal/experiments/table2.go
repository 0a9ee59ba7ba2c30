package experiments

import (
	"fmt"
	"strings"

	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// Table2Row summarises one core's in-core features (Table II).
type Table2Row struct {
	Model       *uarch.Model
	Ports       int
	SIMDBytes   int
	IntUnits    int
	FPVecUnits  int
	LoadsDesc   string
	StoresDesc  string
	LoadsBytes  int // aggregate load bytes per cycle
	StoresBytes int
}

// Table2 reproduces Table II from the machine models themselves.
type Table2 struct {
	Rows []Table2Row
}

// RunTable2 derives the comparison from the registered machine models,
// one pipeline job per system.
func RunTable2() (*Table2, error) {
	rows, err := pipeline.Map(pipeline.Default(), paperArchs, func(key string) (Table2Row, error) {
		m, err := uarch.Get(key)
		if err != nil {
			return Table2Row{}, err
		}
		row := Table2Row{
			Model:      m,
			Ports:      len(m.Ports),
			SIMDBytes:  m.VecWidth / 8,
			IntUnits:   m.IntUnits,
			FPVecUnits: m.FPVectorUnits,
		}
		nLoads := m.LoadPorts.Count()
		loadBits := m.LoadWidthBits
		if m.WideLoadBits > 0 && m.WideLoadPorts != 0 {
			nLoads = m.WideLoadPorts.Count()
			loadBits = m.WideLoadBits
		}
		row.LoadsDesc = fmt.Sprintf("%d x %d B", nLoads, loadBits/8)
		row.LoadsBytes = nLoads * loadBits / 8
		nStores := m.StoreDataPorts.Count()
		row.StoresDesc = fmt.Sprintf("%d x %d B", nStores, m.StoreWidthBits/8)
		row.StoresBytes = nStores * m.StoreWidthBits / 8
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table2{Rows: rows}, nil
}

// Render draws Table II.
func (t *Table2) Render() string {
	var sb strings.Builder
	head := []string{""}
	rows := [][]string{
		{"Number of ports"}, {"SIMD width"}, {"Int units"},
		{"FP vector units"}, {"Loads/cy"}, {"Stores/cy"},
	}
	for _, r := range t.Rows {
		head = append(head, fmt.Sprintf("%s (%s)", chipLabel(r.Model.Key), r.Model.Name))
		rows[0] = append(rows[0], fmt.Sprintf("%d", r.Ports))
		rows[1] = append(rows[1], fmt.Sprintf("%d B", r.SIMDBytes))
		rows[2] = append(rows[2], fmt.Sprintf("%d", r.IntUnits))
		rows[3] = append(rows[3], fmt.Sprintf("%d", r.FPVecUnits))
		rows[4] = append(rows[4], r.LoadsDesc)
		rows[5] = append(rows[5], r.StoresDesc)
	}
	sb.WriteString("Table II — in-core features and port models\n")
	writeTable(&sb, head, rows)
	return sb.String()
}

// paperArchs lists the built-in models in the paper's column order:
// Grace, Sapphire Rapids, Genoa.
var paperArchs = []string{"neoversev2", "goldencove", "zen4"}

// chipLabel names a built-in model by the paper's short system label.
func chipLabel(key string) string {
	switch key {
	case "neoversev2":
		return "GCS"
	case "goldencove":
		return "SPR"
	case "zen4":
		return "Genoa"
	default:
		return key
	}
}
