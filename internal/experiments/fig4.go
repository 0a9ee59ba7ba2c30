package experiments

import (
	"fmt"
	"sort"
	"strings"

	"incore/internal/memsim"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// Fig4Series is one traffic-ratio curve of the WA-evasion study.
type Fig4Series struct {
	Arch  string
	Label string
	NT    bool
	// Ratio maps active core count to traffic/stored ratio.
	Ratio map[int]float64
	// Counts is the sorted sweep.
	Counts []int
}

// Fig4 reproduces the write-allocate evasion study: the ratio of actual
// memory traffic to stored data volume for a store-only benchmark, as a
// function of active cores, with standard and non-temporal stores.
type Fig4 struct {
	Series []Fig4Series
}

// RunFig4 runs the five curves of the paper's Fig. 4.
func RunFig4() (*Fig4, error) {
	specs := []struct {
		arch string
		nt   bool
	}{
		{"neoversev2", false},
		{"goldencove", false},
		{"goldencove", true},
		{"zen4", false},
		{"zen4", true},
	}
	series, err := pipeline.MapN(pipeline.Default(), len(specs), func(i int) (Fig4Series, error) {
		s := specs[i]
		label := chipLabel(s.arch)
		if s.nt {
			label += " NT stores"
		}
		m, err := uarch.Get(s.arch)
		if err != nil {
			return Fig4Series{}, err
		}
		counts := memsim.DefaultCounts(m.CoresPerChip)
		ratios, err := pipeline.WACurve(m, s.nt, counts)
		if err != nil {
			return Fig4Series{}, fmt.Errorf("fig4: %s: %w", label, err)
		}
		sorted := append([]int(nil), counts...)
		sort.Ints(sorted)
		return Fig4Series{
			Arch: s.arch, Label: label, NT: s.nt, Ratio: ratios, Counts: sorted,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig4{Series: series}, nil
}

// AtFullSocket returns a series' ratio at its maximum core count.
func (s *Fig4Series) AtFullSocket() float64 {
	if len(s.Counts) == 0 {
		return 0
	}
	return s.Ratio[s.Counts[len(s.Counts)-1]]
}

// Render draws the curves as a table plus the paper's headline findings.
func (f *Fig4) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig. 4 — ratio of actual memory traffic to stored data volume vs. active cores\n")
	sb.WriteString("(store-only benchmark; 1.0 = perfect write-allocate evasion, 2.0 = full WA traffic)\n")
	// Union of counts for the header.
	seen := map[int]bool{}
	var union []int
	for _, s := range f.Series {
		for _, c := range s.Counts {
			if !seen[c] {
				seen[c] = true
				union = append(union, c)
			}
		}
	}
	sort.Ints(union)
	head := []string{"series"}
	for _, c := range union {
		head = append(head, fmt.Sprintf("%d", c))
	}
	var rows [][]string
	for _, s := range f.Series {
		row := []string{s.Label}
		for _, c := range union {
			if v, ok := s.Ratio[c]; ok {
				row = append(row, fmt.Sprintf("%.2f", v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeTable(&sb, head, rows)
	sb.WriteString("\nFindings (compare paper Sec. III):\n")
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "  %-16s full socket ratio %.2f\n", s.Label, s.AtFullSocket())
	}
	return sb.String()
}
