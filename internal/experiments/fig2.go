package experiments

import (
	"fmt"
	"strings"

	"incore/internal/freq"
	"incore/internal/isa"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// Fig2Series is one frequency-vs-cores curve.
type Fig2Series struct {
	Arch  string
	Label string
	Ext   isa.Ext
	// FreqGHz[i] is the sustained frequency at i+1 active cores.
	FreqGHz []float64
}

// Fig2 reproduces the sustained-clock-frequency study: for each system
// and ISA extension, sustained all-active-core frequency across one chip.
type Fig2 struct {
	Series []Fig2Series
}

// RunFig2 evaluates the frequency governor for the paper's curves:
// GCS (one curve: no ISA dependence), SPR AVX-512 vs AVX/SSE, Genoa (one
// curve).
func RunFig2() (*Fig2, error) {
	specs := []struct {
		arch, suffix string
		ext          isa.Ext
	}{
		{"neoversev2", "", isa.ExtSVE},
		{"goldencove", " AVX-512", isa.ExtAVX512},
		{"goldencove", " AVX/SSE", isa.ExtAVX},
		{"zen4", "", isa.ExtAVX512},
	}
	series, err := pipeline.MapN(pipeline.Default(), len(specs), func(i int) (Fig2Series, error) {
		s := specs[i]
		g, err := freq.ForModel(uarch.MustGet(s.arch))
		if err != nil {
			return Fig2Series{}, err
		}
		curve, err := g.Curve(s.ext)
		if err != nil {
			return Fig2Series{}, err
		}
		return Fig2Series{Arch: s.arch, Label: chipLabel(s.arch) + s.suffix, Ext: s.ext, FreqGHz: curve}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig2{Series: series}, nil
}

// At returns the sustained frequency of a series at n cores.
func (s *Fig2Series) At(n int) float64 {
	if n < 1 || n > len(s.FreqGHz) {
		return 0
	}
	return s.FreqGHz[n-1]
}

// Render draws the curves as a sampled table plus the paper's headline
// observations.
func (f *Fig2) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig. 2 — sustained CPU clock frequency [GHz] for arithmetic-heavy code vs. active cores\n")
	samples := []int{1, 4, 8, 13, 16, 26, 32, 40, 52, 64, 72, 80, 96}
	head := []string{"series"}
	for _, n := range samples {
		head = append(head, fmt.Sprintf("%d", n))
	}
	var rows [][]string
	for _, s := range f.Series {
		row := []string{s.Label}
		for _, n := range samples {
			if n > len(s.FreqGHz) {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", s.At(n)))
		}
		rows = append(rows, row)
	}
	writeTable(&sb, head, rows)
	for _, s := range f.Series {
		n := len(s.FreqGHz)
		fmt.Fprintf(&sb, "%-12s full-socket sustained: %.2f GHz (%.0f%% of single-core max %.2f GHz)\n",
			s.Label, s.At(n), 100*s.At(n)/s.At(1), s.At(1))
	}
	gcs, spr := &f.Series[0], &f.Series[1]
	fmt.Fprintf(&sb, "%s vs %s sustained-frequency advantage: %.1fx (paper: 1.7x)\n",
		gcs.Label, spr.Label, gcs.At(72)/spr.At(52))
	return sb.String()
}
