// Package roofline implements the Roofline model (Williams et al., 2009)
// on top of the repository's machine models, as motivated in the paper's
// introduction: the in-core model provides a "more realistic horizontal
// ceiling" than the nominal peak.
//
// Performance bound for a kernel with arithmetic intensity I (flops per
// byte of memory traffic):
//
//	P(I) = min(P_ceiling, I * BW)
//
// where P_ceiling is either the nominal peak at the sustained frequency
// (package freq) or an in-core ceiling derived from the analyzer's
// throughput bound for the actual loop body.
package roofline

import (
	"fmt"
	"strings"

	"incore/internal/freq"
	"incore/internal/uarch"
)

// Ceiling is one horizontal line of the Roofline plot.
type Ceiling struct {
	Label     string
	GFlops    float64
	Sustained bool
}

// Model is a calibrated Roofline for one node.
type Model struct {
	Key      string
	Core     *uarch.Model
	BWGBs    float64 // measured socket bandwidth
	Ceilings []Ceiling
}

// ForModel builds the node Roofline of a machine model, using the
// sustained frequency of the widest vector ISA for the "realistic"
// ceiling. The calibration comes from the model's node-level section,
// so machine files get rooflines exactly like the built-ins.
func ForModel(cm *uarch.Model) (*Model, error) {
	np := cm.Node
	if np == nil || np.MemBWGBs <= 0 || np.FlopsPerCycle <= 0 {
		return nil, fmt.Errorf("roofline: model %q carries no node-level bandwidth/flops parameters (machine-file \"node\" section)", cm.Key)
	}
	g, err := freq.ForModel(cm)
	if err != nil {
		return nil, err
	}
	ext, err := np.Freq.WidestExt()
	if err != nil {
		return nil, fmt.Errorf("roofline: model %q: %w", cm.Key, err)
	}
	cores := cm.CoresPerChip
	fSust, err := g.Sustained(cores, ext)
	if err != nil {
		return nil, err
	}
	m := &Model{Key: cm.Key, Core: cm, BWGBs: np.MemBWGBs}
	nominal := float64(cores) * float64(np.FlopsPerCycle) * cm.MaxFreqGHz * 1e9 / 1e12 * 1e3
	sustained := float64(cores) * float64(np.FlopsPerCycle) * fSust
	if sustained > nominal {
		sustained = nominal
	}
	m.Ceilings = []Ceiling{
		{Label: "nominal peak (turbo)", GFlops: nominal},
		{Label: fmt.Sprintf("sustained peak (%.2f GHz under vector load)", fSust), GFlops: sustained, Sustained: true},
	}
	return m, nil
}

// Knee returns the arithmetic intensity at which a ceiling meets the
// bandwidth roof (the machine-balance point).
func (m *Model) Knee(ceiling Ceiling) float64 {
	if m.BWGBs == 0 {
		return 0
	}
	return ceiling.GFlops / m.BWGBs
}

// Render draws the rooflines and knees as text.
func (m *Model) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Roofline %s: memory roof %.0f GB/s\n", m.Key, m.BWGBs)
	for _, c := range m.Ceilings {
		fmt.Fprintf(&sb, "  %-55s %8.0f GFlop/s (knee at %.2f flop/B)\n",
			c.Label, c.GFlops, m.Knee(c))
	}
	return sb.String()
}
