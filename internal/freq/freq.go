// Package freq models sustained CPU clock frequency for arithmetic-heavy
// code as a function of active core count and vector ISA class (paper
// Fig. 2).
//
// The model is a TDP power budget: each active core dissipates
//
//	P_core(f) = P_static + c(isa) * f^3
//
// (dynamic power scales with f*V^2 and V roughly with f), the uncore
// draws a fixed P_uncore, and the governor solves for the highest
// frequency such that
//
//	P_uncore + n * P_core(f) <= TDP,
//
// clamped to the per-ISA maximum license frequency. Wider vectors have a
// larger activity factor c, which is why AVX-512-heavy code throttles
// first on Sapphire Rapids. Grace's Neoverse V2 cores are efficient
// enough that the budget never binds: the chip holds its 3.4 GHz base
// frequency across the whole socket, matching the paper's observation of
// a 1.7x sustained-frequency advantage over SPR for AVX-512 code.
package freq

import (
	"fmt"
	"math"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// Governor solves sustained frequency for one chip.
type Governor struct {
	Key   string
	Cores int
	// TDPWatts is the package power budget.
	TDPWatts float64
	// UncoreWatts is the fixed non-core power draw.
	UncoreWatts float64
	// StaticWattsPerCore is per-core leakage.
	StaticWattsPerCore float64
	// ActivityFactor maps ISA class to the cubic dynamic-power
	// coefficient c (W/GHz^3).
	ActivityFactor map[isa.Ext]float64
	// MaxFreqGHz maps ISA class to the license/turbo ceiling.
	MaxFreqGHz map[isa.Ext]float64
	// MinFreqGHz is the governor floor.
	MinFreqGHz float64
}

// ForModel builds the calibrated governor of a machine model. The
// calibration comes from the model's node-level section
// (uarch.NodeParams.Freq), so machine files get frequency curves
// exactly like the built-ins.
func ForModel(m *uarch.Model) (*Governor, error) {
	if m.Node == nil || m.Node.Freq == nil {
		return nil, fmt.Errorf("freq: model %q carries no node-level governor parameters (machine-file \"node.freq\" section)", m.Key)
	}
	fp := m.Node.Freq
	g := &Governor{
		Key: m.Key, Cores: m.CoresPerChip, TDPWatts: fp.TDPWatts,
		UncoreWatts: fp.UncoreWatts, StaticWattsPerCore: fp.StaticWattsPerCore,
		ActivityFactor: make(map[isa.Ext]float64, len(fp.ActivityFactor)),
		MaxFreqGHz:     make(map[isa.Ext]float64, len(fp.MaxFreqGHz)),
		MinFreqGHz:     fp.MinFreqGHz,
	}
	for name, c := range fp.ActivityFactor {
		ext, err := isa.ParseExt(name)
		if err != nil {
			return nil, fmt.Errorf("freq: model %q: %w", m.Key, err)
		}
		g.ActivityFactor[ext] = c
	}
	for name, f := range fp.MaxFreqGHz {
		ext, err := isa.ParseExt(name)
		if err != nil {
			return nil, fmt.Errorf("freq: model %q: %w", m.Key, err)
		}
		g.MaxFreqGHz[ext] = f
	}
	return g, nil
}

// Sustained returns the sustained all-active-core frequency in GHz for n
// active cores running code of the given ISA class.
func (g *Governor) Sustained(n int, ext isa.Ext) (float64, error) {
	if n <= 0 || n > g.Cores {
		return 0, fmt.Errorf("freq: %s: core count %d out of range 1..%d", g.Key, n, g.Cores)
	}
	c, ok := g.ActivityFactor[ext]
	if !ok {
		return 0, fmt.Errorf("freq: %s: no activity factor for ISA %s", g.Key, ext)
	}
	fmax, ok := g.MaxFreqGHz[ext]
	if !ok {
		return 0, fmt.Errorf("freq: %s: no frequency ceiling for ISA %s", g.Key, ext)
	}
	budget := (g.TDPWatts-g.UncoreWatts)/float64(n) - g.StaticWattsPerCore
	if budget <= 0 {
		return g.MinFreqGHz, nil
	}
	f := math.Cbrt(budget / c)
	if f > fmax {
		f = fmax
	}
	if f < g.MinFreqGHz {
		f = g.MinFreqGHz
	}
	return f, nil
}

// Curve returns sustained frequency for 1..Cores active cores.
func (g *Governor) Curve(ext isa.Ext) ([]float64, error) {
	out := make([]float64, g.Cores)
	for n := 1; n <= g.Cores; n++ {
		f, err := g.Sustained(n, ext)
		if err != nil {
			return nil, err
		}
		out[n-1] = f
	}
	return out, nil
}
