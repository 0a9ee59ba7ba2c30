package uarch

import (
	"fmt"

	"incore/internal/isa"
)

// NodeParams is the optional node-level section of a machine model: the
// calibration the Execution-Cache-Memory model (internal/ecm), the
// frequency governor (internal/freq), and the Roofline ceilings
// (internal/roofline) need beyond the in-core port tables. Built-in
// models derive these values from the Table I system descriptions
// (internal/nodes); a machine file supplies them literally under its
// "node" key, so a runtime-loaded microarchitecture gets full node-level
// predictions, not just in-core analysis.
//
// The whole section and each subsection are optional: a model without
// them still supports the analyzer, the MCA baseline, and the simulator;
// ecm.ForModel / freq.ForModel / roofline.ForModel report a descriptive
// error instead.
type NodeParams struct {
	// MemBWGBs is the sustained socket memory bandwidth in GB/s — the
	// measured/calibrated streaming ceiling, not the pin limit. It is
	// the ECM saturation ceiling and the Roofline memory roof.
	MemBWGBs float64
	// FlopsPerCycle is double-precision flops per cycle per core counted
	// the way vendors do (FMA pipes × lanes × 2, plus concurrent ADD
	// pipes); the Roofline compute ceilings scale with it.
	FlopsPerCycle int

	// ECM carries the inter-level transfer parameters of the ECM model.
	ECM *ECMParams
	// Freq carries the TDP power-budget model of the frequency governor.
	Freq *FreqParams
}

// ECMParams calibrates the ECM transfer chain for one machine.
type ECMParams struct {
	// L1L2BytesPerCycle / L2L3BytesPerCycle are the per-core inter-level
	// bandwidths in bytes per core-clock cycle.
	L1L2BytesPerCycle float64
	L2L3BytesPerCycle float64
	// OverlapL1L2 / OverlapL2L3 / OverlapL3Mem report whether the
	// respective transfer level overlaps with the rest of the data chain
	// (contributes max-wise rather than additively — the Arm/AMD-style
	// machine models of Hofmann et al. 2020).
	OverlapL1L2  bool
	OverlapL2L3  bool
	OverlapL3Mem bool
}

// FreqParams calibrates the TDP power-budget frequency governor: each
// active core dissipates P_static + c(isa)·f³ against the package budget
// TDP − P_uncore, clamped to the per-ISA license ceiling.
type FreqParams struct {
	// TDPWatts is the package power budget; UncoreWatts the fixed
	// non-core draw; StaticWattsPerCore per-core leakage.
	TDPWatts           float64
	UncoreWatts        float64
	StaticWattsPerCore float64
	// MinFreqGHz is the governor floor.
	MinFreqGHz float64
	// ActivityFactor maps ISA extension names (isa.Ext.String spelling:
	// "scalar", "sse", "avx", "avx512", "neon", "sve") to the cubic
	// dynamic-power coefficient c in W/GHz³.
	ActivityFactor map[string]float64
	// MaxFreqGHz maps the same extension names to license/turbo
	// frequency ceilings.
	MaxFreqGHz map[string]float64
	// WidestVectorExt names the widest vector extension the machine
	// executes; sustained-peak ceilings (Roofline, Table I) evaluate the
	// governor at this class.
	WidestVectorExt string
}

// WidestExt resolves the ISA class at which sustained-peak ceilings
// (Roofline, Table I) evaluate the governor: WidestVectorExt when named,
// else the widest (isa.Ext.Wider) extension the governor carries an
// activity factor for, so machine files that skip the optional field
// still get one.
func (f *FreqParams) WidestExt() (isa.Ext, error) {
	if f.WidestVectorExt != "" {
		return isa.ParseExt(f.WidestVectorExt)
	}
	if len(f.ActivityFactor) == 0 {
		return 0, fmt.Errorf("governor names no ISA extensions")
	}
	best := isa.ExtScalar
	for name := range f.ActivityFactor {
		ext, err := isa.ParseExt(name)
		if err != nil {
			return 0, err
		}
		if ext.Wider(best) {
			best = ext
		}
	}
	return best, nil
}

// validateNode checks the node-level section when present; called from
// Model.Validate.
func (m *Model) validateNode() error {
	np := m.Node
	if np == nil {
		return nil
	}
	if np.MemBWGBs < 0 {
		return fmt.Errorf("uarch: model %s: negative node memory bandwidth", m.Key)
	}
	if np.FlopsPerCycle < 0 {
		return fmt.Errorf("uarch: model %s: negative node flops/cycle", m.Key)
	}
	if e := np.ECM; e != nil {
		if e.L1L2BytesPerCycle <= 0 || e.L2L3BytesPerCycle <= 0 {
			return fmt.Errorf("uarch: model %s: ECM inter-level bandwidths must be positive", m.Key)
		}
		if np.MemBWGBs <= 0 {
			return fmt.Errorf("uarch: model %s: ECM section requires a positive node memory bandwidth", m.Key)
		}
		// ecm.ForModel expresses the memory ceiling in bytes per
		// core-clock cycle; a missing base frequency would make it
		// infinite.
		if m.BaseFreqGHz <= 0 {
			return fmt.Errorf("uarch: model %s: ECM section requires a positive base_freq_ghz", m.Key)
		}
	}
	if f := np.Freq; f != nil {
		if f.TDPWatts <= 0 {
			return fmt.Errorf("uarch: model %s: governor TDP must be positive", m.Key)
		}
		// The governor solves for n in 1..CoresPerChip, and the roofline
		// peak scales with cores × max frequency.
		if m.CoresPerChip <= 0 {
			return fmt.Errorf("uarch: model %s: governor requires a positive cores_per_chip", m.Key)
		}
		if m.MaxFreqGHz <= 0 {
			return fmt.Errorf("uarch: model %s: governor requires a positive max_freq_ghz", m.Key)
		}
		if f.UncoreWatts < 0 || f.StaticWattsPerCore < 0 || f.MinFreqGHz < 0 {
			return fmt.Errorf("uarch: model %s: negative governor parameter", m.Key)
		}
		if len(f.ActivityFactor) == 0 || len(f.MaxFreqGHz) == 0 {
			return fmt.Errorf("uarch: model %s: governor needs activity factors and frequency ceilings", m.Key)
		}
		for name, c := range f.ActivityFactor {
			if _, err := isa.ParseExt(name); err != nil {
				return fmt.Errorf("uarch: model %s: governor activity factor: %w", m.Key, err)
			}
			if c <= 0 {
				return fmt.Errorf("uarch: model %s: governor activity factor for %q must be positive", m.Key, name)
			}
		}
		for name, fmax := range f.MaxFreqGHz {
			if _, err := isa.ParseExt(name); err != nil {
				return fmt.Errorf("uarch: model %s: governor frequency ceiling: %w", m.Key, err)
			}
			if fmax <= 0 {
				return fmt.Errorf("uarch: model %s: governor frequency ceiling for %q must be positive", m.Key, name)
			}
		}
		if f.WidestVectorExt != "" {
			if _, err := isa.ParseExt(f.WidestVectorExt); err != nil {
				return fmt.Errorf("uarch: model %s: widest vector extension: %w", m.Key, err)
			}
			if _, ok := f.ActivityFactor[f.WidestVectorExt]; !ok {
				return fmt.Errorf("uarch: model %s: widest vector extension %q has no activity factor", m.Key, f.WidestVectorExt)
			}
		}
	}
	return nil
}
