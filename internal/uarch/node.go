package uarch

import (
	"fmt"
	"slices"

	"incore/internal/isa"
)

// NodeParams is the optional node-level section of a machine model: the
// calibration the Execution-Cache-Memory model (internal/ecm), the
// frequency governor (internal/freq), and the Roofline ceilings
// (internal/roofline) need beyond the in-core port tables. A machine
// file, built-in or not, supplies them under its "node" key, so a
// runtime-loaded microarchitecture gets full node-level predictions, not
// just in-core analysis. These types are the section's wire form: their
// JSON tags are the machine file's keys.
//
// The whole section and each subsection are optional: a model without
// them still supports the analyzer, the MCA baseline, and the simulator;
// ecm.ForModel / freq.ForModel / roofline.ForModel report a descriptive
// error instead.
type NodeParams struct {
	// MemBWGBs is the sustained socket memory bandwidth in GB/s — the
	// measured/calibrated streaming ceiling, not the pin limit. It is
	// the ECM saturation ceiling and the Roofline memory roof.
	MemBWGBs float64 `json:"mem_bandwidth_gbs,omitempty"`
	// FlopsPerCycle is double-precision flops per cycle per core counted
	// the way vendors do (FMA pipes × lanes × 2, plus concurrent ADD
	// pipes); the Roofline compute ceilings scale with it.
	FlopsPerCycle int `json:"flops_per_cycle,omitempty"`

	// ECM carries the inter-level transfer parameters of the ECM model.
	ECM *ECMParams `json:"ecm,omitempty"`
	// Freq carries the TDP power-budget model of the frequency governor.
	Freq *FreqParams `json:"freq,omitempty"`
}

// OverlapLevels names the ECM transfer levels from the core outwards;
// ECMParams.Overlap lists a subset of them in this order.
var OverlapLevels = [3]string{"l1l2", "l2l3", "l3mem"}

// ECMParams calibrates the ECM transfer chain for one machine.
type ECMParams struct {
	// L1L2BytesPerCycle / L2L3BytesPerCycle are the per-core inter-level
	// bandwidths in bytes per core-clock cycle.
	L1L2BytesPerCycle float64 `json:"l1_l2_bytes_per_cycle"`
	L2L3BytesPerCycle float64 `json:"l2_l3_bytes_per_cycle"`
	// Overlap lists the transfer levels (of OverlapLevels, in its order)
	// that overlap with the rest of the data chain: they contribute
	// max-wise rather than additively — the Arm/AMD-style machine models
	// of Hofmann et al. 2020.
	Overlap []string `json:"overlap,omitempty"`
}

// canonicalOverlap returns the levels of Overlap in OverlapLevels order,
// each once, so a machine file's order and repeats do not reach the
// model's identity.
func (e *ECMParams) canonicalOverlap() ([]string, error) {
	for _, name := range e.Overlap {
		if !slices.Contains(OverlapLevels[:], name) {
			return nil, fmt.Errorf("uarch: machine file: unknown ECM overlap level %q", name)
		}
	}
	var out []string
	for _, name := range OverlapLevels {
		if slices.Contains(e.Overlap, name) {
			out = append(out, name)
		}
	}
	return out, nil
}

// FreqParams calibrates the TDP power-budget frequency governor: each
// active core dissipates P_static + c(isa)·f³ against the package budget
// TDP − P_uncore, clamped to the per-ISA license ceiling.
type FreqParams struct {
	// TDPWatts is the package power budget; UncoreWatts the fixed
	// non-core draw; StaticWattsPerCore per-core leakage.
	TDPWatts           float64 `json:"tdp_watts"`
	UncoreWatts        float64 `json:"uncore_watts"`
	StaticWattsPerCore float64 `json:"static_watts_per_core"`
	// MinFreqGHz is the governor floor.
	MinFreqGHz float64 `json:"min_freq_ghz"`
	// ActivityFactor maps ISA extension names (isa.Ext.String spelling:
	// "scalar", "sse", "avx", "avx512", "neon", "sve") to the cubic
	// dynamic-power coefficient c in W/GHz³.
	ActivityFactor map[string]float64 `json:"activity_factor"`
	// MaxFreqGHz maps the same extension names to license/turbo
	// frequency ceilings.
	MaxFreqGHz map[string]float64 `json:"max_freq_ghz"`
	// WidestVectorExt names the widest vector extension the machine
	// executes; sustained-peak ceilings (Roofline, Table I) evaluate the
	// governor at this class.
	WidestVectorExt string `json:"widest_vector_ext,omitempty"`
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
		factors := make(map[isa.Ext]bool, len(f.ActivityFactor))
		for name, c := range f.ActivityFactor {
			ext, err := isa.ParseExt(name)
			if err != nil {
				return fmt.Errorf("uarch: model %s: governor activity factor: %w", m.Key, err)
			}
			if c <= 0 {
				return fmt.Errorf("uarch: model %s: governor activity factor for %q must be positive", m.Key, name)
			}
			factors[ext] = true
		}
		ceilings := make(map[isa.Ext]bool, len(f.MaxFreqGHz))
		for name, fmax := range f.MaxFreqGHz {
			ext, err := isa.ParseExt(name)
			if err != nil {
				return fmt.Errorf("uarch: model %s: governor frequency ceiling: %w", m.Key, err)
			}
			if fmax <= 0 {
				return fmt.Errorf("uarch: model %s: governor frequency ceiling for %q must be positive", m.Key, name)
			}
			ceilings[ext] = true
		}
		// Sustained-peak ceilings evaluate the governor at the widest
		// extension, which needs an activity factor and a frequency
		// ceiling there.
		widest, err := f.WidestExt()
		if err != nil {
			return fmt.Errorf("uarch: model %s: widest vector extension: %w", m.Key, err)
		}
		if !factors[widest] {
			return fmt.Errorf("uarch: model %s: widest vector extension %q has no activity factor", m.Key, widest)
		}
		if !ceilings[widest] {
			return fmt.Errorf("uarch: model %s: governor has no frequency ceiling for its widest extension %q", m.Key, widest)
		}
	}
	return nil
}
