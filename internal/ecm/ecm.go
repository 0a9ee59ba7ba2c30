// Package ecm implements the Execution-Cache-Memory performance model —
// the paper's stated future work ("we plan to continue these
// investigations by applying our in-core model to a node-wide performance
// model such as the Execution-Cache-Memory (ECM) model").
//
// The ECM model predicts the runtime of a steady-state streaming loop per
// unit of work (one cache line, i.e. 8 doubles) from
//
//   - T_OL:  in-core "overlapping" time — cycles the core's compute ports
//     are busy (everything that can overlap with data transfers),
//   - T_nOL: in-core "non-overlapping" time — cycles the L1 cache is
//     blocked by loads and stores,
//   - T_L1L2, T_L2L3, T_L3Mem: data-transfer times between adjacent
//     memory levels, from the traffic volume per cache line and the
//     per-level bandwidths.
//
// For the Intel-style machine model, transfers do not overlap with each
// other or with T_nOL:
//
//	T_data = T_nOL + T_L1L2 + T_L2L3 + T_L3Mem
//	T_ECM  = max(T_OL, T_data)
//
// Other microarchitectures overlap part of the transfer chain (Hofmann et
// al., "Bridging the architecture gap", 2020); this is expressed with a
// per-level overlap factor: an overlapping level contributes
// max-wise rather than additively.
//
// Multicore scaling follows the standard ECM saturation assumption:
// performance scales linearly with cores until the memory-level transfer
// time alone saturates the shared bandwidth:
//
//	n_sat = ceil(T_ECM / T_L3Mem)
//
// The in-core inputs T_OL/T_nOL are extracted from the port-pressure
// analysis of package core, wiring the paper's contribution into the
// node-level model.
package ecm

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"incore/internal/core"
	"incore/internal/memsim"
	"incore/internal/uarch"
)

// MemLevel identifies where a kernel's working set resides.
type MemLevel int

// Memory hierarchy levels.
const (
	L1 MemLevel = iota
	L2
	L3
	MEM
)

// String names the level.
func (l MemLevel) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case MEM:
		return "MEM"
	default:
		return fmt.Sprintf("MemLevel(%d)", int(l))
	}
}

// Levels holds per-core inter-level bandwidths in bytes per cycle.
type Levels struct {
	// L1L2 is the L1<->L2 bandwidth (bytes/cy).
	L1L2 float64
	// L2L3 is the L2<->L3 bandwidth (bytes/cy).
	L2L3 float64
	// L3Mem is the full-socket memory bandwidth expressed in bytes per
	// core-clock cycle (the ECM convention: a single core cannot move
	// data faster than the socket; saturation is reached when n cores'
	// combined demand hits this ceiling).
	L3Mem float64
}

// Model is a calibrated ECM machine model for one microarchitecture.
type Model struct {
	Key  string
	Core *uarch.Model
	BW   Levels
	// Overlap[i] reports whether transfer level i (0=L1L2, 1=L2L3,
	// 2=L3Mem) overlaps with the rest of the data chain (true for the
	// Arm/AMD-style machine models on some levels).
	Overlap [3]bool
	// FreqGHz is the clock the cycle counts refer to.
	FreqGHz float64
	// WAFactor multiplies standard-store traffic below L1: memory traffic
	// per stored byte on a saturated socket (1 = lines claimed without a
	// read, 2 = every store miss allocates).
	WAFactor float64
}

// ForModel builds the ECM model of a machine model. The transfer-chain
// calibration comes from the model's node-level section
// (uarch.NodeParams), so machine files get node-level predictions
// exactly like the built-ins. The write-allocate factor comes from
// memsim's calibration of the model (memsim.Config.WAFactor); a model
// memsim has no calibration for always allocates (2).
func ForModel(cm *uarch.Model) (*Model, error) {
	np := cm.Node
	if np == nil || np.ECM == nil {
		return nil, fmt.Errorf("ecm: model %q carries no node-level ECM parameters (machine-file \"node.ecm\" section)", cm.Key)
	}
	m := &Model{Key: cm.Key, Core: cm}
	// Cycle counts refer to the guaranteed sustained (base) clock, the
	// ECM literature's convention for saturation estimates.
	m.FreqGHz = cm.BaseFreqGHz
	m.BW = Levels{L1L2: np.ECM.L1L2BytesPerCycle, L2L3: np.ECM.L2L3BytesPerCycle}
	for i, level := range uarch.OverlapLevels {
		m.Overlap[i] = slices.Contains(np.ECM.Overlap, level)
	}
	// The socket-bandwidth ceiling expressed in bytes per core-clock
	// cycle: a single core cannot move data faster than the socket;
	// saturation is reached when n cores' combined demand hits this.
	m.BW.L3Mem = np.MemBWGBs / m.FreqGHz
	m.WAFactor = 2
	if cfg, err := memsim.ConfigFor(cm); err == nil {
		m.WAFactor = cfg.WAFactor()
	}
	return m, nil
}

// Traffic describes per-cache-line data volumes of one kernel (64-byte
// unit of work): bytes moved between adjacent levels when the working set
// resides in the given level.
type Traffic struct {
	// LoadBytes / StoreBytes per cache line of work at the *source*
	// level (e.g. a triad moves 2 load lines + 1 store line = 192 B
	// loads, 64 B stores per line of output).
	LoadBytes, StoreBytes float64
	// NT marks non-temporal stores, which bypass the write-allocate and
	// move each stored byte once.
	NT bool
}

// Result is one single-core ECM prediction.
type Result struct {
	Model *Model
	Level MemLevel
	// All times in cycles per cache line of work.
	TOL, TnOL            float64
	TL1L2, TL2L3, TL3Mem float64
	// TECM is the combined single-core prediction.
	TECM float64
	// NSat is the core count at which shared memory bandwidth saturates
	// (only meaningful for MEM-resident working sets).
	NSat int
}

// CyclesPerIt converts the per-cache-line prediction into cycles per loop
// iteration given elements per iteration (8 elements = 1 line).
func (r *Result) CyclesPerIt(elemsPerIter int) float64 {
	return r.TECM * float64(elemsPerIter) / 8
}

// InCoreSplit splits an in-core analysis into T_OL and T_nOL per loop
// iteration: T_nOL is the maximum pressure on the model's load/store
// ports, T_OL the maximum pressure on all other ports.
func InCoreSplit(res *core.Result) (tOL, tnOL float64) {
	m := res.Model
	memMask := m.LoadPorts | m.StoreAGUPorts | m.StoreDataPorts | m.WideLoadPorts
	for p, load := range res.PortPressure {
		if memMask.Has(p) {
			tnOL = math.Max(tnOL, load)
		} else {
			tOL = math.Max(tOL, load)
		}
	}
	// LCD-bound kernels: the dependency chain is core time.
	return math.Max(tOL, res.LCD.Cycles), tnOL
}

// InCoreInputs returns InCoreSplit's T_OL and T_nOL scaled to one cache
// line of work.
func InCoreInputs(res *core.Result, elemsPerIter int) (tOL, tnOL float64, err error) {
	if elemsPerIter <= 0 {
		return 0, 0, fmt.Errorf("ecm: elemsPerIter must be positive")
	}
	tOL, tnOL = InCoreSplit(res)
	scale := 8.0 / float64(elemsPerIter)
	return tOL * scale, tnOL * scale, nil
}

// Predict computes the ECM prediction for a kernel whose in-core times are
// tOL/tnOL (cycles per cache line) with the given traffic, for a working
// set resident in level.
func (m *Model) Predict(tOL, tnOL float64, tr Traffic, level MemLevel) *Result {
	r := &Result{Model: m, Level: level, TOL: tOL, TnOL: tnOL}
	wa := m.WAFactor
	if tr.NT {
		wa = 1
	}
	vol := tr.LoadBytes + wa*tr.StoreBytes
	if level >= L2 {
		r.TL1L2 = vol / m.BW.L1L2
	}
	if level >= L3 {
		r.TL2L3 = vol / m.BW.L2L3
	}
	if level >= MEM {
		r.TL3Mem = vol / m.BW.L3Mem
	}
	// Combine: non-overlapping levels add to the data chain; overlapping
	// levels contribute max-wise.
	data := r.TnOL
	overlapMax := 0.0
	parts := []struct {
		t       float64
		overlap bool
	}{
		{r.TL1L2, m.Overlap[0]}, {r.TL2L3, m.Overlap[1]}, {r.TL3Mem, m.Overlap[2]},
	}
	for _, p := range parts {
		if p.overlap {
			overlapMax = math.Max(overlapMax, p.t)
		} else {
			data += p.t
		}
	}
	r.TECM = math.Max(math.Max(r.TOL, data), overlapMax)
	if level == MEM && r.TL3Mem > 0 {
		r.NSat = int(math.Ceil(r.TECM / r.TL3Mem))
	}
	return r
}

// Report renders the prediction in the ECM literature's notation.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ECM %s (%s), working set in %s\n", r.Model.Key, r.Model.Core.Name, r.Level)
	fmt.Fprintf(&sb, "  { T_OL | T_nOL | T_L1L2 | T_L2L3 | T_L3Mem } = { %.1f | %.1f | %.1f | %.1f | %.1f } cy/CL\n",
		r.TOL, r.TnOL, r.TL1L2, r.TL2L3, r.TL3Mem)
	fmt.Fprintf(&sb, "  T_ECM = %.1f cy/CL", r.TECM)
	if r.NSat > 0 {
		fmt.Fprintf(&sb, ", saturates at ~%d cores", r.NSat)
	}
	sb.WriteByte('\n')
	return sb.String()
}
