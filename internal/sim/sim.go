// Package sim provides the "measurement" substrate of the reproduction: a
// cycle-level out-of-order core simulator parameterised by the same machine
// models (package uarch) the analytic predictors use.
//
// The paper validates its in-core model against hardware measurements of
// steady-state loop kernels. We have no Grace/SPR/Genoa silicon, so this
// simulator stands in for the machines. It models the mechanisms that make
// real measurements deviate from the analytic lower bound:
//
//   - oldest-first (greedy) port selection instead of optimal balancing,
//   - finite decode/issue/retire widths, ROB and scheduler capacity,
//   - register renaming (false dependencies are harmless, matching real
//     OoO hardware),
//   - pipelined address generation: a folded-load instruction's memory
//     access depends only on its address registers, so load latency does
//     not serialize accumulation chains,
//   - store-to-load forwarding with a real forwarding latency,
//   - the Neoverse V2 late-forwarding network: chained FP operations of
//     different kinds (e.g. FADD feeding FMUL) save a forwarding cycle —
//     the mechanism behind the paper's Gauss-Seidel outliers where OSACA
//     over-predicts on Grace,
//   - FMA accumulator forwarding (dependent FMLA chains see a reduced
//     accumulator latency),
//   - the Zen 4 divider early exit (scalar divides retire faster than the
//     documented worst case) — the mechanism behind the paper's π-kernel
//     outlier on Genoa.
//
// The simulator is an event-driven timing model: each dynamic instruction
// receives fetch, dispatch, issue, and retire timestamps subject to
// resource and dataflow constraints. Within the scheduler window work is
// scheduled greedily in program order, which is equivalent to an
// oldest-first picker.
//
// # Execution strategy
//
// Run executes in two phases. Compile lowers the block into a Program:
// interned dense register IDs, resolved port-candidate slices, cached
// mnemonic classifications, per-load memory-dependency lists. The engine
// then advances dynamic instructions over ring buffers sized to the live
// microarchitectural window — max(ROB, scheduler, decode group, two block
// iterations) — instead of O(iterations) arrays, with all scratch state
// pooled across runs, so the per-run footprint is O(window) and the
// steady-state hot path allocates nothing. Once the timing deltas of
// consecutive iterations become exactly periodic (checked over the whole
// live window, µ-op slots and port schedules included), the engine stops
// simulating and extrapolates the remaining iterations — bit-exactly; see
// steady.go for why the extrapolation is exact, not approximate.
package sim

import (
	"fmt"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// Config controls one simulation run.
type Config struct {
	// WarmupIters are executed before measurement starts (pipeline fill,
	// steady-state convergence).
	WarmupIters int
	// MeasureIters is the number of measured block iterations.
	MeasureIters int

	// FMAAccForwardLat, when positive, is the effective latency of an
	// FMA-to-FMA dependency through the accumulator operand.
	FMAAccForwardLat int
	// CrossOpForwardSave is the number of cycles saved when an FP value
	// forwards between operations of *different* classes (late
	// forwarding network); 0 disables.
	CrossOpForwardSave int
	// DivEarlyExitFactor scales the port occupancy of scalar divide
	// µ-ops (<1 models an early-exit divider); 0 or 1 disables it.
	DivEarlyExitFactor float64

	// DisableRenaming re-introduces WAW/WAR stalls (ablation; DESIGN.md
	// #2). Real Grace/SPR/Genoa cores all rename.
	DisableRenaming bool
	// Trace, when non-nil, receives per-dynamic-instruction timestamps
	// (debugging aid). Traced runs always simulate full length.
	Trace func(dyn int, instr string, fetch, dispatch, start, ready, retire float64)
	// IssueWidthOverride, when positive, replaces the model's issue
	// width (ablation; DESIGN.md #5).
	IssueWidthOverride int

	// DisableSteadyState forces a full-length simulation even when the
	// run reaches an exactly periodic steady state. Results are
	// bit-identical either way — extrapolation only engages when it is
	// provably exact — so this field, like Trace, is outcome-neutral
	// and excluded from pipeline memo keys; it exists for tests and
	// debugging.
	DisableSteadyState bool
}

// DefaultConfig returns the per-microarchitecture hardware quirks used for
// "measurements" in the reproduction.
func DefaultConfig(m *uarch.Model) Config {
	cfg := Config{WarmupIters: 64, MeasureIters: 256, DivEarlyExitFactor: 1}
	switch m.Key {
	case "neoversev2":
		// Late forwarding between heterogeneous FP ops plus accumulator
		// forwarding on FMLA chains.
		cfg.FMAAccForwardLat = 2
		cfg.CrossOpForwardSave = 1
	case "zen4":
		// The Zen 4 divider exits early for typical operands; measured
		// scalar divide throughput beats the documented reciprocal
		// throughput (paper: π kernel over-prediction on Genoa).
		cfg.DivEarlyExitFactor = 0.7
	}
	return cfg
}

// Result reports a simulation outcome.
type Result struct {
	// CyclesPerIter is the steady-state cycle count per block iteration.
	CyclesPerIter float64
	// TotalCycles spans the measured iterations only.
	TotalCycles float64
	// Iters is the number of measured iterations.
	Iters int
	// PortCycles is the per-port busy time accumulated over the measured
	// window (aligned with Model.Ports).
	PortCycles []float64

	// SteadyStateIter is the iteration at which the engine proved the
	// run periodic and stopped simulating (0: ran full length). Pure
	// telemetry — the timing fields are bit-identical either way — and
	// deliberately excluded from the persisted wire form.
	SteadyStateIter int `json:"-"`
}

// PortUtilization returns per-port busy fractions over the measured window.
func (r *Result) PortUtilization() []float64 {
	out := make([]float64, len(r.PortCycles))
	if r.TotalCycles <= 0 {
		return out
	}
	for i, c := range r.PortCycles {
		out[i] = c / r.TotalCycles
	}
	return out
}

// Run simulates cfg.WarmupIters+cfg.MeasureIters iterations of block b on
// model m and returns steady-state timing. It is Compile followed by
// Program.Run; callers simulating one block under several configurations
// can compile once and reuse the program.
func Run(b *isa.Block, m *uarch.Model, cfg Config) (*Result, error) {
	p, err := Compile(b, m)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}

// Run executes the compiled program under cfg.
func (p *Program) Run(cfg Config) (*Result, error) {
	if cfg.WarmupIters <= 0 {
		cfg.WarmupIters = 64
	}
	if cfg.MeasureIters <= 0 {
		cfg.MeasureIters = 256
	}
	issueWidth := p.model.IssueWidth
	if cfg.IssueWidthOverride > 0 {
		issueWidth = cfg.IssueWidthOverride
	}

	st := statePool.Get().(*simState)
	defer statePool.Put(st)
	st.reset(p, &cfg, issueWidth)

	r, err := st.run(p, &cfg, issueWidth)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// errNoWindow mirrors the historical failure mode when no measurement
// window opened (unreachable with the coerced iteration counts, kept for
// API stability).
func errNoWindow(b *isa.Block) error {
	return fmt.Errorf("sim: block %s: no measurement window", b.Name)
}
