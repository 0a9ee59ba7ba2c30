// Package mca implements the baseline comparator of the paper's Fig. 3: an
// LLVM-MCA-style timeline predictor. Like LLVM-MCA it replays the block
// through a dispatch/issue/writeback pipeline driven by a scheduler model —
// and, like LLVM-MCA's models for these (then) brand-new server cores, that
// scheduler model is deliberately less faithful than the hand-built OSACA
// port model in internal/core:
//
//   - dispatch width defaults that lag the real frontends (the Neoverse V2
//     model is the least mature, matching the paper's observation that
//     LLVM-MCA's V2 predictions are off by 52% on average);
//   - static round-robin port selection inside resource groups instead of
//     pressure-aware balancing;
//   - integer-rounded resource occupancy (fractional reciprocal
//     throughputs are rounded up);
//   - no store-to-load forwarding, no FMA accumulator forwarding, no
//     divider early exit.
//
// The combination reproduces the paper's qualitative finding: roughly
// three quarters of the 416 validation kernels are predicted *slower* than
// the measurement, with a heavy far-left tail, while per-architecture
// fidelity differs (Zen 4 best, Neoverse V2 worst).
package mca

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"incore/internal/isa"
	"incore/internal/portsched"
	"incore/internal/uarch"
)

// Params captures the per-architecture maturity of the baseline scheduler
// model.
type Params struct {
	// DispatchWidth is the µ-ops dispatched per cycle by the baseline
	// model (not necessarily the real frontend width).
	DispatchWidth int
	// VecLatBias is added to vector FP latencies (immature models often
	// carry worst-case latencies).
	VecLatBias int
	// RoundRobin selects ports statically (round-robin per mask) instead
	// of by current availability.
	RoundRobin bool
	// LoadLat overrides the model's load-to-use latency (generic default
	// in immature models); 0 keeps the model value.
	LoadLat int
}

// ParamsFor returns the baseline model parameters for a microarchitecture,
// mirroring the relative maturity of LLVM's scheduler models in 2024.
func ParamsFor(key string) Params {
	switch key {
	case "neoversev2":
		return Params{DispatchWidth: 4, VecLatBias: 1, RoundRobin: true, LoadLat: 6}
	case "goldencove":
		return Params{DispatchWidth: 4, VecLatBias: 1, RoundRobin: true}
	case "zen4":
		return Params{DispatchWidth: 5, VecLatBias: 0, RoundRobin: false}
	default:
		return Params{DispatchWidth: 4, VecLatBias: 1, RoundRobin: true}
	}
}

// Result is the baseline prediction for one block.
type Result struct {
	CyclesPerIter float64
	Iters         int
}

// sInstr is the static per-instruction schedule state: registers lowered
// to dense interned IDs so the replay loop tracks producers with slice
// indexing instead of map lookups.
type sInstr struct {
	desc     uarch.Desc
	dataIDs  []int32 // interned data-read registers (address regs excluded)
	writeIDs []int32
	lat      float64
}

// scratch holds the reusable replay arenas one prediction needs; a
// sync.Pool makes a steady stream of predictions do O(1) heap work after
// warmup and concurrent callers safe. The static front-end lives in
// Compiled, not here, so one compile can serve any number of replays.
type scratch struct {
	producer []int32 // by reg ID: dynamic index of last writer, -1 none
	ready    []float64
	finish   []float64
	dispatch []float64
	ports    portsched.Group
	// Round-robin rotation counters per distinct port mask (the former
	// rrCounter map); realistic models carry ~10 distinct masks.
	rrMasks  []uarch.PortMask
	rrCounts []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resized to length n, preserving existing contents (and
// backing capacity) wherever possible; callers reinitialize the prefix
// they use. Same contract as depgraph's growOuter and core's grow.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// rrNext returns the rotation counter for mask and advances it.
func (s *scratch) rrNext(mask uarch.PortMask) int {
	for i, m := range s.rrMasks {
		if m == mask {
			c := s.rrCounts[i]
			s.rrCounts[i]++
			return c
		}
	}
	s.rrMasks = append(s.rrMasks, mask)
	s.rrCounts = append(s.rrCounts, 1)
	return 0
}

// Compiled is the static front-end of one baseline prediction: the
// block's instructions resolved against one model and lowered to the
// interned-ID tables the replay loop reads. A Compiled is immutable after
// Compile, safe for concurrent Predict calls, and cacheable per
// (block content, model) — the replay itself draws its dynamic state from
// a pooled scratch.
type Compiled struct {
	model  *uarch.Model
	params Params
	static []sInstr
	nRegs  int
}

// Compile lowers block b against model m under scheduler parameters p —
// the cacheable half of Predict. The error surface matches Predict's.
func Compile(b *isa.Block, m *uarch.Model, p Params) (*Compiled, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if p.DispatchWidth <= 0 {
		p.DispatchWidth = 4
	}
	c := &Compiled{model: m, params: p, static: make([]sInstr, len(b.Instrs))}
	var interner isa.RegInterner
	var addrRegs []isa.RegKey
	static := c.static
	for i := range b.Instrs {
		in := &b.Instrs[i]
		eff := isa.InstrEffects(in, m.Dialect)
		d, err := m.LookupEff(in, &eff)
		if err != nil {
			return nil, fmt.Errorf("mca: block %s instr %d (%s): %w", b.Name, i, in.Mnemonic, err)
		}
		// Like LLVM-MCA, addresses are assumed ready (L1 hit model):
		// producer chains run through register data only.
		var lat float64
		switch {
		case d.Lat > 0:
			lat = float64(d.Lat)
		case d.IsLoad:
			lat = float64(d.TotalLat)
			if p.LoadLat > 0 {
				lat = float64(p.LoadLat)
			}
		default:
			lat = float64(d.TotalLat)
		}
		if p.VecLatBias > 0 && in.VecWidth() >= 128 {
			lat += float64(p.VecLatBias)
		}
		addrRegs = eff.AddrRegs(addrRegs[:0])
		si := &static[i]
		si.desc = d
		si.lat = lat
		si.writeIDs = interner.InternAll(si.writeIDs[:0], eff.Writes)
		si.dataIDs = si.dataIDs[:0]
		for _, r := range eff.Reads {
			if !slices.Contains(addrRegs, r) {
				si.dataIDs = append(si.dataIDs, interner.Intern(r))
			}
		}
	}
	c.nRegs = interner.Len()
	return c, nil
}

// SizeEstimate approximates the compiled tables' retained heap bytes for
// cache accounting (an estimate, not an exact account; descriptor µ-op
// slices are usually shared with the model's tables and counted anyway as
// an upper bound).
func (c *Compiled) SizeEstimate() int {
	size := 64 + len(c.static)*176 // sInstr incl. embedded desc
	for i := range c.static {
		si := &c.static[i]
		size += 4*(len(si.dataIDs)+len(si.writeIDs)) + 24*len(si.desc.Uops)
	}
	return size
}

// Predict replays the compiled block through the dispatch/issue/writeback
// timeline and returns the predicted steady-state cycles per iteration.
func (c *Compiled) Predict() (*Result, error) {
	m, p := c.model, c.params
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.rrMasks, s.rrCounts = s.rrMasks[:0], s.rrCounts[:0]
	static := c.static

	// Like the llvm-mca CLI, the prediction is total cycles over 100
	// iterations divided by 100 — including pipeline ramp-up, which
	// biases every prediction slightly above steady state.
	const meas = 100
	nStatic := len(static)
	nDyn := nStatic * meas

	s.producer = grow(s.producer, c.nRegs)
	producer := s.producer
	for i := range producer {
		producer[i] = -1
	}
	s.ready = grow(s.ready, nDyn)
	s.finish = grow(s.finish, nDyn)
	ready, finish := s.ready, s.finish
	s.ports.ResetTo(len(m.Ports))
	ports := &s.ports
	dispatched := s.dispatch[:0]

	for dyn := 0; dyn < nDyn; dyn++ {
		si := dyn % nStatic
		st := &static[si]

		disp := 0.0
		slot := len(dispatched)
		if slot >= p.DispatchWidth {
			disp = dispatched[slot-p.DispatchWidth] + 1
		}
		// LLVM-MCA's per-cycle dispatch grouping: a taken branch ends
		// the group, so the next instruction dispatches a cycle later.
		if dyn > 0 && static[(dyn-1)%nStatic].desc.IsBranch && slot > 0 {
			if t := dispatched[slot-1] + 1; t > disp {
				disp = t
			}
		}

		opReady := disp
		for _, r := range st.dataIDs {
			if pd := producer[r]; pd >= 0 && ready[pd] > opReady {
				opReady = ready[pd]
			}
		}

		startMax := opReady
		for _, u := range st.desc.Uops {
			// Fractional occupancies round up to whole cycles, as in
			// LLVM-MCA's scheduler models of these cores.
			occ := math.Ceil(u.Cycles)
			var t float64
			if p.RoundRobin {
				// Static resource-group rotation: the port is chosen by
				// counter, not by availability (an immature scheduler
				// model's behaviour).
				idx := m.PortIndices(u.Ports)
				port := idx[s.rrNext(u.Ports)%len(idx)]
				t = ports.ScheduleOn(port, opReady, occ)
			} else {
				_, t = ports.ScheduleBest(m.PortIndices(u.Ports), opReady, occ)
			}
			if t > startMax {
				startMax = t
			}
			dispatched = append(dispatched, disp)
		}
		if len(st.desc.Uops) == 0 {
			dispatched = append(dispatched, disp)
		}
		ready[dyn] = startMax + st.lat
		fin := ready[dyn]
		if dyn > 0 && finish[dyn-1] > fin {
			fin = finish[dyn-1]
		}
		finish[dyn] = fin

		for _, w := range st.writeIDs {
			producer[w] = int32(dyn)
		}
	}
	s.dispatch = dispatched

	total := finish[nDyn-1]
	if total <= 0 {
		total = 1
	}
	return &Result{CyclesPerIter: total / meas, Iters: meas}, nil
}

// Predict runs the baseline timeline model for the block and returns the
// predicted steady-state cycles per iteration: Compile followed by one
// replay. Callers issuing repeated predictions of one (block, model)
// should compile once and replay the Compiled form (internal/pipeline
// caches it).
func Predict(b *isa.Block, m *uarch.Model, p Params) (*Result, error) {
	c, err := Compile(b, m, p)
	if err != nil {
		return nil, err
	}
	return c.Predict()
}

// PredictDefault runs Predict with the per-architecture default parameters.
func PredictDefault(b *isa.Block, m *uarch.Model) (*Result, error) {
	return Predict(b, m, ParamsFor(m.Key))
}
