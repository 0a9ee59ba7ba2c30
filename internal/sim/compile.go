package sim

import (
	"fmt"
	"slices"
	"sync"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// Program is a block lowered against one machine model into the flat,
// map-free representation the execution engine runs: every architectural
// register touched by the block is interned to a dense small ID, µ-op port
// candidates are resolved to index slices, mnemonic classifications
// (FP class, FMA accumulator, divide/vector flags) are evaluated once, and
// store→load memory dependencies are grouped per consuming load. Compiling
// once and running the numeric kernel on dense state is what makes the
// simulator's hot path allocation-free (see DESIGN.md "Performance").
//
// A Program is immutable after Compile and safe for concurrent Run calls.
type Program struct {
	block *isa.Block
	model *uarch.Model

	nStatic int
	// nRegs is the interner size; per-register engine state (producer,
	// last-reader) is a slice of this length.
	nRegs int

	instrs []pInstr
	uops   []pUop

	// loadDeps groups memory dependencies by consuming load index,
	// preserving isa.StoreLoadDeps order within each group.
	loadDeps [][]memDep

	// slotsPerIter is the number of µ-op dispatch slots one iteration
	// appends (scheduled µ-ops plus one synthetic slot per µ-op-less
	// instruction).
	slotsPerIter int
	maxUopSlots  int

	// names caches Instruction.String() for trace callbacks (built
	// lazily on the first traced run; namesOnce keeps the lazy build
	// safe under the concurrent-Run guarantee).
	names     []string
	namesOnce sync.Once
}

// pUop is one compiled µ-op: its candidate port indices are precomputed so
// the engine never rebuilds them per dynamic instruction.
type pUop struct {
	cand   []int
	cycles float64
	kind   uarch.UopKind
}

// pInstr is the compiled static instruction record. All register
// references are interned IDs; latencies are pre-widened to float64.
type pInstr struct {
	uopOff, uopEnd int32

	lat      float64 // reg-to-reg compute latency
	loadLat  float64
	totalLat float64
	latZero  bool

	// nUopsWidth is the µ-op count charged against the issue width
	// (len(Uops), or 1 when the instruction decodes to none); nSlots is
	// how many dispatch slots the engine actually appends.
	nUopsWidth int32
	nSlots     int32

	isLoad, isStore, isBranch bool
	hasLoadStage              bool
	isFMA                     bool
	divScaled                 bool // scalar divide: early-exit factor applies
	fpClass                   isa.FPClass

	accID int32 // FMA accumulator register ID, -1 if none

	// addrIDs are registers used only for address generation, as a
	// sorted interned-ID slice (the former per-instruction map).
	addrIDs []int32
	// dataIDs are register reads excluding pure address registers.
	dataIDs []int32
	// readIDs/writeIDs are the full architectural effect sets.
	readIDs  []int32
	writeIDs []int32
}

// Compile lowers block b against model m. Every instruction must resolve
// in the model's tables; the error mirrors what Run reported historically.
func Compile(b *isa.Block, m *uarch.Model) (*Program, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := len(b.Instrs)
	p := &Program{
		block:   b,
		model:   m,
		nStatic: n,
		instrs:  make([]pInstr, n),
	}
	var interner isa.RegInterner
	var addrRegs []isa.RegKey
	effs := make([]isa.Effects, n)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		effs[i] = isa.InstrEffects(in, m.Dialect)
		eff := &effs[i]
		d, err := m.LookupEff(in, eff)
		if err != nil {
			return nil, fmt.Errorf("sim: block %s instr %d (%s): %w", b.Name, i, in.Mnemonic, err)
		}

		pi := &p.instrs[i]
		pi.lat = float64(d.Lat)
		pi.latZero = d.Lat == 0
		pi.loadLat = float64(d.LoadLat)
		pi.totalLat = float64(d.TotalLat)
		pi.isLoad, pi.isStore, pi.isBranch = d.IsLoad, d.IsStore, d.IsBranch
		pi.hasLoadStage = d.LoadLat > 0

		pi.fpClass = isa.ClassifyFP(in.Mnemonic)
		pi.divScaled = isa.ScalarDiv(in)

		pi.accID = -1
		if accKey, isFMA := isa.FMAAccumulator(in, m.Dialect); isFMA {
			pi.isFMA = true
			pi.accID = interner.Intern(accKey)
		}

		// Address readiness is a max over producers, so the order of
		// addrIDs cannot change results; sorting makes it canonical.
		addrRegs = eff.AddrRegs(addrRegs[:0])
		pi.addrIDs = interner.InternAll(nil, addrRegs)
		slices.Sort(pi.addrIDs)
		for _, r := range eff.Reads {
			id := interner.Intern(r)
			pi.readIDs = append(pi.readIDs, id)
			if !containsID(pi.addrIDs, id) {
				pi.dataIDs = append(pi.dataIDs, id)
			}
		}
		pi.writeIDs = interner.InternAll(pi.writeIDs, eff.Writes)

		pi.uopOff = int32(len(p.uops))
		slots := 0
		for _, u := range d.Uops {
			cu := pUop{cycles: u.Cycles, kind: u.Kind}
			// The model's precompiled (shared, read-only) index tables
			// replace a per-µ-op allocation.
			if idx := m.PortIndices(u.Ports); len(idx) > 0 {
				cu.cand = idx
				slots++
			}
			p.uops = append(p.uops, cu)
		}
		pi.uopEnd = int32(len(p.uops))
		pi.nUopsWidth = int32(len(d.Uops))
		if pi.nUopsWidth == 0 {
			pi.nUopsWidth = 1
			slots = 1 // synthetic dispatch slot
		}
		pi.nSlots = int32(slots)
		p.slotsPerIter += slots
		if slots > p.maxUopSlots {
			p.maxUopSlots = slots
		}
	}
	p.nRegs = interner.Len()

	p.loadDeps = make([][]memDep, n)
	isa.StoreLoadDeps(effs, isa.MemCarriedWindow, func(st, ld int, carried bool) {
		p.loadDeps[ld] = append(p.loadDeps[ld], memDep{store: st, load: ld, carried: carried})
	})
	return p, nil
}

// SizeEstimate approximates the program's retained heap bytes for cache
// accounting. It is an estimate by design — fixed per-element costs stand
// in for exact allocator sizes, and the retained block and model are
// counted by their own tiers (the model is shared process-wide anyway).
func (p *Program) SizeEstimate() int {
	size := 256 + len(p.instrs)*168 + len(p.uops)*48
	for i := range p.instrs {
		pi := &p.instrs[i]
		size += 4 * (len(pi.addrIDs) + len(pi.dataIDs) + len(pi.readIDs) + len(pi.writeIDs))
	}
	for _, d := range p.loadDeps {
		size += 24 * len(d)
	}
	for _, n := range p.names {
		size += 16 + len(n)
	}
	return size
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// instrName returns the cached source spelling of static instruction si
// (trace callbacks only; built on first use).
func (p *Program) instrName(si int) string {
	p.namesOnce.Do(func() {
		names := make([]string, p.nStatic)
		for i := range p.block.Instrs {
			names[i] = p.block.Instrs[i].String()
		}
		p.names = names
	})
	return p.names[si]
}

// memDep is a static store→load dependency within/across iterations.
type memDep struct {
	store, load int
	carried     bool
}
