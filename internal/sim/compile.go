package sim

import (
	"fmt"
	"sort"
	"strings"
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
	// preserving FindMemDeps order within each group.
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
	fpClass                   FPClass

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
	effs := make([]InstrEffectsView, n)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		eff := isa.InstrEffects(in, m.Dialect)
		d, err := m.LookupEff(in, &eff)
		if err != nil {
			return nil, fmt.Errorf("sim: block %s instr %d (%s): %w", b.Name, i, in.Mnemonic, err)
		}
		effs[i] = InstrEffectsView{LoadOps: eff.LoadOps, StoreOps: eff.StoreOps}

		pi := &p.instrs[i]
		pi.lat = float64(d.Lat)
		pi.latZero = d.Lat == 0
		pi.loadLat = float64(d.LoadLat)
		pi.totalLat = float64(d.TotalLat)
		pi.isLoad, pi.isStore, pi.isBranch = d.IsLoad, d.IsStore, d.IsBranch
		pi.hasLoadStage = d.LoadLat > 0

		mn := in.Mnemonic
		pi.fpClass = ClassifyFP(mn)
		isVecOp := vecWidthOfInstr(in) > 64 && !strings.HasSuffix(mn, "sd")
		pi.divScaled = strings.Contains(mn, "div") && !isVecOp

		pi.accID = -1
		if accKey, isFMA := fmaAccumulator(in, m.Dialect); isFMA {
			pi.isFMA = true
			pi.accID = interner.Intern(accKey)
		}

		pi.addrIDs = compileAddrIDs(&interner, &eff)
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

	deps := FindMemDeps(effs)
	p.loadDeps = make([][]memDep, n)
	for _, md := range deps {
		p.loadDeps[md.load] = append(p.loadDeps[md.load], md)
	}
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

// compileAddrIDs interns the pure address-generation registers of one
// instruction and returns them as a sorted dense-ID slice — the
// replacement for the per-instruction map[isa.RegKey]bool the engine used
// to iterate (address readiness is a max over producers, so order cannot
// change results; sorting just makes the representation canonical).
func compileAddrIDs(ri *isa.RegInterner, eff *isa.Effects) []int32 {
	var ids []int32
	add := func(mo *isa.MemOp) {
		if mo.Base.Valid() && !isa.IsZeroReg(mo.Base) {
			ids = appendUniqueID(ids, ri.Intern(mo.Base.Key()))
		}
		// Vector indices (gathers) carry data dependencies, not plain
		// address dependencies; keep them in the data set.
		if mo.Index.Valid() && !isa.IsZeroReg(mo.Index) && mo.Index.Class != isa.ClassVec {
			ids = appendUniqueID(ids, ri.Intern(mo.Index.Key()))
		}
	}
	for _, mo := range eff.LoadOps {
		add(mo)
	}
	for _, mo := range eff.StoreOps {
		add(mo)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func appendUniqueID(ids []int32, id int32) []int32 {
	if containsID(ids, id) {
		return ids
	}
	return append(ids, id)
}

func vecWidthOfInstr(in *isa.Instruction) int {
	w := 0
	for _, op := range in.Operands {
		if op.Kind == isa.OpReg && op.Reg.Class == isa.ClassVec && op.Reg.Width > w {
			w = op.Reg.Width
		}
	}
	return w
}

// fmaAccumulator mirrors depgraph's accumulator detection (kept local to
// avoid a dependency knot).
func fmaAccumulator(in *isa.Instruction, d isa.Dialect) (isa.RegKey, bool) {
	mn := in.Mnemonic
	isFMA := strings.HasPrefix(mn, "vfma") || strings.HasPrefix(mn, "vfnma") ||
		strings.HasPrefix(mn, "vfms") || mn == "fmla" || mn == "fmls" ||
		mn == "fmadd" || mn == "fmsub" || mn == "fnmadd" || mn == "fnmsub"
	if !isFMA || len(in.Operands) == 0 {
		return isa.RegKey{}, false
	}
	if d == isa.DialectX86 {
		op := in.Operands[len(in.Operands)-1]
		if op.Kind == isa.OpReg {
			return op.Reg.Key(), true
		}
		return isa.RegKey{}, false
	}
	if mn == "fmadd" || mn == "fmsub" || mn == "fnmadd" || mn == "fnmsub" {
		if len(in.Operands) >= 4 && in.Operands[3].Kind == isa.OpReg {
			return in.Operands[3].Reg.Key(), true
		}
		return isa.RegKey{}, false
	}
	if in.Operands[0].Kind == isa.OpReg {
		return in.Operands[0].Reg.Key(), true
	}
	return isa.RegKey{}, false
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

// InstrEffectsView is the per-instruction effect summary used for memory
// dependency detection.
type InstrEffectsView struct {
	LoadOps  []*isa.MemOp
	StoreOps []*isa.MemOp
}

// FindMemDeps locates store→load RAW pairs over the same address stream.
// Direction matters for a loop whose index advances monotonically: with
// store displacement S and load displacement L off the same base/index
// registers, the load re-reads a previously stored location only if
// S - L > 0 (the store runs ahead of the load in address space). Equal
// displacements alias within the same iteration when the store precedes
// the load in program order.
func FindMemDeps(effs []InstrEffectsView) []memDep {
	var deps []memDep
	const window = 64
	for si := range effs {
		for _, st := range effs[si].StoreOps {
			for li := range effs {
				for _, ld := range effs[li].LoadOps {
					if !sameAddrStream(st, ld) {
						continue
					}
					delta := st.Disp - ld.Disp
					switch {
					case delta == 0 && si < li:
						deps = append(deps, memDep{store: si, load: li, carried: false})
					case delta > 0 && delta <= window:
						deps = append(deps, memDep{store: si, load: li, carried: true})
					}
				}
			}
		}
	}
	return deps
}

func sameAddrStream(a, b *isa.MemOp) bool {
	if !a.Base.Valid() || !b.Base.Valid() || a.Base.Key() != b.Base.Key() {
		return false
	}
	if a.Index.Valid() != b.Index.Valid() {
		return false
	}
	if a.Index.Valid() && a.Index.Key() != b.Index.Key() {
		return false
	}
	return true
}
