package isa

import (
	"slices"
	"strings"
)

// Effects lists the architectural reads and writes of one instruction.
// Memory dependence is tracked at the level of "reads memory"/"writes
// memory" plus the address registers consumed by each memory operand.
type Effects struct {
	Reads  []RegKey
	Writes []RegKey
	// LoadOps and StoreOps point into the instruction's operands.
	LoadOps  []*MemOp
	StoreOps []*MemOp
}

// ReadsMem reports whether the instruction loads from memory.
func (e *Effects) ReadsMem() bool { return len(e.LoadOps) > 0 }

// WritesMem reports whether the instruction stores to memory.
func (e *Effects) WritesMem() bool { return len(e.StoreOps) > 0 }

// semCat is the coarse semantic category of a mnemonic.
type semCat int

const (
	catALU     semCat = iota // dst = dst OP src (x86) / dst = src1 OP src2 (aarch64)
	catMove                  // dst = src (no read of dst)
	catFMA                   // dst = dst +/- src1*src2 (dst read and written)
	catCompare               // reads all operands, writes flags only
	catBranch                // conditional/unconditional control transfer
	catLoad                  // register <- memory
	catStore                 // memory <- register
	catGather                // vector gather load (mask read/written)
	catZero                  // zero idiom (xor r,r): writes only
	catNop
)

// x86Cats maps mnemonics (with common width suffixes already present) to
// categories. Mnemonics not listed fall back to suffix-based heuristics in
// categorizeX86.
var x86Cats = map[string]semCat{
	"mov": catMove, "movq": catMove, "movl": catMove, "movabs": catMove,
	"lea": catMove, "leaq": catMove,
	"add": catALU, "addq": catALU, "addl": catALU,
	"sub": catALU, "subq": catALU, "subl": catALU,
	"imul": catALU, "imulq": catALU,
	"and": catALU, "andq": catALU, "or": catALU, "orq": catALU,
	"xor": catALU, "xorq": catALU,
	"shl": catALU, "shlq": catALU, "shr": catALU, "shrq": catALU,
	"sal": catALU, "salq": catALU, "sar": catALU, "sarq": catALU,
	"inc": catALU, "incq": catALU, "dec": catALU, "decq": catALU,
	"neg": catALU, "negq": catALU,
	"cmp": catCompare, "cmpq": catCompare, "cmpl": catCompare,
	"test": catCompare, "testq": catCompare,
	"vucomisd": catCompare, "ucomisd": catCompare,
	"nop": catNop,

	// SSE/AVX/AVX-512 moves: load or store depending on operand shape.
	"movupd": catMove, "movapd": catMove, "movsd": catMove,
	"vmovupd": catMove, "vmovapd": catMove, "vmovsd": catMove,
	"vmovq": catMove, "vmovdqu": catMove, "vmovdqa": catMove,
	"vmovntpd": catMove, "movntpd": catMove, "movntdq": catMove,
	"vbroadcastsd": catMove, "vpbroadcastq": catMove,

	// Packed arithmetic. In AT&T AVX these are three-operand
	// (src2, src1, dst): dst is write-only.
	"vaddpd": catMove, "vsubpd": catMove, "vmulpd": catMove, "vdivpd": catMove,
	"vmaxpd": catMove, "vminpd": catMove, "vsqrtpd": catMove,
	"vaddsd": catMove, "vsubsd": catMove, "vmulsd": catMove, "vdivsd": catMove,
	"vsqrtsd": catMove, "vmaxsd": catMove, "vminsd": catMove,
	"vcvtsi2sd": catMove, "vcvtsi2sdq": catMove,
	"vextractf128": catMove, "vextractf64x4": catMove,
	"vpermilpd": catMove, "vunpckhpd": catMove, "vshufpd": catMove,
	"vinsertf128": catMove,

	// Two-operand SSE arithmetic: dst = dst OP src.
	"addpd": catALU, "subpd": catALU, "mulpd": catALU, "divpd": catALU,
	"addsd": catALU, "subsd": catALU, "mulsd": catALU, "divsd": catALU,
	"sqrtsd": catMove, "sqrtpd": catMove,
	"maxpd": catALU, "minpd": catALU, "unpckhpd": catALU,

	// FMA family: destination is read.
	"vfmadd231pd": catFMA, "vfmadd213pd": catFMA, "vfmadd132pd": catFMA,
	"vfmadd231sd": catFMA, "vfmadd213sd": catFMA, "vfmadd132sd": catFMA,
	"vfnmadd231pd": catFMA, "vfmsub231pd": catFMA, "vfnmadd231sd": catFMA,

	"vgatherqpd": catGather, "vgatherdpd": catGather,

	"jmp": catBranch, "jne": catBranch, "je": catBranch, "jb": catBranch,
	"jae": catBranch, "jl": catBranch, "jle": catBranch, "jg": catBranch,
	"jge": catBranch, "ja": catBranch, "jnz": catBranch, "jz": catBranch,
}

var aarch64Cats = map[string]semCat{
	"mov": catMove, "movz": catMove, "movk": catMove, "fmov": catMove,
	"dup": catMove, "adrp": catMove, "adr": catMove,
	"add": catALU, "sub": catALU, "mul": catALU, "lsl": catALU, "lsr": catALU,
	"asr": catALU, "and": catALU, "orr": catALU, "eor": catALU,
	"madd": catFMA, "msub": catFMA,
	"adds": catALU, "subs": catALU,
	"cmp": catCompare, "cmn": catCompare, "fcmp": catCompare, "tst": catCompare,
	"fadd": catALU, "fsub": catALU, "fmul": catALU, "fdiv": catALU,
	"fneg": catMove, "fabs": catMove, "fsqrt": catMove, "fmax": catALU,
	"fmin": catALU, "faddp": catALU, "fmaxp": catALU,
	"fmla": catFMA, "fmls": catFMA, "fmadd": catFMA, "fmsub": catFMA,
	"fnmadd": catFMA, "fnmsub": catFMA,
	"fadda": catFMA, "faddv": catMove,
	"scvtf": catMove, "fcvt": catMove,
	"ldr": catLoad, "ldp": catLoad, "ld1": catLoad, "ld1d": catGather,
	"ld1rd": catLoad, "ldur": catLoad,
	"str": catStore, "stp": catStore, "st1": catStore, "st1d": catStore,
	"stur": catStore, "stnp": catStore,
	"b": catBranch, "b.ne": catBranch, "b.eq": catBranch, "b.lt": catBranch,
	"b.le": catBranch, "b.gt": catBranch, "b.ge": catBranch, "b.cc": catBranch,
	"b.cs": catBranch, "b.mi": catBranch, "b.first": catBranch, "b.any": catBranch,
	"cbz": catBranch, "cbnz": catBranch, "tbz": catBranch, "tbnz": catBranch,
	"ret":   catBranch,
	"ptrue": catMove, "pfalse": catMove,
	"whilelo": catCompare, "whilelt": catCompare,
	"incd": catALU, "incw": catALU, "cntd": catMove, "cntw": catMove,
	"index": catMove,
	"nop":   catNop,
}

func categorizeX86(m string) semCat {
	if c, ok := x86Cats[m]; ok {
		return c
	}
	if strings.HasPrefix(m, "j") {
		return catBranch
	}
	if strings.HasPrefix(m, "vfma") || strings.HasPrefix(m, "vfms") ||
		strings.HasPrefix(m, "vfnma") || strings.HasPrefix(m, "vfnms") {
		return catFMA
	}
	if strings.HasPrefix(m, "vgather") {
		return catGather
	}
	if strings.HasPrefix(m, "v") {
		return catMove // three-operand VEX default: dst write-only
	}
	return catALU
}

func categorizeAArch64(m string) semCat {
	if c, ok := aarch64Cats[m]; ok {
		return c
	}
	if strings.HasPrefix(m, "b.") {
		return catBranch
	}
	if strings.HasPrefix(m, "ld") {
		return catLoad
	}
	if strings.HasPrefix(m, "st") {
		return catStore
	}
	return catALU
}

// Instruction facts. The analytical model (depgraph, uarch, mca) and the
// simulator read the facts below instead of keeping their own copies, so
// they differ only in their timing models.

// FPClass is the coarse class of a floating-point operation, as the
// simulator's forwarding network distinguishes them.
type FPClass int

// FP operation classes.
const (
	FPNone FPClass = iota
	FPAdd
	FPMul
	FPFMA
	FPDiv
)

// accOperand locates the accumulator operand of a fused multiply-add.
type accOperand int8

const (
	accNone   accOperand = iota // no accumulator edge
	accDest                     // the destination: last in AT&T, operand 0 in AArch64
	accAddend                   // AArch64 fmadd rd, rn, rm, ra: ra, operand 3
)

// fmaFamily is the fused multiply-add table: whether mn is FP class FMA
// and where its accumulator sits. categorize* files every row below, and
// madd/msub too, under catFMA for their register effects.
func fmaFamily(mn string) (fp bool, acc accOperand) {
	switch {
	case strings.HasPrefix(mn, "vfma"), strings.HasPrefix(mn, "vfnma"),
		strings.HasPrefix(mn, "vfms"), mn == "fmla", mn == "fmls":
		return true, accDest
	case mn == "fmadd", mn == "fmsub", mn == "fnmadd", mn == "fnmsub":
		return true, accAddend
	case mn == "fadda":
		// SVE strictly-ordered reduction: FMA class, but its running
		// sum is no accumulator edge.
		return true, accNone
	case strings.HasPrefix(mn, "vfnms"):
		// Negated multiply-subtract: neither FP class nor accumulator.
		// Making it an FMA would change LCD.ViaAccumulator in stored
		// results, which takes a result-schema bump.
		return false, accNone
	}
	return false, accNone // madd/msub: integer multiply-add
}

// ClassifyFP returns the FP class of a mnemonic.
//
// The clauses are ordered: FMA before add/mul (vfmadd contains "add"),
// div before add (vdivpd would otherwise fall through), and the x86
// scalar/packed "add*pd|sd" clause binds tighter than its "HasPrefix(add)"
// spelling suggests; TestMnemonicFacts pins the precedence.
func ClassifyFP(mn string) FPClass {
	if fp, _ := fmaFamily(mn); fp {
		return FPFMA
	}
	switch {
	case strings.Contains(mn, "div"):
		return FPDiv
	case strings.HasPrefix(mn, "vadd") || strings.HasPrefix(mn, "vsub") ||
		strings.HasPrefix(mn, "add") && strings.HasSuffix(mn, "d") && (strings.Contains(mn, "pd") || strings.Contains(mn, "sd")) ||
		mn == "fadd" || mn == "fsub" || mn == "faddp":
		return FPAdd
	case strings.HasPrefix(mn, "vmul") || mn == "fmul" ||
		(strings.HasPrefix(mn, "mul") && (strings.Contains(mn, "pd") || strings.Contains(mn, "sd"))):
		return FPMul
	case strings.Contains(mn, "sqrt"):
		return FPDiv
	}
	return FPNone
}

// FMAAccumulator returns the register a fused multiply-add reads as its
// accumulator, if in is one under dialect d.
func FMAAccumulator(in *Instruction, d Dialect) (RegKey, bool) {
	_, acc := fmaFamily(in.Mnemonic)
	ops := in.Operands
	i := 0 // AArch64 fmla vd, vn, vm accumulates into vd
	switch {
	case acc == accNone || len(ops) == 0:
		return RegKey{}, false
	case d == DialectX86:
		i = len(ops) - 1 // AT&T: the 231 form accumulates into its destination
	case acc == accAddend:
		i = 3
	}
	if i >= len(ops) || ops[i].Kind != OpReg {
		return RegKey{}, false
	}
	return ops[i].Reg.Key(), true
}

// VecWidth returns the width in bits of the widest vector register the
// instruction names, or 0 when it names none.
func (in *Instruction) VecWidth() int {
	w := 0
	for _, op := range in.Operands {
		if op.Kind == OpReg && op.Reg.Class == ClassVec && op.Reg.Width > w {
			w = op.Reg.Width
		}
	}
	return w
}

// ScalarDiv reports whether in is a scalar divide: a "div" mnemonic on no
// register wider than 64 bits, or a scalar-double ("sd") form.
func ScalarDiv(in *Instruction) bool {
	mn := in.Mnemonic
	return strings.Contains(mn, "div") && (in.VecWidth() <= 64 || strings.HasSuffix(mn, "sd"))
}

// AddrRegs appends to dst the registers e's memory operands read to form
// addresses, loads before stores and each base before its index, skipping
// registers already in dst. Zero registers are left out, and so are vector
// indices: a gather's index is data.
func (e *Effects) AddrRegs(dst []RegKey) []RegKey {
	add := func(k RegKey) {
		if !slices.Contains(dst, k) {
			dst = append(dst, k)
		}
	}
	for _, ops := range [2][]*MemOp{e.LoadOps, e.StoreOps} {
		for _, mo := range ops {
			if mo.Base.Valid() && !IsZeroReg(mo.Base) {
				add(mo.Base.Key())
			}
			if mo.Index.Valid() && !IsZeroReg(mo.Index) && mo.Index.Class != ClassVec {
				add(mo.Index.Key())
			}
		}
	}
	return dst
}

// MemCarriedWindow is the default byte window of StoreLoadDeps: one
// cache line.
const MemCarriedWindow = 64

// StoreForwardDelay is the cycles from a store's data µ-op issuing to a
// load it forwards to issuing. The load's result arrives a load latency
// later, so a store→load pair costs StoreForwardDelay + load latency;
// the analyzer and the simulator both charge that total.
const StoreForwardDelay = 2

// StoreLoadDeps calls fn for every store→load pair of a loop body that
// may alias, stores outer and loads inner, each in program order (effs
// holds one entry per instruction). A store and a load alias only on the
// same address stream: the same base register, and the same index
// register or none on both. With Δ = store displacement − load
// displacement:
//   - Δ = 0 with the store first in program order is the same location
//     in one iteration (carried false);
//   - 0 < Δ ≤ window is a location a later iteration's load re-reads,
//     for a loop whose addresses advance (carried true).
//
// A window of 0 turns the relation off.
func StoreLoadDeps(effs []Effects, window int64, fn func(store, load int, carried bool)) {
	if window == 0 {
		return
	}
	for si := range effs {
		for _, st := range effs[si].StoreOps {
			for li := range effs {
				for _, ld := range effs[li].LoadOps {
					if !sameStream(st, ld) {
						continue
					}
					switch delta := st.Disp - ld.Disp; {
					case delta == 0 && si < li:
						fn(si, li, false)
					case delta > 0 && delta <= window:
						fn(si, li, true)
					}
				}
			}
		}
	}
}

// sameStream reports whether a and b share a base register and either
// share an index register or have none.
func sameStream(a, b *MemOp) bool {
	if !a.Base.Valid() || !b.Base.Valid() || a.Base.Key() != b.Base.Key() {
		return false
	}
	if a.Index.Valid() != b.Index.Valid() {
		return false
	}
	return !a.Index.Valid() || a.Index.Key() == b.Index.Key()
}

// flagWritersX86 lists x86 mnemonic prefixes that set RFLAGS.
func x86WritesFlags(m string) bool {
	switch strings.TrimSuffix(strings.TrimSuffix(m, "q"), "l") {
	case "add", "sub", "inc", "dec", "neg", "and", "or", "xor", "cmp",
		"test", "imul", "shl", "shr", "sal", "sar":
		return true
	}
	return m == "vucomisd" || m == "ucomisd"
}

// InstrEffects computes the architectural reads and writes of an
// instruction under the block's dialect. The result is deterministic and
// does not alias the instruction's operand slice (except for MemOp
// pointers, which identify the operands).
func InstrEffects(in *Instruction, d Dialect) Effects {
	if d == DialectAArch64 {
		return effectsAArch64(in, Effects{})
	}
	return effectsX86(in, Effects{})
}

// EffectsArena backs InstrEffectsArena results with reusable flat
// buffers, so repeated effect computation does O(1) heap work after
// warmup. The zero value is ready; an arena must not be shared between
// goroutines. Effects returned against an arena stay valid until its
// next Reset.
type EffectsArena struct {
	tmp           Effects
	reads, writes []RegKey
	loads, stores []*MemOp
}

// Reset recycles all effects handed out since the last Reset, keeping
// the allocated capacity.
func (a *EffectsArena) Reset() {
	a.reads, a.writes = a.reads[:0], a.writes[:0]
	a.loads, a.stores = a.loads[:0], a.stores[:0]
}

// InstrEffectsArena is InstrEffects with the result slices carved out of
// a's buffers. A nil arena falls back to fresh allocations.
func InstrEffectsArena(in *Instruction, d Dialect, a *EffectsArena) Effects {
	if a == nil {
		return InstrEffects(in, d)
	}
	seed := Effects{
		Reads:    a.tmp.Reads[:0],
		Writes:   a.tmp.Writes[:0],
		LoadOps:  a.tmp.LoadOps[:0],
		StoreOps: a.tmp.StoreOps[:0],
	}
	var e Effects
	if d == DialectAArch64 {
		e = effectsAArch64(in, seed)
	} else {
		e = effectsX86(in, seed)
	}
	a.tmp = e
	var out Effects
	if len(e.Reads) > 0 {
		n := len(a.reads)
		a.reads = append(a.reads, e.Reads...)
		out.Reads = a.reads[n:len(a.reads):len(a.reads)]
	}
	if len(e.Writes) > 0 {
		n := len(a.writes)
		a.writes = append(a.writes, e.Writes...)
		out.Writes = a.writes[n:len(a.writes):len(a.writes)]
	}
	if len(e.LoadOps) > 0 {
		n := len(a.loads)
		a.loads = append(a.loads, e.LoadOps...)
		out.LoadOps = a.loads[n:len(a.loads):len(a.loads)]
	}
	if len(e.StoreOps) > 0 {
		n := len(a.stores)
		a.stores = append(a.stores, e.StoreOps...)
		out.StoreOps = a.stores[n:len(a.stores):len(a.stores)]
	}
	return out
}

func addrReads(e *Effects, m *MemOp) {
	if m.Base.Valid() && !IsZeroReg(m.Base) {
		e.Reads = append(e.Reads, m.Base.Key())
	}
	if m.Index.Valid() && !IsZeroReg(m.Index) {
		e.Reads = append(e.Reads, m.Index.Key())
	}
}

// effectsX86 builds the effect sets by appending to e's (possibly
// capacity-carrying, length-zero) slices.
func effectsX86(in *Instruction, e Effects) Effects {
	cat := categorizeX86(in.Mnemonic)
	ops := in.Operands
	n := len(ops)

	switch cat {
	case catNop:
		return e
	case catBranch:
		if in.Mnemonic != "jmp" {
			e.Reads = append(e.Reads, RegKey{Class: ClassFlags, ID: 0})
		}
		return e
	case catCompare:
		for i := range ops {
			collectRead(&e, &ops[i])
		}
		e.Writes = append(e.Writes, RegKey{Class: ClassFlags, ID: 0})
		return e
	case catGather:
		// vgatherqpd mem, mask, dst (AVX2) or mem, dst{k} (AVX-512):
		// memory read through vector index; mask read and written.
		for i := 0; i < n-1; i++ {
			collectRead(&e, &ops[i])
		}
		if n >= 2 && ops[n-2].Kind == OpReg {
			e.Writes = append(e.Writes, ops[n-2].Reg.Key()) // mask cleared
		}
		if n >= 1 && ops[n-1].Kind == OpReg {
			e.Writes = append(e.Writes, ops[n-1].Reg.Key())
		}
		for i := range ops {
			if ops[i].Kind == OpMem {
				e.LoadOps = append(e.LoadOps, ops[i].Mem)
			}
		}
		return e
	}

	if n == 0 {
		return e
	}

	// AT&T order: sources first, destination last.
	dst := &ops[n-1]
	zeroIdiom := false
	if (strings.HasPrefix(in.Mnemonic, "xor") || strings.HasPrefix(in.Mnemonic, "vxorpd") ||
		strings.HasPrefix(in.Mnemonic, "vpxor")) && n >= 2 {
		// xor r,r / vxorpd x,x,x zeroes the destination without reading.
		same := true
		for i := 0; i < n-1; i++ {
			if ops[i].Kind != OpReg || ops[0].Kind != OpReg || ops[i].Reg.Key() != ops[0].Reg.Key() {
				same = false
				break
			}
		}
		if same && dst.Kind == OpReg && ops[0].Kind == OpReg {
			zeroIdiom = true
		}
	}

	if !zeroIdiom {
		for i := 0; i < n-1; i++ {
			collectRead(&e, &ops[i])
		}
	}

	switch dst.Kind {
	case OpReg:
		if cat == catALU && n >= 2 && !zeroIdiom {
			e.Reads = append(e.Reads, dst.Reg.Key())
		}
		if cat == catFMA {
			e.Reads = append(e.Reads, dst.Reg.Key())
		}
		if (cat == catALU) && n == 1 { // inc/dec/neg style
			e.Reads = append(e.Reads, dst.Reg.Key())
		}
		if !IsZeroReg(dst.Reg) {
			e.Writes = append(e.Writes, dst.Reg.Key())
		}
	case OpMem:
		addrReads(&e, dst.Mem)
		if cat == catALU { // read-modify-write to memory
			e.LoadOps = append(e.LoadOps, dst.Mem)
		}
		e.StoreOps = append(e.StoreOps, dst.Mem)
	}

	if x86WritesFlags(in.Mnemonic) {
		e.Writes = append(e.Writes, RegKey{Class: ClassFlags, ID: 0})
	}
	return e
}

// effectsAArch64 builds the effect sets by appending to e's (possibly
// capacity-carrying, length-zero) slices.
func effectsAArch64(in *Instruction, e Effects) Effects {
	cat := categorizeAArch64(in.Mnemonic)
	ops := in.Operands
	n := len(ops)

	switch cat {
	case catNop:
		return e
	case catBranch:
		switch {
		case strings.HasPrefix(in.Mnemonic, "b."):
			e.Reads = append(e.Reads, RegKey{Class: ClassFlags, ID: 0})
		case in.Mnemonic == "cbz" || in.Mnemonic == "cbnz" ||
			in.Mnemonic == "tbz" || in.Mnemonic == "tbnz":
			if n > 0 && ops[0].Kind == OpReg {
				collectRead(&e, &ops[0])
			}
		}
		return e
	case catCompare:
		for i := range ops {
			collectRead(&e, &ops[i])
		}
		if strings.HasPrefix(in.Mnemonic, "while") {
			// whilelo pd, xn, xm writes a predicate, not flags... it
			// writes both (predicate destination + NZCV).
			if n > 0 && ops[0].Kind == OpReg {
				e.Writes = append(e.Writes, ops[0].Reg.Key())
				// first operand is destination, remove from reads
				e.Reads = e.Reads[1:]
			}
		}
		e.Writes = append(e.Writes, RegKey{Class: ClassFlags, ID: 0})
		return e
	case catLoad:
		// ldr dst, [mem] / ldp d1, d2, [mem]
		for i := range ops {
			switch ops[i].Kind {
			case OpReg:
				if !IsZeroReg(ops[i].Reg) {
					e.Writes = append(e.Writes, ops[i].Reg.Key())
				}
			case OpMem:
				addrReads(&e, ops[i].Mem)
				e.LoadOps = append(e.LoadOps, ops[i].Mem)
				if ops[i].Mem.PreIndex || ops[i].Mem.PostIndex {
					e.Writes = append(e.Writes, ops[i].Mem.Base.Key())
				}
			}
		}
		return e
	case catGather:
		// SVE ld1d { zt }, pg/z, [base, zindex]: zt written, pg read,
		// base+index read.
		for i := range ops {
			switch ops[i].Kind {
			case OpReg:
				if i == 0 {
					e.Writes = append(e.Writes, ops[i].Reg.Key())
				} else {
					collectRead(&e, &ops[i])
				}
			case OpMem:
				addrReads(&e, ops[i].Mem)
				if ops[i].Mem.Index.Valid() {
					e.Reads = append(e.Reads, ops[i].Mem.Index.Key())
				}
				e.LoadOps = append(e.LoadOps, ops[i].Mem)
			}
		}
		return e
	case catStore:
		for i := range ops {
			switch ops[i].Kind {
			case OpReg:
				collectRead(&e, &ops[i])
			case OpMem:
				addrReads(&e, ops[i].Mem)
				e.StoreOps = append(e.StoreOps, ops[i].Mem)
				if ops[i].Mem.PreIndex || ops[i].Mem.PostIndex {
					e.Writes = append(e.Writes, ops[i].Mem.Base.Key())
				}
			}
		}
		return e
	}

	if n == 0 {
		return e
	}

	// Destination-first order.
	dst := &ops[0]
	for i := 1; i < n; i++ {
		collectRead(&e, &ops[i])
	}
	// Only destructive accumulate forms read their destination; the
	// four-operand fmadd/madd family carries its addend in operand 3.
	destructive := in.Mnemonic == "fmla" || in.Mnemonic == "fmls" || in.Mnemonic == "fadda"
	switch dst.Kind {
	case OpReg:
		if cat == catFMA && destructive {
			e.Reads = append(e.Reads, dst.Reg.Key())
		}
		if !IsZeroReg(dst.Reg) {
			e.Writes = append(e.Writes, dst.Reg.Key())
		}
	case OpMem:
		addrReads(&e, dst.Mem)
		e.StoreOps = append(e.StoreOps, dst.Mem)
	}
	if in.Mnemonic == "adds" || in.Mnemonic == "subs" {
		e.Writes = append(e.Writes, RegKey{Class: ClassFlags, ID: 0})
	}
	return e
}

func collectRead(e *Effects, op *Operand) {
	switch op.Kind {
	case OpReg:
		if !IsZeroReg(op.Reg) {
			e.Reads = append(e.Reads, op.Reg.Key())
		}
	case OpMem:
		addrReads(e, op.Mem)
		e.LoadOps = append(e.LoadOps, op.Mem)
	}
}
