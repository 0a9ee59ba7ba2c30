package kernels

import (
	"fmt"
	"strconv"
)

// aarch64Emitter generates AArch64 loop bodies (NEON, SVE, scalar).
//
// Register conventions:
//
//	x3  loop index (elements)        x4  loop bound / end pointer
//	x0  destination base             x1, x2, x14  source bases
//	x5..x13  stencil row bases (pre-offset where needed)
//	v/z/d 0..8  work registers and accumulators
//	   11: 4.0   12: 1.0   13: 0.5   14: dx   15: s / coefficient
//	   9: iota vector, 10: iota step (vectorized π)
//	p0  governing SVE predicate
//
// Addressing styles: scalar gcc code indexes with [base, x3, lsl #3];
// NEON code uses pointer-bumped bases with immediate offsets; SVE code
// (armclang) uses element-indexed [base, x3, lsl #3] with a whilelo
// predicated loop. armclang emits NEON for the stencil kernels (fixed
// vector length favors immediate-offset addressing) and SVE for the
// streaming kernels.
type aarch64Emitter struct {
	asmWriter
	p    genParams
	mode aMode
	// closed marks a body that emitted its own loop control.
	closed bool
}

type aMode int

const (
	aScalarIndexed aMode = iota // gcc -O1 style
	aScalarPointer              // armclang scalar
	aNEON                       // pointer-bumped NEON
	aSVE                        // whilelo-predicated SVE
)

var (
	aarchZ = regNames("z", ".d")
	aarchV = regNames("v", ".2d")
	aarchD = regNames("d", "")
	aarchQ = regNames("q", "")
)

// vreg names vector/scalar register i in the current mode.
func (e *aarch64Emitter) vreg(i int) string {
	switch e.mode {
	case aSVE:
		return aarchZ[i]
	case aNEON:
		return aarchV[i]
	default:
		return aarchD[i]
	}
}

// ins starts an instruction line; reg, list, imm and mem append its
// operands and end finishes it.
func (e *aarch64Emitter) ins(mn string) *aarch64Emitter {
	e.begin(mn)
	return e
}

// reg appends a register operand (or any operand spelled r).
func (e *aarch64Emitter) reg(r string) *aarch64Emitter {
	e.str(r)
	return e
}

// list appends the single-register list "{ r }".
func (e *aarch64Emitter) list(r string) *aarch64Emitter {
	e.sep()
	e.buf = append(e.buf, "{ "...)
	e.buf = append(e.buf, r...)
	e.buf = append(e.buf, " }"...)
	return e
}

// imm appends the immediate "#n".
func (e *aarch64Emitter) imm(n int) *aarch64Emitter {
	e.num("#", n)
	return e
}

// lanes per register in the current mode.
func (e *aarch64Emitter) lanes() int {
	if e.mode == aNEON || e.mode == aSVE {
		return 2 // 128-bit vectors on Neoverse V2
	}
	return 1
}

// mem appends the address of unroll lane u plus a byte offset.
func (e *aarch64Emitter) mem(base string, u, extra int) *aarch64Emitter {
	e.used.add(base)
	e.sep()
	e.buf = append(e.buf, '[')
	e.buf = append(e.buf, base...)
	switch e.mode {
	case aScalarIndexed, aSVE:
		// Indexed by x3 (elements). Byte offsets must be baked into
		// pre-offset base registers by the caller.
		if extra != 0 {
			panic("aarch64: indexed mode cannot take immediate offsets")
		}
		e.buf = append(e.buf, ", x3, lsl #3"...)
	default:
		if disp := u*e.vecBytes() + extra; disp != 0 {
			e.buf = append(e.buf, ", #"...)
			e.buf = strconv.AppendInt(e.buf, int64(disp), 10)
		}
	}
	e.buf = append(e.buf, ']')
	return e
}

func (e *aarch64Emitter) vecBytes() int {
	return e.lanes() * 8
}

// load emits a load of lane u.
func (e *aarch64Emitter) load(base string, u, extra int, dst int) {
	switch e.mode {
	case aSVE:
		e.ins("ld1d").list(e.vreg(dst)).reg("p0/z").mem(base, u, extra).end()
	case aNEON:
		mn := "ldr"
		if extra < 0 {
			mn = "ldur"
		}
		e.ins(mn).reg(aarchQ[dst]).mem(base, u, extra).end()
	default:
		mn := "ldr"
		if extra < 0 && e.mode == aScalarPointer {
			mn = "ldur"
		}
		e.ins(mn).reg(aarchD[dst]).mem(base, u, extra).end()
	}
}

// store emits a store of register src.
func (e *aarch64Emitter) store(src int, base string, u, extra int) {
	switch e.mode {
	case aSVE:
		e.ins("st1d").list(e.vreg(src)).reg("p0").mem(base, u, extra).end()
	case aNEON:
		mn := "str"
		if extra < 0 {
			mn = "stur"
		}
		e.ins(mn).reg(aarchQ[src]).mem(base, u, extra).end()
	default:
		mn := "str"
		if extra < 0 {
			mn = "stur"
		}
		e.ins(mn).reg(aarchD[src]).mem(base, u, extra).end()
	}
}

// op3 emits "mn dst, a, b".
func (e *aarch64Emitter) op3(mn string, dst, a, b int) {
	e.ins(mn).reg(e.vreg(dst)).reg(e.vreg(a)).reg(e.vreg(b)).end()
}

// close emits the induction update and the loop branch.
func (e *aarch64Emitter) close() {
	if e.closed {
		return
	}
	elems := e.lanes() * e.p.unroll
	switch e.mode {
	case aScalarIndexed:
		e.ins("add").reg("x3").reg("x3").imm(elems).end()
		e.line("\tcmp x3, x4")
		e.line("\tb.ne .L0")
	case aSVE:
		e.line("\tincd x3")
		e.line("\twhilelo p0.d, x3, x4")
		e.line("\tb.first .L0")
	default:
		bases := e.used.sorted()
		if len(bases) == 0 {
			// No memory streams (π): plain counter loop.
			e.ins("add").reg("x3").reg("x3").imm(elems).end()
			e.line("\tcmp x3, x4")
			e.line("\tb.ne .L0")
			return
		}
		for _, b := range bases {
			e.ins("add").reg(b).reg(b).imm(elems * 8).end()
		}
		cmpBase := "x1"
		if !e.used.has("x1") {
			cmpBase = "x0"
		}
		e.ins("cmp").reg(cmpBase).reg("x4").end()
		e.line("\tb.ne .L0")
	}
}

// stencilKind reports whether a kernel is a stencil (armclang emits NEON
// rather than SVE for these).
func stencilKind(k Kind) bool {
	switch k {
	case KindJ2D5, KindJ3D7, KindJ3D11, KindJ3D27, KindGS2D5:
		return true
	}
	return false
}

// emitAArch64 appends the loop body of kernel k to buf.
func emitAArch64(buf []byte, k *Kernel, p genParams) ([]byte, error) {
	e := aarch64Emitter{asmWriter: asmWriter{buf: buf}, p: p}
	switch {
	case p.scalar && p.sve:
		e.mode = aScalarPointer
	case p.scalar:
		e.mode = aScalarIndexed
	case p.sve && !stencilKind(k.Kind):
		e.mode = aSVE
		e.p.unroll = 1 // whilelo loops stay rolled
	default:
		e.mode = aNEON
	}
	if k.Kind == KindGS2D5 {
		// The Gauss-Seidel chain needs immediate offsets off the store
		// base for its memory round trip; use pointer addressing.
		e.mode = aScalarPointer
	}
	if stencilKind(k.Kind) && e.mode == aScalarIndexed {
		// Stencil neighbor offsets along the contiguous dimension need
		// immediate displacements; indexed addressing would require a
		// pre-offset base per (plane, offset) pair. Compilers emit
		// pointer-bumped code here.
		e.mode = aScalarPointer
	}
	e.line(".L0:")
	U := e.p.unroll
	switch k.Kind {
	case KindCopy:
		for u := 0; u < U; u++ {
			e.load("x1", u, 0, u)
		}
		for u := 0; u < U; u++ {
			e.store(u, "x0", u, 0)
		}

	case KindInit:
		for u := 0; u < U; u++ {
			e.store(15, "x0", u, 0)
		}

	case KindUpdate:
		for u := 0; u < U; u++ {
			e.load("x1", u, 0, u)
			e.op3("fmul", u, u, 15)
			e.store(u, "x1", u, 0)
		}

	case KindAdd:
		for u := 0; u < U; u++ {
			e.load("x1", u, 0, u)
			e.load("x2", u, 0, u+U)
			e.op3("fadd", u, u, u+U)
			e.store(u, "x0", u, 0)
		}

	case KindStriad:
		// a = b + s*c
		for u := 0; u < U; u++ {
			e.load("x1", u, 0, u)   // b
			e.load("x2", u, 0, u+U) // c
			if e.p.fma {
				e.fmla(u, u+U, 15)
			} else {
				e.op3("fmul", u+U, u+U, 15)
				e.op3("fadd", u, u, u+U)
			}
			e.store(u, "x0", u, 0)
		}

	case KindSchTriad:
		// a = b + c*d
		for u := 0; u < U; u++ {
			e.load("x1", u, 0, u)
			e.load("x2", u, 0, u+U)
			e.load("x14", u, 0, u+2*U)
			if e.p.fma {
				e.fmla(u, u+U, u+2*U)
			} else {
				e.op3("fmul", u+U, u+U, u+2*U)
				e.op3("fadd", u, u, u+U)
			}
			e.store(u, "x0", u, 0)
		}

	case KindSum:
		for u := 0; u < U; u++ {
			e.load("x1", u, 0, e.p.accs+u)
			acc := u % e.p.accs
			e.op3("fadd", acc, acc, e.p.accs+u)
		}

	case KindPi:
		emitPiAArch64(&e)

	case KindJ2D5:
		emitStencilAArch64(&e, []rowRef{{"x1", -8}, {"x1", 8}, {"x5", 0}, {"x6", 0}}, U)

	case KindJ3D7:
		emitStencilAArch64(&e, []rowRef{
			{"x1", -8}, {"x1", 8}, {"x5", 0}, {"x6", 0}, {"x7", 0}, {"x8", 0},
		}, U)

	case KindJ3D11:
		emitStencilAArch64(&e, []rowRef{
			{"x1", -16}, {"x1", -8}, {"x1", 0}, {"x1", 8}, {"x1", 16},
			{"x5", 0}, {"x6", 0}, {"x7", 0}, {"x8", 0}, {"x9", 0}, {"x10", 0},
		}, U)

	case KindJ3D27:
		var rows [27]rowRef
		for i, b := range [...]string{"x1", "x2", "x5", "x6", "x7", "x8", "x9", "x10", "x11"} {
			for j, off := range [...]int{-8, 0, 8} {
				rows[3*i+j] = rowRef{b, off}
			}
		}
		emitStencilAArch64(&e, rows[:], U)

	case KindGS2D5:
		emitGSAArch64(&e)

	default:
		return e.buf, fmt.Errorf("emitAArch64: unhandled kernel kind %d", k.Kind)
	}
	e.close()
	return e.buf, nil
}

type rowRef struct {
	base  string
	extra int
}

// fmla emits a fused multiply-accumulate acc += a*b in the current mode.
func (e *aarch64Emitter) fmla(acc, a, b int) {
	switch e.mode {
	case aSVE:
		e.ins("fmla").reg(e.vreg(acc)).reg("p0/m").reg(e.vreg(a)).reg(e.vreg(b)).end()
	case aNEON:
		e.op3("fmla", acc, a, b)
	default:
		// fmadd dd, dn, dm, da : dd = dn*dm + da
		e.ins("fmadd").reg(e.vreg(acc)).reg(e.vreg(a)).reg(e.vreg(b)).reg(e.vreg(acc)).end()
	}
}

// emitStencilAArch64 generates a neighbor-sum stencil. In indexed/SVE
// modes immediate offsets are not available, so neighbor offsets along
// the contiguous dimension use pre-offset base registers x12/x13 (±8) and
// x15/x16 (±16), set up outside the loop.
func emitStencilAArch64(e *aarch64Emitter, rows []rowRef, U int) {
	resolve := func(r rowRef) (string, int) {
		if e.mode != aScalarIndexed && e.mode != aSVE {
			return r.base, r.extra
		}
		switch r.extra {
		case 0:
			return r.base, 0
		case -8:
			return "x12", 0
		case 8:
			return "x13", 0
		case -16:
			return "x15", 0
		case 16:
			return "x16", 0
		default:
			return r.base, 0
		}
	}
	for u := 0; u < U; u++ {
		b0, x0 := resolve(rows[0])
		e.load(b0, u, x0, u)
		for _, r := range rows[1:] {
			b, x := resolve(r)
			e.load(b, u, x, u+U)
			e.op3("fadd", u, u, u+U)
		}
		e.op3("fmul", u, u, 15)
		e.store(u, "x0", u, 0)
	}
}

// emitPiAArch64 generates the π-by-integration body.
func emitPiAArch64(e *aarch64Emitter) {
	if e.mode == aScalarIndexed || e.mode == aScalarPointer {
		e.line("\tscvtf d1, x3")
		e.line("\tfadd d1, d1, d13")
		e.line("\tfmul d1, d1, d14")
		if e.p.fma {
			e.line("\tfmadd d1, d1, d1, d12")
		} else {
			e.line("\tfmul d1, d1, d1")
			e.line("\tfadd d1, d1, d12")
		}
		e.line("\tfdiv d1, d11, d1")
		e.line("\tfadd d0, d0, d1")
		if e.mode == aScalarPointer {
			// π touches no arrays; index in x3 regardless.
			e.line("\tadd x3, x3, #1")
			e.line("\tcmp x3, x4")
			e.line("\tb.ne .L0")
			e.closed = true
		}
		return
	}
	U := e.p.unroll
	for u := 0; u < U; u++ {
		t := 4 + u%4
		e.op3("fmul", t, 9, 14) // x = iota*dx
		e.op3("fmul", t, t, t)  // x*x
		e.op3("fadd", t, t, 12) // +1
		if e.mode == aSVE {
			// Reverse divide: t = 4.0 / t.
			e.ins("fdivr").reg(e.vreg(t)).reg("p0/m").reg(e.vreg(t)).reg(e.vreg(11)).end()
		} else {
			e.op3("fdiv", t, 11, t)
		}
		acc := u % e.p.accs
		e.op3("fadd", acc, acc, t)
		e.op3("fadd", 9, 9, 10) // iota += lanes
	}
}

// emitGSAArch64 generates the Gauss-Seidel shapes (see emitGSX86 for the
// three-variant rationale). Always pointer-addressed: the memory round
// trip needs immediate offsets off the store base.
func emitGSAArch64(e *aarch64Emitter) {
	switch {
	case e.p.gsMemRoundTrip:
		e.line("\tldur d1, [x1, #-8]")
		e.line("\tldr d2, [x1, #8]")
		e.line("\tfadd d1, d1, d2")
		e.line("\tldr d2, [x5]")
		e.line("\tfadd d1, d1, d2")
		e.line("\tldr d2, [x6]")
		e.line("\tfadd d1, d1, d2")
		e.line("\tfmul d1, d1, d15")
		e.line("\tstr d1, [x1]")
		e.used.add("x1")
		e.used.add("x5")
		e.used.add("x6")
	case e.p.gsFMA:
		e.line("\tldr d1, [x5]")
		e.line("\tldr d2, [x6]")
		e.line("\tfadd d1, d1, d2")
		e.line("\tldr d2, [x1, #8]")
		e.line("\tfadd d1, d1, d2")
		e.line("\tfmul d1, d1, d15")      // t = 0.25*sum3
		e.line("\tfmadd d1, d0, d15, d1") // d1 = prev*0.25 + t
		e.line("\tstr d1, [x1]")
		e.line("\tfmov d0, d1")
		e.used.add("x1")
		e.used.add("x5")
		e.used.add("x6")
	default:
		e.line("\tldr d1, [x5]")
		e.line("\tldr d2, [x6]")
		e.line("\tfadd d1, d1, d2")
		e.line("\tldr d2, [x1, #8]")
		e.line("\tfadd d1, d1, d2")
		e.line("\tfadd d1, d1, d0")
		e.line("\tfmul d0, d1, d15")
		e.line("\tstr d0, [x1]")
		e.used.add("x1")
		e.used.add("x5")
		e.used.add("x6")
	}
}
