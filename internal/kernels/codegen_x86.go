package kernels

import (
	"fmt"
	"strconv"
)

// x86Emitter generates AT&T-syntax loop bodies.
//
// Register conventions (fixed across all kernels):
//
//	%rax  loop index (elements)      %rbx  loop bound / end pointer
//	%rdi  destination base           %rsi, %rdx, %rcx  source bases
//	%r8..%r14  stencil row bases
//	%xmm/ymm/zmm0..9   work registers and accumulators
//	   11: 4.0   12: 1.0   13: 0.5   14: dx   15: s / stencil coefficient
//	   9: iota vector, 10: iota step (vectorized π)
//
// Constants are loaded outside the measured loop body, as compilers do.
type x86Emitter struct {
	asmWriter
	p     genParams
	bytes int // bytes per vector register access
	regs  *[32]string
}

var (
	x86XMM = regNames("%xmm", "")
	x86YMM = regNames("%ymm", "")
	x86ZMM = regNames("%zmm", "")
)

func newX86Emitter(buf []byte, p genParams) x86Emitter {
	e := x86Emitter{asmWriter: asmWriter{buf: buf}, p: p, bytes: 8, regs: x86XMM}
	if !p.scalar {
		e.bytes = p.vecBits / 8
		switch p.vecBits {
		case 256:
			e.regs = x86YMM
		case 512:
			e.regs = x86ZMM
		}
	}
	return e
}

// vr names work register i at the current width.
func (e *x86Emitter) vr(i int) string { return e.regs[i] }

// ins starts an instruction line; reg, imm and mem append its operands
// and end finishes it.
func (e *x86Emitter) ins(mn string) *x86Emitter {
	e.begin(mn)
	return e
}

// reg appends a register operand spelled with its "%" sigil.
func (e *x86Emitter) reg(r string) *x86Emitter {
	e.str(r)
	return e
}

// base appends the register operand "%"+name.
func (e *x86Emitter) base(name string) *x86Emitter {
	e.sep()
	e.buf = append(e.buf, '%')
	e.buf = append(e.buf, name...)
	return e
}

// imm appends the immediate "$n".
func (e *x86Emitter) imm(n int) *x86Emitter {
	e.num("$", n)
	return e
}

// op returns the packed or scalar form of an arithmetic mnemonic.
func (e *x86Emitter) op(base string) string {
	if e.p.scalar {
		return "v" + base + "sd"
	}
	return "v" + base + "pd"
}

func (e *x86Emitter) movOp() string {
	if e.p.scalar {
		return "vmovsd"
	}
	return "vmovupd"
}

// mem appends the address of unroll lane u plus an extra byte offset:
// disp(%base,%rax,8) when indexed, disp(%base) otherwise, with a zero
// displacement left out.
func (e *x86Emitter) mem(base string, u int, extra int) *x86Emitter {
	e.used.add(base)
	e.sep()
	if disp := u*e.bytes + extra; disp != 0 {
		e.buf = strconv.AppendInt(e.buf, int64(disp), 10)
	}
	e.buf = append(e.buf, "(%"...)
	e.buf = append(e.buf, base...)
	if e.p.indexed {
		e.buf = append(e.buf, ",%rax,8"...)
	}
	e.buf = append(e.buf, ')')
	return e
}

// load emits a plain load into a register.
func (e *x86Emitter) load(base string, u, extra int, dst string) {
	e.ins(e.movOp()).mem(base, u, extra).reg(dst).end()
}

// store emits a store.
func (e *x86Emitter) store(src, base string, u, extra int) {
	e.ins(e.movOp()).reg(src).mem(base, u, extra).end()
}

// op3 emits "mn a, b, c".
func (e *x86Emitter) op3(mn, a, b, c string) {
	e.ins(mn).reg(a).reg(b).reg(c).end()
}

// arith2 emits "op src2, src1, dst" with src2 a memory ref when folding is
// enabled, otherwise via a scratch load.
func (e *x86Emitter) arith2Mem(op, base string, u, extra int, src1, dst, scratch string) {
	if e.p.foldMem {
		e.ins(op).mem(base, u, extra).reg(src1).reg(dst).end()
		return
	}
	e.load(base, u, extra, scratch)
	e.op3(op, scratch, src1, dst)
}

// close emits the induction update and backward branch.
func (e *x86Emitter) close(k *Kernel) {
	lanes := 1
	if !e.p.scalar {
		lanes = e.p.vecBits / 64
	}
	elems := lanes * e.p.unroll
	if e.p.indexed {
		if elems == 1 {
			e.line("\tincq %rax")
		} else {
			e.ins("addq").imm(elems).reg("%rax").end()
		}
		e.line("\tcmpq %rbx, %rax")
	} else {
		bases := e.used.sorted()
		if len(bases) == 0 {
			// No memory streams (π): plain counter loop.
			e.ins("addq").imm(elems).reg("%rax").end()
			e.line("\tcmpq %rbx, %rax")
			e.line("\tjne .L0")
			return
		}
		for _, b := range bases {
			e.ins("addq").imm(elems * 8).base(b).end()
		}
		cmpBase := "rsi"
		if !e.used.has("rsi") {
			cmpBase = "rdi"
		}
		e.ins("cmpq").reg("%rbx").base(cmpBase).end()
	}
	e.line("\tjne .L0")
}

func (e *x86Emitter) header() { e.line(".L0:") }

// emitX86 appends the loop body of kernel k to buf.
func emitX86(buf []byte, k *Kernel, p genParams) ([]byte, error) {
	e := newX86Emitter(buf, p)
	e.header()
	U := p.unroll
	switch k.Kind {
	case KindCopy:
		for u := 0; u < U; u++ {
			e.load("rsi", u, 0, e.vr(u))
		}
		for u := 0; u < U; u++ {
			e.store(e.vr(u), "rdi", u, 0)
		}

	case KindInit:
		// Source register only; no loads. The stored value lives in
		// reg 15 (set up outside the loop).
		for u := 0; u < U; u++ {
			e.store(e.vr(15), "rdi", u, 0)
		}

	case KindUpdate:
		for u := 0; u < U; u++ {
			e.arith2Mem(e.op("mul"), "rsi", u, 0, e.vr(15), e.vr(u), e.vr(u+U))
		}
		for u := 0; u < U; u++ {
			e.store(e.vr(u), "rsi", u, 0)
		}

	case KindAdd:
		for u := 0; u < U; u++ {
			e.load("rsi", u, 0, e.vr(u))
			e.arith2Mem(e.op("add"), "rdx", u, 0, e.vr(u), e.vr(u), e.vr(u+U))
			e.store(e.vr(u), "rdi", u, 0)
		}

	case KindStriad:
		// a = b + s*c
		for u := 0; u < U; u++ {
			e.load("rsi", u, 0, e.vr(u)) // b
			if p.fma {
				if p.foldMem {
					e.ins(e.fmaOp("vfmadd231")).mem("rdx", u, 0).reg(e.vr(15)).reg(e.vr(u)).end()
				} else {
					e.load("rdx", u, 0, e.vr(u+U))
					e.op3(e.fmaOp("vfmadd231"), e.vr(u+U), e.vr(15), e.vr(u))
				}
			} else {
				e.arith2Mem(e.op("mul"), "rdx", u, 0, e.vr(15), e.vr(u+U), e.vr(u+2*U))
				e.op3(e.op("add"), e.vr(u+U), e.vr(u), e.vr(u))
			}
			e.store(e.vr(u), "rdi", u, 0)
		}

	case KindSchTriad:
		// a = b + c*d
		for u := 0; u < U; u++ {
			e.load("rsi", u, 0, e.vr(u))   // b
			e.load("rdx", u, 0, e.vr(u+U)) // c
			if p.fma {
				if p.foldMem {
					e.ins(e.fmaOp("vfmadd231")).mem("rcx", u, 0).reg(e.vr(u + U)).reg(e.vr(u)).end()
				} else {
					e.load("rcx", u, 0, e.vr(u+2*U))
					e.op3(e.fmaOp("vfmadd231"), e.vr(u+2*U), e.vr(u+U), e.vr(u))
				}
			} else {
				e.arith2Mem(e.op("mul"), "rcx", u, 0, e.vr(u+U), e.vr(u+U), e.vr(u+2*U))
				e.op3(e.op("add"), e.vr(u+U), e.vr(u), e.vr(u))
			}
			e.store(e.vr(u), "rdi", u, 0)
		}

	case KindSum:
		// s += a[i]; accumulators rotate over vr(0..accs-1).
		for u := 0; u < U; u++ {
			acc := e.vr(u % p.accs)
			e.arith2Mem(e.op("add"), "rsi", u, 0, acc, acc, e.vr(p.accs+u))
		}

	case KindPi:
		emitPiX86(&e, k)

	case KindJ2D5:
		for u := 0; u < U; u++ {
			e.load("rsi", u, -8, e.vr(u))
			e.arith2Mem(e.op("add"), "rsi", u, 8, e.vr(u), e.vr(u), e.vr(u+U))
			e.arith2Mem(e.op("add"), "r8", u, 0, e.vr(u), e.vr(u), e.vr(u+U))
			e.arith2Mem(e.op("add"), "r9", u, 0, e.vr(u), e.vr(u), e.vr(u+U))
			e.op3(e.op("mul"), e.vr(15), e.vr(u), e.vr(u))
			e.store(e.vr(u), "rdi", u, 0)
		}

	case KindJ3D7:
		emitStencilX86(&e, []rowRef{
			{"rsi", -8}, {"rsi", 8}, {"r8", 0}, {"r9", 0}, {"r10", 0}, {"r11", 0},
		}, U)

	case KindJ3D11:
		emitStencilX86(&e, []rowRef{
			{"rsi", -16}, {"rsi", -8}, {"rsi", 0}, {"rsi", 8}, {"rsi", 16},
			{"r8", 0}, {"r9", 0}, {"r12", 0}, {"r13", 0}, {"r10", 0}, {"r11", 0},
		}, U)

	case KindJ3D27:
		var rows [27]rowRef
		for i, b := range [...]string{"rsi", "rdx", "rcx", "r8", "r9", "r10", "r11", "r12", "r13"} {
			for j, off := range [...]int{-8, 0, 8} {
				rows[3*i+j] = rowRef{b, off}
			}
		}
		emitStencilX86(&e, rows[:], U)

	case KindGS2D5:
		emitGSX86(&e)

	default:
		return buf, fmt.Errorf("emitX86: unhandled kernel kind %d", k.Kind)
	}
	e.close(k)
	return e.buf, nil
}

// fmaOp renders an FMA mnemonic at the current width.
func (e *x86Emitter) fmaOp(base string) string {
	if e.p.scalar {
		return base + "sd"
	}
	return base + "pd"
}

// emitStencilX86 generates a neighbor-sum stencil: load first point, add
// the rest, scale, store.
func emitStencilX86(e *x86Emitter, rows []rowRef, U int) {
	for u := 0; u < U; u++ {
		e.load(rows[0].base, u, rows[0].extra, e.vr(u))
		for _, r := range rows[1:] {
			e.arith2Mem(e.op("add"), r.base, u, r.extra, e.vr(u), e.vr(u), e.vr(u+U))
		}
		e.op3(e.op("mul"), e.vr(15), e.vr(u), e.vr(u))
		e.store(e.vr(u), "rdi", u, 0)
	}
}

// emitPiX86 generates the π-by-integration body. Scalar variants convert
// the loop index; vectorized variants (Ofast) keep an iota vector.
func emitPiX86(e *x86Emitter, k *Kernel) {
	if e.p.scalar {
		e.line("\tvcvtsi2sdq %rax, %xmm7, %xmm1")
		e.line("\tvaddsd %xmm13, %xmm1, %xmm1") // + 0.5
		e.line("\tvmulsd %xmm14, %xmm1, %xmm1") // * dx
		if e.p.fma {
			e.line("\tvfmadd213sd %xmm12, %xmm1, %xmm1") // x*x + 1
		} else {
			e.line("\tvmulsd %xmm1, %xmm1, %xmm1")
			e.line("\tvaddsd %xmm12, %xmm1, %xmm1")
		}
		e.line("\tvdivsd %xmm1, %xmm11, %xmm1") // 4.0 / t
		e.line("\tvaddsd %xmm1, %xmm0, %xmm0")
		return
	}
	U := e.p.unroll
	for u := 0; u < U; u++ {
		t := e.vr(4 + u%4)
		e.op3(e.op("mul"), e.vr(14), e.vr(9), t) // x = iota*dx
		if e.p.fma {
			e.op3(e.fmaOp("vfmadd213"), e.vr(12), t, t)
		} else {
			e.op3(e.op("mul"), t, t, t)
			e.op3(e.op("add"), e.vr(12), t, t)
		}
		e.op3(e.op("div"), t, e.vr(11), t)
		acc := e.vr(u % e.p.accs)
		e.op3(e.op("add"), t, acc, acc)
		e.op3(e.op("add"), e.vr(10), e.vr(9), e.vr(9)) // iota += lanes
	}
}

// emitGSX86 generates the Gauss-Seidel sweep. Three shapes, matching what
// real compilers emit:
//
//	O1:    the previous element is re-loaded from memory (store→load
//	       round trip carries the dependency),
//	O2/O3: the previous element stays in %xmm0 (register-carried
//	       add+mul chain),
//	Ofast: FMA contraction of the carried update.
func emitGSX86(e *x86Emitter) {
	switch {
	case e.p.gsFMA && !e.p.gsMemRoundTrip:
		e.load("r8", 0, 0, "%xmm1")
		e.arith2Mem("vaddsd", "r9", 0, 0, "%xmm1", "%xmm1", "%xmm2")
		e.arith2Mem("vaddsd", "rsi", 0, 8, "%xmm1", "%xmm1", "%xmm2")
		e.line("\tvmulsd %xmm15, %xmm1, %xmm1")      // t = 0.25*sum3
		e.line("\tvfmadd231sd %xmm15, %xmm0, %xmm1") // t += 0.25*prev
		e.store("%xmm1", "rsi", 0, 0)
		e.line("\tvmovsd %xmm1, %xmm0")
	case e.p.gsMemRoundTrip:
		e.load("rsi", 0, -8, "%xmm1")
		e.arith2Mem("vaddsd", "rsi", 0, 8, "%xmm1", "%xmm1", "%xmm2")
		e.arith2Mem("vaddsd", "r8", 0, 0, "%xmm1", "%xmm1", "%xmm2")
		e.arith2Mem("vaddsd", "r9", 0, 0, "%xmm1", "%xmm1", "%xmm2")
		e.line("\tvmulsd %xmm15, %xmm1, %xmm1")
		e.store("%xmm1", "rsi", 0, 0)
	default:
		e.load("r8", 0, 0, "%xmm1")
		e.arith2Mem("vaddsd", "r9", 0, 0, "%xmm1", "%xmm1", "%xmm2")
		e.arith2Mem("vaddsd", "rsi", 0, 8, "%xmm1", "%xmm1", "%xmm2")
		e.line("\tvaddsd %xmm0, %xmm1, %xmm1")
		e.line("\tvmulsd %xmm15, %xmm1, %xmm0")
		e.store("%xmm0", "rsi", 0, 0)
	}
}
