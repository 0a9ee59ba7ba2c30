package sim

import (
	"slices"
	"testing"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// TestClassifyFPTable pins the current classification of every mnemonic
// family the models and kernels emit, including the clause-precedence
// cases: FMA wins over add/mul spellings, div wins over the x86
// "add*pd/sd" clause, and the x86 scalar/packed suffix rules only fire
// for pd/sd forms. isa.ClassifyFP now runs once per static instruction at
// compile time, so a silent reordering of its clauses would otherwise
// only surface as a timing drift deep inside the forwarding model.
func TestClassifyFPTable(t *testing.T) {
	cases := []struct {
		mn   string
		want isa.FPClass
	}{
		// FMA family, both dialects; vfm* prefixes contain "add"/"sub"
		// but must classify as FMA (clause order).
		{"vfmadd231pd", isa.FPFMA},
		{"vfmadd213sd", isa.FPFMA},
		{"vfmsub132pd", isa.FPFMA},
		{"vfnmadd231pd", isa.FPFMA},
		{"fmla", isa.FPFMA},
		{"fmls", isa.FPFMA},
		{"fmadd", isa.FPFMA},
		{"fmsub", isa.FPFMA},
		{"fnmadd", isa.FPFMA},
		{"fnmsub", isa.FPFMA},
		{"fadda", isa.FPFMA},         // SVE ordered reduction: FMA class, not add
		{"vfnmsub231pd", isa.FPNone}, // negated multiply-subtract: no FP class
		{"madd", isa.FPNone},         // integer multiply-add

		// Divides and square roots, before any add/mul spelling applies.
		{"vdivpd", isa.FPDiv},
		{"vdivsd", isa.FPDiv},
		{"divpd", isa.FPDiv},
		{"fdiv", isa.FPDiv},
		{"fdivr", isa.FPDiv},
		{"vsqrtpd", isa.FPDiv},
		{"fsqrt", isa.FPDiv},

		// x86 adds: the multi-clause precedence cases. "add*" only
		// classifies FP-add for packed/scalar-double forms ending in d.
		{"vaddpd", isa.FPAdd},
		{"vaddsd", isa.FPAdd},
		{"vsubpd", isa.FPAdd},
		{"addpd", isa.FPAdd},
		{"addsd", isa.FPAdd},
		{"addsubpd", isa.FPAdd}, // prefix add + pd + trailing d
		{"addps", isa.FPNone},   // single precision: no trailing d
		{"addss", isa.FPNone},
		{"add", isa.FPNone},  // integer add
		{"addq", isa.FPNone}, // integer add, q suffix
		{"paddd", isa.FPNone},

		// AArch64 adds.
		{"fadd", isa.FPAdd},
		{"fsub", isa.FPAdd},
		{"faddp", isa.FPAdd},

		// Multiplies.
		{"vmulpd", isa.FPMul},
		{"vmulsd", isa.FPMul},
		{"mulpd", isa.FPMul},
		{"mulsd", isa.FPMul},
		{"fmul", isa.FPMul},
		{"mulq", isa.FPNone}, // integer: no pd/sd
		{"imulq", isa.FPNone},

		// Non-FP traffic.
		{"movq", isa.FPNone},
		{"vmovupd", isa.FPNone},
		{"ldr", isa.FPNone},
		{"str", isa.FPNone},
		{"cmpq", isa.FPNone},
		{"jne", isa.FPNone},
		{"subs", isa.FPNone},
	}
	for _, c := range cases {
		if got := isa.ClassifyFP(c.mn); got != c.want {
			t.Errorf("ClassifyFP(%q) = %v, want %v", c.mn, got, c.want)
		}
	}
}

// TestCompileCachesClassification asserts the compiled program carries the
// classification (the engine never re-derives it per dynamic instruction).
func TestCompileCachesClassification(t *testing.T) {
	blk := mustParse(t, "goldencove", `
	vfmadd231pd %zmm1, %zmm2, %zmm3
	vaddpd %zmm1, %zmm2, %zmm4
	vdivsd %xmm1, %xmm2, %xmm5
	decq %rcx
	jne .L0
`)
	p, err := Compile(blk, mustModel(t, "goldencove"))
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.FPClass{isa.FPFMA, isa.FPAdd, isa.FPDiv, isa.FPNone, isa.FPNone}
	for i, cls := range want {
		if p.instrs[i].fpClass != cls {
			t.Errorf("instr %d compiled fpClass = %v, want %v", i, p.instrs[i].fpClass, cls)
		}
	}
	if !p.instrs[0].isFMA || p.instrs[0].accID < 0 {
		t.Error("FMA accumulator not compiled")
	}
	if !p.instrs[2].divScaled {
		t.Error("scalar divide not marked for early-exit scaling")
	}

	// vfnmsub231pd (no model lists it; the test model borrows
	// vfmadd231pd's timing) and madd are FMA-category for their effects
	// but carry neither an FP class nor an accumulator.
	base := mustModel(t, "goldencove")
	withNMS, err := uarch.NewDeriver(base).Derive(func(m *uarch.Model) error {
		for _, e := range base.Entries {
			if e.Mnemonic == "vfmadd231pd" {
				e.Mnemonic = "vfnmsub231pd"
				m.Entries = append(slices.Clip(m.Entries), e)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m   *uarch.Model
		src string
	}{
		{withNMS, "\tvfnmsub231pd %zmm1, %zmm2, %zmm3\n\tjne .L0\n"},
		{mustModel(t, "neoversev2"), "\tmadd x0, x1, x2, x0\n\tb.ne .L0\n"},
	} {
		b, err := isa.ParseBlock("t", c.m.Key, c.m.Dialect, c.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(b, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if pi := &p.instrs[0]; pi.fpClass != isa.FPNone || pi.isFMA || pi.accID != -1 {
			t.Errorf("%s: fpClass %v, isFMA %v, accID %d; want isa.FPNone, false, -1",
				b.Instrs[0].Mnemonic, pi.fpClass, pi.isFMA, pi.accID)
		}
	}
}
