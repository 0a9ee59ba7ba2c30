package uarch

import (
	"testing"

	"incore/internal/isa"
)

// TestExtendedCoverageX86 spot-checks the single-precision, integer-SIMD,
// and convert/permute entries on both x86 models.
func TestExtendedCoverageX86(t *testing.T) {
	srcs := []string{
		"\tvaddps %ymm1, %ymm2, %ymm3\n",
		"\tvmulps %ymm1, %ymm2, %ymm3\n",
		"\tvfmadd231ps %ymm1, %ymm2, %ymm3\n",
		"\tvdivps %ymm1, %ymm2, %ymm3\n",
		"\tvaddss %xmm1, %xmm2, %xmm3\n",
		"\tvdivss %xmm1, %xmm2, %xmm3\n",
		"\tvmovups (%rsi), %ymm0\n",
		"\tvmovups %ymm0, (%rdi)\n",
		"\tvpaddq %ymm1, %ymm2, %ymm3\n",
		"\tvpaddd %ymm1, %ymm2, %ymm3\n",
		"\tvpmulld %ymm1, %ymm2, %ymm3\n",
		"\tvpand %ymm1, %ymm2, %ymm3\n",
		"\tvpxor %ymm1, %ymm2, %ymm3\n",
		"\tvpsllq %ymm1, %ymm2, %ymm3\n",
		"\tvpcmpeqd %ymm1, %ymm2, %ymm3\n",
		"\tvcvtpd2ps %ymm1, %xmm3\n",
		"\tvcvtps2pd %xmm1, %ymm3\n",
		"\tvpermpd %ymm1, %ymm2, %ymm3\n",
		"\tvblendvpd %ymm1, %ymm2, %ymm3, %ymm4\n",
	}
	for _, key := range []string{"goldencove", "zen4"} {
		m := MustGet(key)
		for _, src := range srcs {
			b, err := isa.ParseBlock("t", key, m.Dialect, src)
			if err != nil {
				t.Fatalf("%s parse %q: %v", key, src, err)
			}
			d, err := lookup(m, &b.Instrs[0])
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			if len(d.Uops) == 0 && !d.IsStore {
				t.Errorf("%s %q: no µ-ops", key, src)
			}
		}
	}
}

// TestExtendedCoverageAArch64 spot-checks the vector-integer, convert,
// and scalar-division entries on Neoverse V2.
func TestExtendedCoverageAArch64(t *testing.T) {
	m := MustGet("neoversev2")
	srcs := []string{
		"\tadd v0.2d, v1.2d, v2.2d\n",
		"\tsub v0.2d, v1.2d, v2.2d\n",
		"\tmul v0.4s, v1.4s, v2.4s\n",
		"\tand v0.16b, v1.16b, v2.16b\n",
		"\teor v0.16b, v1.16b, v2.16b\n",
		"\tcmeq v0.2d, v1.2d, v2.2d\n",
		"\tzip1 v0.2d, v1.2d, v2.2d\n",
		"\tfcvtzs v0.2d, v1.2d\n",
		"\tucvtf v0.2d, v1.2d\n",
		"\tudiv x0, x1, x2\n",
		"\tcsel x0, x1, x2\n",
	}
	for _, src := range srcs {
		b, err := isa.ParseBlock("t", "neoversev2", m.Dialect, src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := lookup(m, &b.Instrs[0]); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestVectorIntUsesVPorts: the "v,v,v" integer forms must run on the V
// pipes, not the scalar integer ports.
func TestVectorIntUsesVPorts(t *testing.T) {
	m := MustGet("neoversev2")
	vPorts := m.PortsByName("V0", "V1", "V2", "V3")
	b, err := isa.ParseBlock("t", "neoversev2", m.Dialect, "\tadd v0.2d, v1.2d, v2.2d\n")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lookup(m, &b.Instrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Uops[0].Ports&^vPorts != 0 {
		t.Errorf("vector add must use V ports, got mask %b", d.Uops[0].Ports)
	}
	// The GPR form stays on the integer ports.
	b2, err := isa.ParseBlock("t", "neoversev2", m.Dialect, "\tadd x0, x1, x2\n")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := lookup(m, &b2.Instrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if d2.Uops[0].Ports&vPorts != 0 {
		t.Errorf("GPR add must not use V ports")
	}
}

// TestZen4SinglePrecision512DoublePumps mirrors the DP behaviour for PS.
func TestZen4SinglePrecision512DoublePumps(t *testing.T) {
	m := MustGet("zen4")
	b, err := isa.ParseBlock("t", "zen4", m.Dialect, "\tvaddps %zmm1, %zmm2, %zmm3\n")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lookup(m, &b.Instrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Uops) != 2 {
		t.Errorf("zen4 512-bit PS add must double-pump, got %d µ-ops", len(d.Uops))
	}
}
