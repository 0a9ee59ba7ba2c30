package isa

import "testing"

func TestParseX86Register(t *testing.T) {
	cases := []struct {
		name  string
		class RegClass
		id    int
		width int
	}{
		{"rax", ClassGPR, 0, 64},
		{"rsp", ClassGPR, 4, 64},
		{"r15", ClassGPR, 15, 64},
		{"eax", ClassGPR, 0, 32},
		{"r10d", ClassGPR, 10, 32},
		{"xmm0", ClassVec, 0, 128},
		{"xmm31", ClassVec, 31, 128},
		{"ymm7", ClassVec, 7, 256},
		{"zmm15", ClassVec, 15, 512},
		{"zmm31", ClassVec, 31, 512},
		{"k1", ClassPred, 1, 64},
		{"rip", ClassIP, 0, 64},
		{"rflags", ClassFlags, 0, 64},
	}
	for _, c := range cases {
		r := ParseX86Register(c.name)
		if !r.Valid() {
			t.Errorf("ParseX86Register(%q) invalid", c.name)
			continue
		}
		if r.Class != c.class || r.ID != c.id || r.Width != c.width {
			t.Errorf("ParseX86Register(%q) = %+v, want class=%v id=%d width=%d", c.name, r, c.class, c.id, c.width)
		}
	}
	for _, bad := range []string{"", "xmm32", "zmm99", "foo", "k9", "ymmx"} {
		if ParseX86Register(bad).Valid() {
			t.Errorf("ParseX86Register(%q) should be invalid", bad)
		}
	}
}

func TestParseAArch64Register(t *testing.T) {
	cases := []struct {
		name  string
		class RegClass
		id    int
		width int
	}{
		{"x0", ClassGPR, 0, 64},
		{"x30", ClassGPR, 30, 64},
		{"w5", ClassGPR, 5, 32},
		{"sp", ClassGPR, 31, 64},
		{"xzr", ClassGPR, 32, 64},
		{"d7", ClassVec, 7, 64},
		{"s3", ClassVec, 3, 32},
		{"q2", ClassVec, 2, 128},
		{"v31", ClassVec, 31, 128},
		{"v3.2d", ClassVec, 3, 128},
		{"z9", ClassVec, 9, 128},
		{"z1.d", ClassVec, 1, 128},
		{"p0", ClassPred, 0, 16},
		{"p15", ClassPred, 15, 16},
		{"p0.d", ClassPred, 0, 16},
		{"nzcv", ClassFlags, 0, 32},
	}
	for _, c := range cases {
		r := ParseAArch64Register(c.name)
		if !r.Valid() {
			t.Errorf("ParseAArch64Register(%q) invalid", c.name)
			continue
		}
		if r.Class != c.class || r.ID != c.id || r.Width != c.width {
			t.Errorf("ParseAArch64Register(%q) = %+v, want class=%v id=%d width=%d", c.name, r, c.class, c.id, c.width)
		}
	}
	for _, bad := range []string{"", "x31", "w31", "v32", "p16", "y0", "z32"} {
		if ParseAArch64Register(bad).Valid() {
			t.Errorf("ParseAArch64Register(%q) should be invalid", bad)
		}
	}
}

func TestXAndWAlias(t *testing.T) {
	x := ParseAArch64Register("x5")
	w := ParseAArch64Register("w5")
	if x.Key() != w.Key() {
		t.Error("x5 and w5 must alias")
	}
}

func TestVectorAliasAcrossWidths(t *testing.T) {
	d := ParseAArch64Register("d3")
	v := ParseAArch64Register("v3.2d")
	z := ParseAArch64Register("z3.d")
	if d.Key() != v.Key() || v.Key() != z.Key() {
		t.Error("d3/v3/z3 must alias (shared register file)")
	}
	x86x := ParseX86Register("xmm3")
	x86z := ParseX86Register("zmm3")
	if x86x.Key() != x86z.Key() {
		t.Error("xmm3 and zmm3 must alias")
	}
}

func TestZeroRegister(t *testing.T) {
	if !IsZeroReg(ParseAArch64Register("xzr")) {
		t.Error("xzr must be the zero register")
	}
	if !IsZeroReg(ParseAArch64Register("wzr")) {
		t.Error("wzr must be the zero register")
	}
	if IsZeroReg(ParseAArch64Register("x0")) {
		t.Error("x0 must not be the zero register")
	}
	if IsZeroReg(ParseX86Register("rax")) {
		t.Error("rax must not be the zero register")
	}
}
