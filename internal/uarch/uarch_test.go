package uarch

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"incore/internal/isa"
)

// lookup and lookupDegraded resolve in against m the way depgraph does,
// deriving the instruction's effects first.
func lookup(m *Model, in *isa.Instruction) (Desc, error) {
	eff := isa.InstrEffects(in, m.Dialect)
	return m.LookupEff(in, &eff)
}

func lookupDegraded(m *Model, in *isa.Instruction) Desc {
	eff := isa.InstrEffects(in, m.Dialect)
	return m.LookupEffDegraded(in, &eff)
}

func TestPortMaskBasics(t *testing.T) {
	var m PortMask = 0b1011
	if !m.Has(0) || !m.Has(1) || m.Has(2) || !m.Has(3) {
		t.Errorf("Has wrong for %b", m)
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d, want 3", m.Count())
	}
	idx := m.Indices()
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 3 {
		t.Errorf("Indices = %v", idx)
	}
	if PortMask(0).Count() != 0 {
		t.Error("empty mask count")
	}
}

func TestPortMaskCountQuick(t *testing.T) {
	f := func(v uint32) bool {
		m := PortMask(v)
		n := 0
		for i := 0; i < 32; i++ {
			if m.Has(i) {
				n++
			}
		}
		return n == m.Count() && len(m.Indices()) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistry(t *testing.T) {
	// The package-level views hold exactly the built-in models, and a
	// fresh registry starts with the same instances.
	for _, k := range []string{"goldencove", "neoversev2", "zen4"} {
		m, err := Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if m.Key != k {
			t.Errorf("model key mismatch: %q", m.Key)
		}
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Error("unknown key must error")
	}
	keys := Keys()
	if got := fmt.Sprint(keys); got != "[goldencove neoversev2 zen4]" {
		t.Errorf("Keys() = %s, want the three built-ins in order", got)
	}
	all := NewRegistry().All()
	if len(all) != len(keys) {
		t.Fatalf("inconsistent registry views: %d keys, %d models", len(keys), len(all))
	}
	for i, m := range all {
		if m.Key != keys[i] || m != MustGet(m.Key) {
			t.Errorf("NewRegistry().All()[%d] = %s, want the built-in %s", i, m.Key, keys[i])
		}
	}
}

func TestAllModelsValidate(t *testing.T) {
	for _, m := range NewRegistry().All() {
		if err := m.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", m.Key, err)
		}
	}
}

func TestPortCounts(t *testing.T) {
	// Paper Table II.
	want := map[string]int{"neoversev2": 17, "goldencove": 12, "zen4": 13}
	for k, n := range want {
		m := MustGet(k)
		if len(m.Ports) != n {
			t.Errorf("%s: %d ports, want %d", k, len(m.Ports), n)
		}
	}
}

func TestVectorWidths(t *testing.T) {
	want := map[string]int{"neoversev2": 128, "goldencove": 512, "zen4": 256}
	for k, w := range want {
		if m := MustGet(k); m.VecWidth != w {
			t.Errorf("%s: VecWidth %d, want %d", k, m.VecWidth, w)
		}
	}
}

func TestUnitCounts(t *testing.T) {
	type c struct{ intU, fpU int }
	want := map[string]c{
		"neoversev2": {6, 4}, "goldencove": {5, 3}, "zen4": {4, 4},
	}
	for k, v := range want {
		m := MustGet(k)
		if m.IntUnits != v.intU || m.FPVectorUnits != v.fpU {
			t.Errorf("%s: int=%d fp=%d, want %+v", k, m.IntUnits, m.FPVectorUnits, v)
		}
	}
}

func parse1(t *testing.T, m *Model, src string) *isa.Instruction {
	t.Helper()
	b, err := isa.ParseBlock("t", m.Key, m.Dialect, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &b.Instrs[0]
}

func TestLookupExactAndFallback(t *testing.T) {
	m := MustGet("goldencove")
	// Width-specific entry: 512-bit add on ports 0/5.
	in := parse1(t, m, "\tvaddpd %zmm1, %zmm2, %zmm3\n")
	d, err := lookup(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if d.Lat != 2 || len(d.Uops) != 1 {
		t.Errorf("512 vaddpd: %+v", d)
	}
	if d.Uops[0].Ports.Count() != 2 {
		t.Errorf("512 vaddpd should use 2 ports, got %d", d.Uops[0].Ports.Count())
	}
	// Fallback to width-any entry for 256-bit.
	in256 := parse1(t, m, "\tvaddpd %ymm1, %ymm2, %ymm3\n")
	d256, err := lookup(m, in256)
	if err != nil {
		t.Fatal(err)
	}
	if d256.Entry.Width != 0 {
		t.Errorf("256-bit add should match the width-any entry, got width %d", d256.Entry.Width)
	}
}

func TestLookupUnknownMnemonic(t *testing.T) {
	m := MustGet("zen4")
	in := &isa.Instruction{Mnemonic: "frobnicate"}
	if _, err := lookup(m, in); err == nil {
		t.Error("unknown mnemonic must error")
	} else if _, ok := err.(*ErrNoEntry); !ok {
		t.Errorf("want *ErrNoEntry, got %T", err)
	}
}

func TestLoadFoldingX86(t *testing.T) {
	m := MustGet("goldencove")
	in := parse1(t, m, "\tvaddpd (%rsi,%rax,8), %zmm1, %zmm0\n")
	d, err := lookup(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsLoad {
		t.Error("memory-source add must be a load")
	}
	if d.LoadLat != m.LoadLat {
		t.Errorf("LoadLat = %d, want %d", d.LoadLat, m.LoadLat)
	}
	if d.TotalLat != d.Lat+m.LoadLat {
		t.Errorf("TotalLat = %d", d.TotalLat)
	}
	nLoads := 0
	for _, u := range d.Uops {
		if u.Kind == UopLoad {
			nLoads++
			// 512-bit load restricted to the wide load ports.
			if u.Ports != m.WideLoadPorts {
				t.Errorf("512-bit load must use wide load ports")
			}
		}
	}
	if nLoads != 1 {
		t.Errorf("want 1 load µ-op, got %d", nLoads)
	}
}

func TestNarrowLoadUsesAllLoadPorts(t *testing.T) {
	m := MustGet("goldencove")
	in := parse1(t, m, "\tvmovsd (%rsi), %xmm0\n")
	d, err := lookup(m, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range d.Uops {
		if u.Kind == UopLoad && u.Ports != m.LoadPorts {
			t.Errorf("scalar load must use all load ports")
		}
	}
}

func TestStoreFoldingSplitsWideStores(t *testing.T) {
	m := MustGet("goldencove") // StoreWidthBits 256
	in := parse1(t, m, "\tvmovupd %zmm0, (%rdi)\n")
	d, err := lookup(m, in)
	if err != nil {
		t.Fatal(err)
	}
	var agu, sd int
	for _, u := range d.Uops {
		switch u.Kind {
		case UopStoreAddr:
			agu++
		case UopStoreData:
			sd++
		}
	}
	if agu != 2 || sd != 2 {
		t.Errorf("512-bit store must split into 2 AGU + 2 data µ-ops, got %d/%d", agu, sd)
	}
	if !d.IsStore {
		t.Error("store must be classified as store")
	}
	if d.TotalLat != 0 {
		t.Errorf("stores produce no register result; TotalLat = %d", d.TotalLat)
	}
}

func TestZen4DoublePumping(t *testing.T) {
	m := MustGet("zen4")
	in512 := parse1(t, m, "\tvfmadd231pd %zmm1, %zmm2, %zmm3\n")
	d512, err := lookup(m, in512)
	if err != nil {
		t.Fatal(err)
	}
	if len(d512.Uops) != 2 {
		t.Errorf("zen4 512-bit FMA must be 2 µ-ops, got %d", len(d512.Uops))
	}
	in256 := parse1(t, m, "\tvfmadd231pd %ymm1, %ymm2, %ymm3\n")
	d256, err := lookup(m, in256)
	if err != nil {
		t.Fatal(err)
	}
	if len(d256.Uops) != 1 {
		t.Errorf("zen4 256-bit FMA must be 1 µ-op, got %d", len(d256.Uops))
	}
}

func TestGatherDiscrimination(t *testing.T) {
	m := MustGet("neoversev2")
	// Contiguous SVE load.
	cont := parse1(t, m, "\tld1d { z0.d }, p0/z, [x1, x3, lsl #3]\n")
	dc, err := lookup(m, cont)
	if err != nil {
		t.Fatal(err)
	}
	if len(dc.Uops) != 1 || dc.Lat != 6 {
		t.Errorf("contiguous ld1d: %+v", dc)
	}
	// Gather form (vector index).
	gat := parse1(t, m, "\tld1d { z0.d }, p0/z, [x1, z1.d]\n")
	dg, err := lookup(m, gat)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Lat != 9 {
		t.Errorf("gather ld1d latency = %d, want 9", dg.Lat)
	}
	if len(dg.Uops) != 2 {
		t.Errorf("gather ld1d should have 2 load µ-ops, got %d", len(dg.Uops))
	}
}

func TestAArch64LoadLatencyInclusive(t *testing.T) {
	m := MustGet("neoversev2")
	in := parse1(t, m, "\tldr q0, [x1, x3]\n")
	d, err := lookup(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if d.LoadLat != 0 {
		t.Error("aarch64 loads must not get extra LoadLat (entry latency is inclusive)")
	}
	if d.TotalLat != 4 {
		t.Errorf("ldr TotalLat = %d, want 4", d.TotalLat)
	}
}

func TestOperandSig(t *testing.T) {
	m := MustGet("goldencove")
	cases := map[string]string{
		"\tvaddpd %zmm1, %zmm2, %zmm3\n": "v,v,v",
		"\tvmovupd (%rsi), %zmm0\n":      "m,v",
		"\tvmovupd %zmm0, (%rdi)\n":      "v,m",
		"\taddq $8, %rax\n":              "i,r",
		"\tcmpq %rbx, %rax\n":            "r,r",
		"\tjne .L0\n":                    "l",
	}
	for src, want := range cases {
		in := parse1(t, m, src)
		if got := OperandSig(in); got != want {
			t.Errorf("sig(%q) = %q, want %q", src, got, want)
		}
	}
}

// TestTableIIIThroughputFromEntries checks that the machine-model entries
// imply the paper's Table III reciprocal throughputs.
func TestTableIIIThroughputFromEntries(t *testing.T) {
	check := func(key, src string, wantElemsPerCy float64, lanes int) {
		m := MustGet(key)
		in := parse1(t, m, src)
		d, err := lookup(m, in)
		if err != nil {
			t.Fatalf("%s %s: %v", key, src, err)
		}
		rtp := d.ThroughputCycles()
		got := float64(lanes) / rtp
		if math.Abs(got-wantElemsPerCy) > 0.05*wantElemsPerCy {
			t.Errorf("%s %q: %.2f elem/cy, want %.2f", key, src, got, wantElemsPerCy)
		}
	}
	// VEC ADD: 8 / 16 / 8 elements per cycle.
	check("neoversev2", "\tfadd v0.2d, v1.2d, v2.2d\n", 8, 2)
	check("goldencove", "\tvaddpd %zmm1, %zmm2, %zmm0\n", 16, 8)
	check("zen4", "\tvaddpd %ymm1, %ymm2, %ymm0\n", 8, 4)
	// Scalar ADD: 4 / 2 / 2.
	check("neoversev2", "\tfadd d0, d1, d2\n", 4, 1)
	check("goldencove", "\tvaddsd %xmm1, %xmm2, %xmm0\n", 2, 1)
	check("zen4", "\tvaddsd %xmm1, %xmm2, %xmm0\n", 2, 1)
	// Divide: 0.4 / 0.25 / 0.2 scalar.
	check("neoversev2", "\tfdiv d0, d1, d2\n", 0.4, 1)
	check("goldencove", "\tvdivsd %xmm1, %xmm2, %xmm0\n", 0.25, 1)
	check("zen4", "\tvdivsd %xmm1, %xmm2, %xmm0\n", 0.2, 1)
}

// TestTableIIILatencies checks the latency column of Table III.
func TestTableIIILatencies(t *testing.T) {
	check := func(key, src string, want int) {
		m := MustGet(key)
		in := parse1(t, m, src)
		d, err := lookup(m, in)
		if err != nil {
			t.Fatalf("%s %s: %v", key, src, err)
		}
		if d.Lat != want {
			t.Errorf("%s %q: lat %d, want %d", key, src, d.Lat, want)
		}
	}
	check("neoversev2", "\tfadd v0.2d, v1.2d, v2.2d\n", 2)
	check("neoversev2", "\tfmul v0.2d, v1.2d, v2.2d\n", 3)
	check("neoversev2", "\tfmla v0.2d, v1.2d, v2.2d\n", 4)
	check("goldencove", "\tvaddpd %zmm1, %zmm2, %zmm0\n", 2)
	check("goldencove", "\tvmulpd %zmm1, %zmm2, %zmm0\n", 4)
	check("goldencove", "\tvfmadd231sd %xmm1, %xmm2, %xmm0\n", 5)
	check("zen4", "\tvaddpd %ymm1, %ymm2, %ymm0\n", 3)
	check("zen4", "\tvfmadd231pd %ymm1, %ymm2, %ymm0\n", 4)
	check("zen4", "\tvdivsd %xmm1, %xmm2, %xmm0\n", 13)
}

func TestValidateCatchesBrokenModels(t *testing.T) {
	m := &Model{Key: "x", Name: "X", Ports: []string{"0"},
		IssueWidth: 4, DecodeWidth: 4, RetireWidth: 4, ROBSize: 64,
		SchedSize: 16, LoadLat: 4, VecWidth: 128,
		LoadPorts: 1, StoreAGUPorts: 1, StoreDataPorts: 1,
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("minimal model should validate: %v", err)
	}
	bad := *m
	bad.LoadLat = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero LoadLat must fail validation")
	}
	bad2 := *m
	bad2.Entries = []Entry{{Mnemonic: "op", Uops: []Uop{{Ports: 0b10, Cycles: 1}}}}
	if err := bad2.Validate(); err == nil {
		t.Error("µ-op referencing missing port must fail validation")
	}
	bad3 := *m
	bad3.Entries = []Entry{
		{Mnemonic: "op", Uops: []Uop{{Ports: 1, Cycles: 1}}},
		{Mnemonic: "op", Uops: []Uop{{Ports: 1, Cycles: 1}}},
	}
	if err := bad3.Validate(); err == nil {
		t.Error("duplicate entries must fail validation")
	}
	bad4 := *m
	bad4.Entries = []Entry{{Mnemonic: "op", Uops: []Uop{{Ports: 1, Cycles: -1}}}}
	if err := bad4.Validate(); err == nil {
		t.Error("negative cycles must fail validation")
	}
}

func TestUopKindString(t *testing.T) {
	for k, want := range map[UopKind]string{
		UopCompute: "compute", UopLoad: "load", UopStoreAddr: "staddr",
		UopStoreData: "stdata", UopBranch: "branch",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestPortsByNamePanicsOnUnknown(t *testing.T) {
	m := MustGet("zen4")
	defer func() {
		if recover() == nil {
			t.Error("PortsByName with unknown port must panic")
		}
	}()
	m.PortsByName("NOPE")
}

// TestWidestExt covers the one widest-ISA resolver Roofline and Table I
// share: the named extension when given, else the widest activity-factor
// class by isa.Ext.Wider, and an error when neither exists.
func TestWidestExt(t *testing.T) {
	for _, tc := range []struct {
		key   string
		clear bool
		want  isa.Ext
	}{
		{"goldencove", false, isa.ExtAVX512},
		{"neoversev2", false, isa.ExtSVE},
		{"zen4", false, isa.ExtAVX512},
		{"goldencove", true, isa.ExtAVX512},
		{"neoversev2", true, isa.ExtSVE}, // a 128-bit tie goes to the later class
	} {
		fp := *MustGet(tc.key).Node.Freq
		if tc.clear {
			fp.WidestVectorExt = ""
		}
		if got, err := fp.WidestExt(); err != nil || got != tc.want {
			t.Errorf("%s (named %q): WidestExt() = %v, %v; want %v", tc.key, fp.WidestVectorExt, got, err, tc.want)
		}
	}
	if _, err := (&FreqParams{}).WidestExt(); err == nil {
		t.Error("a governor with no extensions resolved a widest one")
	}
	if _, err := (&FreqParams{WidestVectorExt: "avx1024"}).WidestExt(); err == nil {
		t.Error("an unknown widest_vector_ext resolved")
	}
}
