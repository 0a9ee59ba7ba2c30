package uarch

import (
	"incore/internal/isa"
	"incore/internal/nodes"
)

// NewZen4 builds the machine model for AMD Zen 4 as shipped in the EPYC
// 9684X (Genoa-X). Port topology: 4 integer ALUs, 3 AGUs (2 usable for
// loads per cycle, 1 for stores), 1 store-data pipe, 4 FP pipes (FP0/FP1:
// MUL/FMA + divider on FP1; FP2/FP3: ADD), 1 branch port — 13 ports.
// Native datapath is 256 bits; AVX-512 instructions are double-pumped into
// two 256-bit µ-ops (paper Sec. II).
func NewZen4() *Model {
	tbl := nodes.MustGet("zen4")
	m := &Model{
		Key:     "zen4",
		Name:    tbl.Uarch,
		CPU:     tbl.Name,
		Vendor:  "AMD",
		Dialect: isa.DialectX86,
		Ports: []string{
			"ALU0", "ALU1", "ALU2", "ALU3",
			"AGU0", "AGU1", "AGU2",
			"SD",
			"FP0", "FP1", "FP2", "FP3",
			"BR0",
		},

		IssueWidth:  6,
		DecodeWidth: 6,
		RetireWidth: 6,
		ROBSize:     320,
		SchedSize:   96,
		PhysVecRegs: 192,
		PhysGPRegs:  224,

		LoadLat:        7,
		LoadWidthBits:  256,
		StoreWidthBits: 256,

		VecWidth:      256,
		CoresPerChip:  tbl.Cores,
		BaseFreqGHz:   tbl.BaseFreqGHz,
		MaxFreqGHz:    tbl.MaxFreqGHz,
		FPVectorUnits: 4,
		IntUnits:      4,
	}

	// Node-level calibration (machine-file "node" section); see the
	// Golden Cove definition for provenance.
	m.Node = &NodeParams{
		MemBWGBs:      tbl.TheoreticalBandwidthGBs() * tbl.StreamEfficiency,
		FlopsPerCycle: tbl.FlopsPerCycle(),
		// Zen-style: L2<->L3 overlaps with the rest (victim cache).
		ECM: &ECMParams{
			L1L2BytesPerCycle: 32, L2L3BytesPerCycle: 32,
			OverlapL2L3: true,
		},
		// EPYC 9684X: 3.7 GHz boost, identical behaviour across ISA
		// extensions, decaying to 3.1 GHz at 96 cores (84% of turbo).
		Freq: &FreqParams{
			TDPWatts: tbl.TDPWatts, UncoreWatts: 100, StaticWattsPerCore: 0.3,
			MinFreqGHz: 0.8,
			ActivityFactor: map[string]float64{
				"scalar": 0.0948, "sse": 0.0948, "avx": 0.0948,
				"avx512": 0.0948,
			},
			MaxFreqGHz: map[string]float64{
				"scalar": 3.7, "sse": 3.7, "avx": 3.7, "avx512": 3.7,
			},
			WidestVectorExt: "avx512",
		},
	}

	p := m.PortsByName
	intALU := p("ALU0", "ALU1", "ALU2", "ALU3")
	branch := p("BR0")
	fpAdd := p("FP2", "FP3")
	fpMul := p("FP0", "FP1")
	fpAll := p("FP0", "FP1", "FP2", "FP3")
	fpShuf := p("FP1", "FP2")
	div := p("FP1")

	m.LoadPorts = p("AGU0", "AGU1")
	m.StoreAGUPorts = p("AGU2")
	m.StoreDataPorts = p("SD")

	one := func(mask PortMask) []Uop { return []Uop{{Ports: mask, Cycles: 1, Kind: UopCompute}} }
	cyc := func(mask PortMask, c float64) []Uop { return []Uop{{Ports: mask, Cycles: c, Kind: UopCompute}} }
	two := func(mask PortMask) []Uop {
		return []Uop{{Ports: mask, Cycles: 1, Kind: UopCompute}, {Ports: mask, Cycles: 1, Kind: UopCompute}}
	}
	none := []Uop{}

	m.Entries = []Entry{
		// --- scalar integer --------------------------------------------------
		{Mnemonic: "mov", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "movq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "movl", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "movabs", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "add", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "addq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "addl", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "sub", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "subq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "and", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "andq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "or", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "orq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "xor", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "xorq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "inc", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "incq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "dec", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "decq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "neg", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "negq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "shl", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "shlq", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "shr", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "shrq", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "sal", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "salq", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "sar", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "sarq", Lat: 1, Uops: one(p("ALU1", "ALU2"))},
		{Mnemonic: "imul", Lat: 3, Uops: one(p("ALU1"))},
		{Mnemonic: "imulq", Lat: 3, Uops: one(p("ALU1"))},
		{Mnemonic: "lea", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "leaq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "cmp", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "cmpq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "cmpl", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "test", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "testq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "nop", Lat: 0, Uops: none},

		// --- branches ----------------------------------------------------------
		{Mnemonic: "jmp", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jne", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "je", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jb", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jae", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jl", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jle", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jg", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jge", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "jnz", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},

		// --- SIMD moves ----------------------------------------------------------
		{Mnemonic: "vmovupd", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "vmovupd", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "vmovupd", Sig: "v,v", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vmovapd", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "vmovapd", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "vmovapd", Sig: "v,v", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vmovsd", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "vmovsd", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "vmovsd", Sig: "v,v", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "movupd", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "movupd", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "movapd", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "movapd", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "movsd", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "movsd", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "movsd", Sig: "v,v", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vmovntpd", Lat: 0, Uops: none, Notes: "NT store: perfect WA evasion on Zen 4 (paper Fig. 4)"},
		{Mnemonic: "movntpd", Lat: 0, Uops: none},
		{Mnemonic: "vbroadcastsd", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "vbroadcastsd", Sig: "v,v", Lat: 1, Uops: one(fpShuf)},

		// --- packed FP arithmetic (256-bit native) -------------------------------
		{Mnemonic: "vaddpd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vsubpd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vmulpd", Lat: 3, Uops: one(fpMul)},
		{Mnemonic: "vfmadd231pd", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vfmadd213pd", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vfmadd132pd", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vfnmadd231pd", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vmaxpd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vminpd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vdivpd", Lat: 13, Uops: cyc(div, 5), Notes: "Table III: 0.8 elem/cy (256-bit)"},
		{Mnemonic: "vsqrtpd", Lat: 21, Uops: cyc(div, 9)},
		{Mnemonic: "vxorpd", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "addpd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "subpd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "mulpd", Lat: 3, Uops: one(fpMul)},
		{Mnemonic: "divpd", Lat: 13, Uops: cyc(div, 2.5)},

		// AVX-512 forms: double-pumped into 2 x 256-bit µ-ops.
		{Mnemonic: "vaddpd", Width: 512, Lat: 3, Uops: two(fpAdd)},
		{Mnemonic: "vsubpd", Width: 512, Lat: 3, Uops: two(fpAdd)},
		{Mnemonic: "vmulpd", Width: 512, Lat: 3, Uops: two(fpMul)},
		{Mnemonic: "vfmadd231pd", Width: 512, Lat: 4, Uops: two(fpMul)},
		{Mnemonic: "vfmadd213pd", Width: 512, Lat: 4, Uops: two(fpMul)},
		{Mnemonic: "vfmadd132pd", Width: 512, Lat: 4, Uops: two(fpMul)},
		{Mnemonic: "vfnmadd231pd", Width: 512, Lat: 4, Uops: two(fpMul)},
		{Mnemonic: "vdivpd", Width: 512, Lat: 13, Uops: cyc(div, 10)},
		{Mnemonic: "vxorpd", Width: 512, Lat: 1, Uops: two(fpAll)},

		// Shuffles / lane ops.
		{Mnemonic: "vextractf128", Lat: 4, Uops: one(fpShuf)},
		{Mnemonic: "vextractf64x4", Lat: 4, Uops: one(fpShuf)},
		{Mnemonic: "vpermilpd", Lat: 1, Uops: one(fpShuf)},
		{Mnemonic: "vunpckhpd", Lat: 1, Uops: one(fpShuf)},
		{Mnemonic: "unpckhpd", Lat: 1, Uops: one(fpShuf)},
		{Mnemonic: "vshufpd", Lat: 1, Uops: one(fpShuf)},
		{Mnemonic: "vinsertf128", Lat: 1, Uops: one(fpShuf)},

		// --- scalar FP -------------------------------------------------------------
		{Mnemonic: "vaddsd", Lat: 3, Uops: one(fpAdd), Notes: "Table III: 2/cy, lat 3"},
		{Mnemonic: "vsubsd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vmulsd", Lat: 3, Uops: one(fpMul)},
		{Mnemonic: "vfmadd231sd", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vfmadd213sd", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vfnmadd231sd", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vdivsd", Lat: 13, Uops: cyc(div, 5), Notes: "Table III: 0.2/cy; hardware early-exit modeled in sim"},
		{Mnemonic: "vsqrtsd", Lat: 14, Uops: cyc(div, 4.5)},
		{Mnemonic: "addsd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "subsd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "mulsd", Lat: 3, Uops: one(fpMul)},
		{Mnemonic: "divsd", Lat: 13, Uops: cyc(div, 5)},
		{Mnemonic: "sqrtsd", Lat: 14, Uops: cyc(div, 4.5)},
		{Mnemonic: "vcvtsi2sd", Lat: 7, Uops: one(fpShuf)},
		{Mnemonic: "vcvtsi2sdq", Lat: 7, Uops: one(fpShuf)},
		{Mnemonic: "vucomisd", Lat: 3, Uops: one(p("FP0"))},
		{Mnemonic: "ucomisd", Lat: 3, Uops: one(p("FP0"))},
		{Mnemonic: "vmaxsd", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vminsd", Lat: 3, Uops: one(fpAdd)},

		// --- gather ------------------------------------------------------------------
		// AVX2 form (mask in a ymm register): Table III 1/8 CL/cy,
		// lat 13. One 256-bit gather fetches 4 doubles = half a cache
		// line -> 4 cycles reciprocal throughput.
		{Mnemonic: "vgatherqpd", Sig: "v,m,v", Lat: 13, Uops: []Uop{
			{Ports: p("AGU0", "AGU1"), Cycles: 4, Kind: UopLoad},
			{Ports: p("AGU0", "AGU1"), Cycles: 4, Kind: UopLoad},
			{Ports: fpShuf, Cycles: 1, Kind: UopCompute},
		}},
		{Mnemonic: "vgatherqpd", Sig: "m,v", Lat: 13, Uops: []Uop{
			{Ports: p("AGU0", "AGU1"), Cycles: 4, Kind: UopLoad},
			{Ports: p("AGU0", "AGU1"), Cycles: 4, Kind: UopLoad},
			{Ports: fpShuf, Cycles: 1, Kind: UopCompute},
		}},

		// --- single precision -------------------------------------------------
		{Mnemonic: "vaddps", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vaddps", Width: 512, Lat: 3, Uops: two(fpAdd)},
		{Mnemonic: "vsubps", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vmulps", Lat: 3, Uops: one(fpMul)},
		{Mnemonic: "vmulps", Width: 512, Lat: 3, Uops: two(fpMul)},
		{Mnemonic: "vfmadd231ps", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vfmadd231ps", Width: 512, Lat: 4, Uops: two(fpMul)},
		{Mnemonic: "vdivps", Lat: 10, Uops: cyc(div, 3.5)},
		{Mnemonic: "vaddss", Lat: 3, Uops: one(fpAdd)},
		{Mnemonic: "vmulss", Lat: 3, Uops: one(fpMul)},
		{Mnemonic: "vdivss", Lat: 10, Uops: cyc(div, 3.5)},
		{Mnemonic: "vfmadd231ss", Lat: 4, Uops: one(fpMul)},
		{Mnemonic: "vmovups", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "vmovups", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "vmovups", Sig: "v,v", Lat: 1, Uops: one(fpAll)},

		// --- integer SIMD -----------------------------------------------------
		{Mnemonic: "vpaddq", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpaddq", Width: 512, Lat: 1, Uops: two(fpAll)},
		{Mnemonic: "vpaddd", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpsubq", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpmulld", Lat: 3, Uops: one(fpMul)},
		{Mnemonic: "vpand", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpor", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpxor", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpsllq", Lat: 1, Uops: one(fpShuf)},
		{Mnemonic: "vpsrlq", Lat: 1, Uops: one(fpShuf)},
		{Mnemonic: "vpcmpeqd", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpbroadcastd", Sig: "v,v", Lat: 1, Uops: one(fpShuf)},

		// --- converts / permutes ----------------------------------------------
		{Mnemonic: "vcvtpd2ps", Lat: 6, Uops: one(fpShuf)},
		{Mnemonic: "vcvtps2pd", Lat: 4, Uops: one(fpShuf)},
		{Mnemonic: "vcvtdq2pd", Lat: 4, Uops: one(fpShuf)},
		{Mnemonic: "vcvttpd2dq", Lat: 6, Uops: one(fpShuf)},
		{Mnemonic: "vpermpd", Lat: 4, Uops: one(fpShuf)},
		{Mnemonic: "vperm2f128", Lat: 3, Uops: one(fpShuf)},
		{Mnemonic: "vblendvpd", Lat: 1, Uops: one(fpAll)},
	}
	return m
}
