package uarch

import (
	"incore/internal/isa"
	"incore/internal/nodes"
)

// NewGoldenCove builds the machine model for Intel Golden Cove as shipped
// in the Xeon Platinum 8470 (Sapphire Rapids). Port topology after the
// Intel optimization manual and uops.info; simplifications:
//
//   - 512-bit FP operations execute on ports 0 and 5 (port 0 stands for
//     the fused 0+1 pair), 256-bit adds on 1/5, 256-bit mul/FMA on 0/1;
//   - macro-fusion of cmp+jcc is not modeled;
//   - load ports 2/3 carry 512-bit accesses, port 11 handles accesses up
//     to 256 bits.
func NewGoldenCove() *Model {
	// Table I facts (names, cores, frequencies, TDP) are read from nodes.
	tbl := nodes.MustGet("goldencove")
	m := &Model{
		Key:     "goldencove",
		Name:    tbl.Uarch,
		CPU:     tbl.Name,
		Vendor:  "Intel",
		Dialect: isa.DialectX86,
		Ports:   []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"},

		IssueWidth:  6,
		DecodeWidth: 6,
		RetireWidth: 8,
		ROBSize:     512,
		SchedSize:   160,
		PhysVecRegs: 332,
		PhysGPRegs:  280,

		LoadLat:        7,
		LoadWidthBits:  512,
		StoreWidthBits: 256,

		VecWidth:      512,
		CoresPerChip:  tbl.Cores,
		BaseFreqGHz:   tbl.BaseFreqGHz,
		MaxFreqGHz:    tbl.MaxFreqGHz,
		FPVectorUnits: 3,
		IntUnits:      5,
	}

	// Node-level calibration (machine-file "node" section): sustained
	// bandwidth and vendor-counted flops derive from the Table I system
	// description; the ECM transfer chain and the frequency governor
	// carry the values the ecm/freq packages used to hardcode.
	m.Node = &NodeParams{
		MemBWGBs:      tbl.TheoreticalBandwidthGBs() * tbl.StreamEfficiency,
		FlopsPerCycle: tbl.FlopsPerCycle(),
		// Classic Intel ECM: fully non-overlapping transfer chain.
		ECM: &ECMParams{L1L2BytesPerCycle: 64, L2L3BytesPerCycle: 16},
		// Xeon Platinum 8470: single-core turbo 3.8 GHz; AVX-512
		// license caps at 3.5 GHz and decays to 2.0 GHz at 52 cores;
		// SSE/AVX decay to 3.0 GHz (Fig. 2).
		Freq: &FreqParams{
			TDPWatts: tbl.TDPWatts, UncoreWatts: 90, StaticWattsPerCore: 0.5,
			MinFreqGHz: 0.8,
			ActivityFactor: map[string]float64{
				"scalar": 0.155, "sse": 0.1667, "avx": 0.1667,
				"avx512": 0.5625,
			},
			MaxFreqGHz: map[string]float64{
				"scalar": 3.8, "sse": 3.8, "avx": 3.8, "avx512": 3.5,
			},
			WidestVectorExt: "avx512",
		},
	}

	p := m.PortsByName
	intALU := p("0", "1", "5", "6", "10")
	fpAdd256 := p("1", "5")
	fpMul256 := p("0", "1")
	fp512 := p("0", "5")
	fpAll := p("0", "1", "5")
	shuffle := p("1", "5")
	branch := p("6")
	div := p("0")

	m.LoadPorts = p("2", "3", "11")
	m.WideLoadPorts = p("2", "3")
	m.WideLoadBits = 512
	m.StoreAGUPorts = p("7", "8")
	m.StoreDataPorts = p("4", "9")

	one := func(mask PortMask) []Uop { return []Uop{{Ports: mask, Cycles: 1, Kind: UopCompute}} }
	cyc := func(mask PortMask, c float64) []Uop { return []Uop{{Ports: mask, Cycles: c, Kind: UopCompute}} }
	none := []Uop{} // pure memory ops: µ-ops synthesised by folding

	m.Entries = []Entry{
		// --- scalar integer -------------------------------------------------
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
		{Mnemonic: "shl", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "shlq", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "shr", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "shrq", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "sal", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "salq", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "sar", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "sarq", Lat: 1, Uops: one(p("0", "6"))},
		{Mnemonic: "imul", Lat: 3, Uops: one(p("1"))},
		{Mnemonic: "imulq", Lat: 3, Uops: one(p("1"))},
		{Mnemonic: "lea", Lat: 1, Uops: one(p("1", "5"))},
		{Mnemonic: "leaq", Lat: 1, Uops: one(p("1", "5"))},
		{Mnemonic: "cmp", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "cmpq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "cmpl", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "test", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "testq", Lat: 1, Uops: one(intALU)},
		{Mnemonic: "nop", Lat: 0, Uops: none},

		// --- branches --------------------------------------------------------
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

		// --- SIMD moves (memory forms folded automatically) ------------------
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
		{Mnemonic: "vmovntpd", Lat: 0, Uops: none, Notes: "NT store; WC buffer modeled in memsim"},
		{Mnemonic: "movntpd", Lat: 0, Uops: none},
		{Mnemonic: "vbroadcastsd", Sig: "m,v", Lat: 0, Uops: none, Notes: "broadcast folded into load"},
		{Mnemonic: "vbroadcastsd", Sig: "v,v", Lat: 3, Uops: one(p("5"))},

		// --- packed FP arithmetic --------------------------------------------
		// 512-bit forms: two native 512-bit units behind ports 0 and 5.
		{Mnemonic: "vaddpd", Width: 512, Lat: 2, Uops: one(fp512)},
		{Mnemonic: "vsubpd", Width: 512, Lat: 2, Uops: one(fp512)},
		{Mnemonic: "vmulpd", Width: 512, Lat: 4, Uops: one(fp512)},
		{Mnemonic: "vfmadd231pd", Width: 512, Lat: 4, Uops: one(fp512)},
		{Mnemonic: "vfmadd213pd", Width: 512, Lat: 4, Uops: one(fp512)},
		{Mnemonic: "vfmadd132pd", Width: 512, Lat: 4, Uops: one(fp512)},
		{Mnemonic: "vfnmadd231pd", Width: 512, Lat: 4, Uops: one(fp512)},
		{Mnemonic: "vmaxpd", Width: 512, Lat: 2, Uops: one(fp512)},
		{Mnemonic: "vminpd", Width: 512, Lat: 2, Uops: one(fp512)},
		{Mnemonic: "vdivpd", Width: 512, Lat: 14, Uops: cyc(div, 16), Notes: "Table III: 0.5 elem/cy"},
		{Mnemonic: "vsqrtpd", Width: 512, Lat: 19, Uops: cyc(div, 18)},
		{Mnemonic: "vxorpd", Width: 512, Lat: 1, Uops: one(fp512)},

		// 256-bit and 128-bit forms.
		{Mnemonic: "vaddpd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vsubpd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vmulpd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vfmadd231pd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vfmadd213pd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vfmadd132pd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vfnmadd231pd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vmaxpd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vminpd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vdivpd", Width: 256, Lat: 14, Uops: cyc(div, 10)},
		{Mnemonic: "vdivpd", Lat: 14, Uops: cyc(div, 8)},
		{Mnemonic: "vsqrtpd", Lat: 18, Uops: cyc(div, 9)},
		{Mnemonic: "vxorpd", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "addpd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "subpd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "mulpd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "divpd", Lat: 14, Uops: cyc(div, 8)},

		// Shuffles / lane ops used by reductions.
		{Mnemonic: "vextractf128", Lat: 3, Uops: one(p("5"))},
		{Mnemonic: "vextractf64x4", Lat: 3, Uops: one(p("5"))},
		{Mnemonic: "vpermilpd", Lat: 1, Uops: one(shuffle)},
		{Mnemonic: "vunpckhpd", Lat: 1, Uops: one(shuffle)},
		{Mnemonic: "unpckhpd", Lat: 1, Uops: one(shuffle)},
		{Mnemonic: "vshufpd", Lat: 1, Uops: one(shuffle)},
		{Mnemonic: "vinsertf128", Lat: 3, Uops: one(p("5"))},

		// --- scalar FP --------------------------------------------------------
		{Mnemonic: "vaddsd", Lat: 2, Uops: one(fpAdd256), Notes: "Table III: 2/cy, lat 2 (halved vs Ice Lake)"},
		{Mnemonic: "vsubsd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vmulsd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vfmadd231sd", Lat: 5, Uops: one(fpMul256), Notes: "Table III scalar FMA lat 5"},
		{Mnemonic: "vfmadd213sd", Lat: 5, Uops: one(fpMul256)},
		{Mnemonic: "vfnmadd231sd", Lat: 5, Uops: one(fpMul256)},
		{Mnemonic: "vdivsd", Lat: 14, Uops: cyc(div, 4), Notes: "Table III: 0.25/cy"},
		{Mnemonic: "vsqrtsd", Lat: 18, Uops: cyc(div, 4.5)},
		{Mnemonic: "addsd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "subsd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "mulsd", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "divsd", Lat: 14, Uops: cyc(div, 4)},
		{Mnemonic: "sqrtsd", Lat: 18, Uops: cyc(div, 4.5)},
		{Mnemonic: "vcvtsi2sd", Lat: 7, Uops: []Uop{{Ports: p("0", "1"), Cycles: 1}, {Ports: p("5"), Cycles: 1}}},
		{Mnemonic: "vcvtsi2sdq", Lat: 7, Uops: []Uop{{Ports: p("0", "1"), Cycles: 1}, {Ports: p("5"), Cycles: 1}}},
		{Mnemonic: "vucomisd", Lat: 3, Uops: one(p("0"))},
		{Mnemonic: "ucomisd", Lat: 3, Uops: one(p("0"))},
		{Mnemonic: "vmaxsd", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vminsd", Lat: 2, Uops: one(fpAdd256)},

		// --- gather -----------------------------------------------------------
		// AVX-512 form: vgatherqpd (mem), %zmm {k}: Table III 1/3 CL/cy,
		// lat 20. One 512-bit gather touches a full cache line of
		// doubles; 3 cy/instr via two 3-cycle load µ-ops on ports 2/3.
		{Mnemonic: "vgatherqpd", Sig: "m,v", Width: 512, Lat: 20, Uops: []Uop{
			{Ports: p("2", "3"), Cycles: 3, Kind: UopLoad},
			{Ports: p("2", "3"), Cycles: 3, Kind: UopLoad},
			{Ports: fp512, Cycles: 1, Kind: UopCompute},
		}},
		{Mnemonic: "vgatherqpd", Sig: "v,m,v", Lat: 20, Uops: []Uop{
			{Ports: p("2", "3"), Cycles: 1.5, Kind: UopLoad},
			{Ports: p("2", "3"), Cycles: 1.5, Kind: UopLoad},
			{Ports: fpAll, Cycles: 1, Kind: UopCompute},
		}},

		// --- single precision -------------------------------------------------
		{Mnemonic: "vaddps", Width: 512, Lat: 2, Uops: one(fp512)},
		{Mnemonic: "vaddps", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vsubps", Width: 512, Lat: 2, Uops: one(fp512)},
		{Mnemonic: "vsubps", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vmulps", Width: 512, Lat: 4, Uops: one(fp512)},
		{Mnemonic: "vmulps", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vfmadd231ps", Width: 512, Lat: 4, Uops: one(fp512)},
		{Mnemonic: "vfmadd231ps", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vdivps", Width: 512, Lat: 11, Uops: cyc(div, 10)},
		{Mnemonic: "vdivps", Lat: 11, Uops: cyc(div, 5)},
		{Mnemonic: "vaddss", Lat: 2, Uops: one(fpAdd256)},
		{Mnemonic: "vmulss", Lat: 4, Uops: one(fpMul256)},
		{Mnemonic: "vdivss", Lat: 11, Uops: cyc(div, 3)},
		{Mnemonic: "vfmadd231ss", Lat: 5, Uops: one(fpMul256)},
		{Mnemonic: "vmovups", Sig: "m,v", Lat: 0, Uops: none},
		{Mnemonic: "vmovups", Sig: "v,m", Lat: 0, Uops: none},
		{Mnemonic: "vmovups", Sig: "v,v", Lat: 1, Uops: one(fpAll)},

		// --- integer SIMD -----------------------------------------------------
		{Mnemonic: "vpaddq", Width: 512, Lat: 1, Uops: one(fp512)},
		{Mnemonic: "vpaddq", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpaddd", Width: 512, Lat: 1, Uops: one(fp512)},
		{Mnemonic: "vpaddd", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpsubq", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpmulld", Lat: 10, Uops: []Uop{{Ports: fpMul256, Cycles: 1}, {Ports: fpMul256, Cycles: 1}}},
		{Mnemonic: "vpand", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpor", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpxor", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpsllq", Lat: 1, Uops: one(fpMul256)},
		{Mnemonic: "vpsrlq", Lat: 1, Uops: one(fpMul256)},
		{Mnemonic: "vpcmpeqd", Lat: 1, Uops: one(fpAll)},
		{Mnemonic: "vpbroadcastd", Sig: "v,v", Lat: 3, Uops: one(p("5"))},

		// --- converts / permutes ----------------------------------------------
		{Mnemonic: "vcvtpd2ps", Lat: 5, Uops: []Uop{{Ports: fpMul256, Cycles: 1}, {Ports: p("5"), Cycles: 1}}},
		{Mnemonic: "vcvtps2pd", Lat: 5, Uops: []Uop{{Ports: fpMul256, Cycles: 1}, {Ports: p("5"), Cycles: 1}}},
		{Mnemonic: "vcvtdq2pd", Lat: 5, Uops: []Uop{{Ports: fpMul256, Cycles: 1}, {Ports: p("5"), Cycles: 1}}},
		{Mnemonic: "vcvttpd2dq", Lat: 5, Uops: []Uop{{Ports: fpMul256, Cycles: 1}, {Ports: p("5"), Cycles: 1}}},
		{Mnemonic: "vpermpd", Lat: 3, Uops: one(p("5"))},
		{Mnemonic: "vperm2f128", Lat: 3, Uops: one(p("5"))},
		{Mnemonic: "vblendvpd", Lat: 2, Uops: []Uop{{Ports: fpAll, Cycles: 1}, {Ports: fpAll, Cycles: 1}}},

		// --- AVX-512 mask registers ---------------------------------------------
		{Mnemonic: "kmovw", Lat: 1, Uops: one(p("0"))},
		{Mnemonic: "kandw", Lat: 1, Uops: one(p("0"))},
		{Mnemonic: "korw", Lat: 1, Uops: one(p("0"))},
	}
	return m
}
