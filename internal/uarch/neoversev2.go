package uarch

import (
	"incore/internal/isa"
	"incore/internal/nodes"
)

// NewNeoverseV2 builds the machine model for the Arm Neoverse V2 core as
// shipped in the Nvidia Grace CPU Superchip. Port topology after Arm's
// Software Optimization Guide (compare paper Fig. 1): 17 ports total —
// 2 branch (B0/B1), 4 single-cycle integer (I0..I3), 2 multi-cycle integer
// (M0/M1), 4 FP/SIMD (V0..V3), 3 load (L0..L2), 2 store (S0/S1).
// SVE vector length is 128 bits, so NEON and SVE forms have identical
// element throughput.
func NewNeoverseV2() *Model {
	tbl := nodes.MustGet("neoversev2")
	m := &Model{
		Key:     "neoversev2",
		Name:    tbl.Uarch,
		CPU:     tbl.Name,
		Vendor:  "Nvidia/Arm",
		Dialect: isa.DialectAArch64,
		Ports: []string{
			"B0", "B1",
			"I0", "I1", "I2", "I3",
			"M0", "M1",
			"V0", "V1", "V2", "V3",
			"L0", "L1", "L2",
			"S0", "S1",
		},

		IssueWidth:  8,
		DecodeWidth: 8,
		RetireWidth: 8,
		ROBSize:     320,
		SchedSize:   120,
		PhysVecRegs: 260,
		PhysGPRegs:  220,

		LoadLat:        4,
		LoadWidthBits:  128,
		StoreWidthBits: 128,

		VecWidth:      128,
		CoresPerChip:  tbl.Cores,
		BaseFreqGHz:   tbl.BaseFreqGHz,
		MaxFreqGHz:    tbl.MaxFreqGHz,
		FPVectorUnits: 4,
		IntUnits:      6,
	}

	// Node-level calibration (machine-file "node" section); see the
	// Golden Cove definition for provenance.
	m.Node = &NodeParams{
		MemBWGBs:      tbl.TheoreticalBandwidthGBs() * tbl.StreamEfficiency,
		FlopsPerCycle: tbl.FlopsPerCycle(),
		// Arm-style: transfers overlap with each other except the
		// memory level.
		ECM: &ECMParams{
			L1L2BytesPerCycle: 32, L2L3BytesPerCycle: 32,
			OverlapL1L2: true, OverlapL2L3: true,
		},
		// Grace CPU Superchip: no frequency fixing available, but the
		// chip sustains its 3.4 GHz base for any ISA mix on all 72
		// cores — the power budget never binds.
		Freq: &FreqParams{
			TDPWatts: tbl.TDPWatts, UncoreWatts: 50, StaticWattsPerCore: 0.2,
			MinFreqGHz: 1.0,
			ActivityFactor: map[string]float64{
				"scalar": 0.06, "neon": 0.06, "sve": 0.06,
			},
			MaxFreqGHz: map[string]float64{
				"scalar": 3.4, "neon": 3.4, "sve": 3.4,
			},
			WidestVectorExt: "sve",
		},
	}

	p := m.PortsByName
	branch := p("B0", "B1")
	intAll := p("I0", "I1", "I2", "I3", "M0", "M1")
	intMulti := p("M0", "M1")
	vAll := p("V0", "V1", "V2", "V3")
	vDiv := p("V0")
	vShuf := p("V0", "V1")
	loads := p("L0", "L1", "L2")
	stores := p("S0", "S1")
	m.LoadPorts = loads
	m.StoreAGUPorts = stores
	m.StoreDataPorts = stores

	one := func(mask PortMask) []Uop { return []Uop{{Ports: mask, Cycles: 1, Kind: UopCompute}} }
	cyc := func(mask PortMask, c float64) []Uop { return []Uop{{Ports: mask, Cycles: c, Kind: UopCompute}} }
	ld1 := []Uop{{Ports: loads, Cycles: 1, Kind: UopLoad}}
	ld2 := []Uop{{Ports: loads, Cycles: 1, Kind: UopLoad}, {Ports: loads, Cycles: 1, Kind: UopLoad}}
	st1 := []Uop{{Ports: stores, Cycles: 1, Kind: UopStoreData}}
	st2 := []Uop{{Ports: stores, Cycles: 1, Kind: UopStoreData}, {Ports: stores, Cycles: 1, Kind: UopStoreData}}

	m.Entries = []Entry{
		// --- scalar integer --------------------------------------------------
		// The 6 integer ports (4 single-cycle + 2 multi-cycle) fully
		// decouple address arithmetic from FP work (paper Table II:
		// "Int units 6").
		{Mnemonic: "mov", Sig: "r,r", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "mov", Sig: "r,i", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "movz", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "movk", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "add", Sig: "r,r,r", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "add", Sig: "r,r,i", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "sub", Sig: "r,r,r", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "sub", Sig: "r,r,i", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "adds", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "subs", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "and", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "orr", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "eor", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "lsl", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "lsr", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "asr", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "cmp", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "cmn", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "tst", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "mul", Lat: 2, Uops: one(intMulti)},
		{Mnemonic: "madd", Lat: 2, Uops: one(intMulti)},
		{Mnemonic: "msub", Lat: 2, Uops: one(intMulti)},
		{Mnemonic: "adrp", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "adr", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "nop", Lat: 0, Uops: []Uop{}},

		// --- branches ---------------------------------------------------------
		{Mnemonic: "b", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.ne", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.eq", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.lt", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.le", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.gt", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.ge", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.cc", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.first", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "b.any", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "cbz", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "cbnz", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},
		{Mnemonic: "ret", Lat: 0, Uops: []Uop{{Ports: branch, Cycles: 1, Kind: UopBranch}}},

		// --- loads ------------------------------------------------------------
		// Entry latencies are load-to-use inclusive; LookupEff does not add
		// Model.LoadLat for AArch64 forms.
		{Mnemonic: "ldr", Lat: 4, Uops: ld1},
		{Mnemonic: "ldur", Lat: 4, Uops: ld1},
		{Mnemonic: "ldp", Lat: 4, Uops: ld2, Notes: "two 64/128-bit destinations, two load µ-ops"},
		{Mnemonic: "ld1", Lat: 4, Uops: ld1},
		{Mnemonic: "ld1rd", Lat: 6, Uops: ld1, Notes: "load + broadcast"},
		// SVE contiguous load; SVE memory latency is 6 on V2.
		{Mnemonic: "ld1d", Sig: "v,p,m", Lat: 6, Uops: ld1},

		// SVE gather (mem operand carries a vector index): Table III
		// 1/4 CL/cy, lat 9. A 128-bit gather fetches 2 doubles; two
		// 1.5-cycle load µ-ops over three load ports yield 1 instr/cy.
		{Mnemonic: "ld1d@gather", Sig: "v,p,m", Lat: 9, Uops: []Uop{
			{Ports: loads, Cycles: 1.5, Kind: UopLoad},
			{Ports: loads, Cycles: 1.5, Kind: UopLoad},
		}, Notes: "gather form; selected when the address index is a vector register"},

		// --- stores -----------------------------------------------------------
		{Mnemonic: "str", Lat: 0, Uops: st1},
		{Mnemonic: "stur", Lat: 0, Uops: st1},
		{Mnemonic: "stp", Lat: 0, Uops: st2},
		{Mnemonic: "stnp", Lat: 0, Uops: st1, Notes: "non-temporal pair hint"},
		{Mnemonic: "st1", Lat: 0, Uops: st1},
		{Mnemonic: "st1d", Lat: 0, Uops: st1},

		// --- NEON FP (128-bit, .2d) -------------------------------------------
		// All four V ports execute FADD/FMUL/FMLA: 4 instr/cy x 2 lanes
		// = 8 DP elem/cy (Table III), and 4 scalar instr/cy.
		{Mnemonic: "fadd", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "fsub", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "fmul", Lat: 3, Uops: one(vAll)},
		{Mnemonic: "fmla", Lat: 4, Uops: one(vAll)},
		{Mnemonic: "fmls", Lat: 4, Uops: one(vAll)},
		{Mnemonic: "fmadd", Lat: 4, Uops: one(vAll)},
		{Mnemonic: "fmsub", Lat: 4, Uops: one(vAll)},
		{Mnemonic: "fnmadd", Lat: 4, Uops: one(vAll)},
		{Mnemonic: "fnmsub", Lat: 4, Uops: one(vAll)},
		{Mnemonic: "fneg", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "fabs", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "fmax", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "fmin", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "faddp", Lat: 3, Uops: one(vShuf)},
		{Mnemonic: "fmaxp", Lat: 3, Uops: one(vShuf)},
		{Mnemonic: "faddv", Lat: 5, Uops: []Uop{{Ports: vShuf, Cycles: 1}, {Ports: vAll, Cycles: 1}}},
		{Mnemonic: "fadda", Lat: 4, Uops: cyc(vDiv, 4), Notes: "SVE strictly-ordered reduction: serial"},

		// Divide/sqrt: one iterative unit behind V0.
		// Vector: 0.4 elem/cy = 2 elem per 5 cycles, lat 5 (Table III).
		// Scalar: 0.4 instr/cy = 2.5 cycles reciprocal, lat 12.
		{Mnemonic: "fdiv", Sig: "v,v,v", Width: 128, Lat: 5, Uops: cyc(vDiv, 5)},
		{Mnemonic: "fdiv", Lat: 12, Uops: cyc(vDiv, 2.5)},
		// SVE predicated (reverse) divide, same iterative unit.
		{Mnemonic: "fdivr", Sig: "v,p,v,v", Width: 128, Lat: 5, Uops: cyc(vDiv, 5)},
		{Mnemonic: "fdiv", Sig: "v,p,v,v", Width: 128, Lat: 5, Uops: cyc(vDiv, 5)},
		{Mnemonic: "fsqrt", Sig: "v,v", Width: 128, Lat: 9, Uops: cyc(vDiv, 5)},
		{Mnemonic: "fsqrt", Lat: 13, Uops: cyc(vDiv, 3)},

		// --- moves / converts ---------------------------------------------------
		{Mnemonic: "fmov", Sig: "v,i", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "fmov", Sig: "v,r", Lat: 3, Uops: one(p("M0"))},
		{Mnemonic: "fmov", Sig: "r,v", Lat: 2, Uops: one(p("V1"))},
		{Mnemonic: "fmov", Sig: "v,v", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "dup", Lat: 3, Uops: one(p("M0"))},
		{Mnemonic: "scvtf", Lat: 3, Uops: one(vAll)},
		{Mnemonic: "fcvt", Lat: 3, Uops: one(vAll)},
		{Mnemonic: "fcmp", Lat: 2, Uops: one(p("V0"))},

		// --- SVE housekeeping ---------------------------------------------------
		{Mnemonic: "ptrue", Lat: 2, Uops: one(p("M0"))},
		{Mnemonic: "pfalse", Lat: 2, Uops: one(p("M0"))},
		{Mnemonic: "whilelo", Lat: 2, Uops: one(p("M0", "M1"))},
		{Mnemonic: "whilelt", Lat: 2, Uops: one(p("M0", "M1"))},
		{Mnemonic: "incd", Lat: 2, Uops: one(intMulti)},
		{Mnemonic: "incw", Lat: 2, Uops: one(intMulti)},
		{Mnemonic: "cntd", Lat: 2, Uops: one(intMulti)},
		{Mnemonic: "cntw", Lat: 2, Uops: one(intMulti)},
		{Mnemonic: "index", Lat: 4, Uops: one(vShuf)},

		// --- vector integer (NEON/SVE; "v,v,v" forms run on the V pipes,
		// unlike their GPR counterparts above) ---------------------------------
		{Mnemonic: "add", Sig: "v,v,v", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "sub", Sig: "v,v,v", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "mul", Sig: "v,v,v", Lat: 4, Uops: one(vShuf)},
		{Mnemonic: "and", Sig: "v,v,v", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "orr", Sig: "v,v,v", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "eor", Sig: "v,v,v", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "shl", Lat: 2, Uops: one(p("V1", "V3"))},
		{Mnemonic: "sshr", Lat: 2, Uops: one(p("V1", "V3"))},
		{Mnemonic: "cmeq", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "cmgt", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "bsl", Lat: 2, Uops: one(vAll)},
		{Mnemonic: "rev64", Lat: 2, Uops: one(vShuf)},
		{Mnemonic: "zip1", Lat: 2, Uops: one(vShuf)},
		{Mnemonic: "uzp1", Lat: 2, Uops: one(vShuf)},
		{Mnemonic: "trn1", Lat: 2, Uops: one(vShuf)},
		{Mnemonic: "tbl", Lat: 2, Uops: one(vShuf)},

		// --- converts -----------------------------------------------------------
		{Mnemonic: "fcvtzs", Lat: 3, Uops: one(vAll)},
		{Mnemonic: "ucvtf", Lat: 3, Uops: one(vAll)},
		{Mnemonic: "fcvtn", Lat: 3, Uops: one(vShuf)},
		{Mnemonic: "fcvtl", Lat: 3, Uops: one(vShuf)},

		// --- scalar integer division and selects --------------------------------
		{Mnemonic: "udiv", Lat: 12, Uops: cyc(p("M0"), 11)},
		{Mnemonic: "sdiv", Lat: 12, Uops: cyc(p("M0"), 11)},
		{Mnemonic: "csel", Lat: 1, Uops: one(intAll)},
		{Mnemonic: "csinc", Lat: 1, Uops: one(intAll)},
	}
	return m
}
