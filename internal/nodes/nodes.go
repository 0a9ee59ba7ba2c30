// Package nodes describes the paper's three test systems at node level
// (Table I): socket/core counts, frequencies, cache sizes, memory
// configuration, and derived peak numbers.
package nodes

import "fmt"

// Node describes one test system.
type Node struct {
	// Key matches the uarch model key.
	Key string
	// Marketing and microarchitecture names.
	Name, Uarch, Vendor string

	Cores          int     // per chip
	BaseFreqGHz    float64 // guaranteed sustained
	MaxFreqGHz     float64 // single-core turbo
	SIMDBits       int
	FMAUnitsPerCyc int // FMA instructions per cycle per core
	// ExtraAddFlopsPerCyc counts additional flops/cycle from dedicated
	// FP-ADD pipes that can run concurrently with the FMA pipes (Zen 4:
	// two 256-bit FADD pipes = 8 DP flops/cycle; vendors include these
	// in their theoretical peak).
	ExtraAddFlopsPerCyc int
	TDPWatts            float64

	// Cache sizes in bytes (L1D/L2 per core, L3 per chip).
	L1Bytes, L2Bytes, L3Bytes int64
	CacheLineBytes            int

	// Memory system.
	MemType       string
	MemGB         int
	MemChannels   int
	MemFreqMTs    float64 // transfers/s per channel (millions)
	MemBusBytes   int     // bytes per channel per transfer
	CCNUMADomains int

	// StreamEfficiency is the fraction of theoretical bandwidth the
	// memory subsystem sustains for streaming access (controller,
	// refresh, and page-policy losses); calibrated against Table I.
	StreamEfficiency float64
}

// TheoreticalBandwidthGBs returns channels x rate x width in GB/s.
func (n *Node) TheoreticalBandwidthGBs() float64 {
	return float64(n.MemChannels) * n.MemFreqMTs * 1e6 * float64(n.MemBusBytes) / 1e9
}

// FlopsPerCycle returns DP flops per cycle per core counted the way the
// vendors do (FMA pipes x lanes x 2, plus concurrent ADD pipes).
func (n *Node) FlopsPerCycle() int {
	lanes := n.SIMDBits / 64
	return lanes*n.FMAUnitsPerCyc*2 + n.ExtraAddFlopsPerCyc
}

// TheoreticalPeakTFs returns the chip's theoretical double-precision peak
// in TFlop/s at maximum frequency.
func (n *Node) TheoreticalPeakTFs() float64 {
	return float64(n.Cores) * float64(n.FlopsPerCycle()) * n.MaxFreqGHz * 1e9 / 1e12
}

// AchievablePeakTFs returns the peak at the sustained all-core frequency
// for the widest vector ISA (see internal/freq for the governor model).
func (n *Node) AchievablePeakTFs(sustainedGHz float64) float64 {
	lanes := n.SIMDBits / 64
	return float64(n.Cores) * float64(lanes*n.FMAUnitsPerCyc*2) * sustainedGHz * 1e9 / 1e12
}

// String is a short identifier.
func (n *Node) String() string { return fmt.Sprintf("%s (%s)", n.Name, n.Uarch) }

// Nodes lists the paper's three systems, Table I.
var Nodes = []Node{
	{
		Key: "neoversev2", Name: "Nvidia Grace CPU Superchip", Uarch: "Neoverse V2", Vendor: "Nvidia",
		Cores: 72, BaseFreqGHz: 3.4, MaxFreqGHz: 3.4,
		SIMDBits: 128, FMAUnitsPerCyc: 4, TDPWatts: 250,
		L1Bytes: 64 << 10, L2Bytes: 1 << 20, L3Bytes: 114 << 20, CacheLineBytes: 64,
		MemType: "LPDDR5X", MemGB: 240, MemChannels: 32, MemFreqMTs: 8532 / 4, MemBusBytes: 8, CCNUMADomains: 1,
		StreamEfficiency: 0.855,
	},
	{
		Key: "goldencove", Name: "Intel Xeon Platinum 8470", Uarch: "Golden Cove", Vendor: "Intel",
		Cores: 52, BaseFreqGHz: 2.0, MaxFreqGHz: 3.8,
		SIMDBits: 512, FMAUnitsPerCyc: 2, TDPWatts: 350,
		L1Bytes: 48 << 10, L2Bytes: 2 << 20, L3Bytes: 105 << 20, CacheLineBytes: 64,
		MemType: "DDR5", MemGB: 512, MemChannels: 8, MemFreqMTs: 4800, MemBusBytes: 8, CCNUMADomains: 4,
		// Raw controller efficiency; the ~10% residual NT-store RFO
		// traffic (see memsim) brings the useful triad bandwidth to the
		// paper's 273 GB/s (89% of pin limit).
		StreamEfficiency: 0.92,
	},
	{
		Key: "zen4", Name: "AMD EPYC 9684X", Uarch: "Zen 4", Vendor: "AMD",
		Cores: 96, BaseFreqGHz: 2.55, MaxFreqGHz: 3.7,
		SIMDBits: 512, FMAUnitsPerCyc: 1, ExtraAddFlopsPerCyc: 8, TDPWatts: 400,
		L1Bytes: 32 << 10, L2Bytes: 1 << 20, L3Bytes: 1152 << 20, CacheLineBytes: 64,
		MemType: "DDR5", MemGB: 384, MemChannels: 12, MemFreqMTs: 4800, MemBusBytes: 8, CCNUMADomains: 1,
		StreamEfficiency: 0.781,
	},
}

// Get returns the node for a uarch key.
func Get(key string) (*Node, error) {
	for i := range Nodes {
		if Nodes[i].Key == key {
			return &Nodes[i], nil
		}
	}
	return nil, fmt.Errorf("nodes: unknown node %q", key)
}

// MustGet panics on unknown keys.
func MustGet(key string) *Node {
	n, err := Get(key)
	if err != nil {
		panic(err)
	}
	return n
}
