// Package nodes describes what the paper's three test systems (Table I)
// have beyond their machine models: cache sizes, memory configuration,
// ccNUMA domains, and the FMA pipes the achievable peak counts. Names,
// core counts, frequencies, TDP, vendor-counted flops per cycle and
// sustained bandwidth live in the built-in machine files
// (internal/uarch/machines).
package nodes

import "fmt"

// Node describes one test system.
type Node struct {
	// Key matches the uarch model key.
	Key string

	// SIMDBits is the widest ISA vector the FMA pipes count lanes at:
	// 512 on Zen 4, whose model's 256-bit datapath double-pumps it.
	SIMDBits       int
	FMAUnitsPerCyc int // FMA instructions per cycle per core

	// Cache sizes in bytes (L1D/L2 per core, L3 per chip).
	L1Bytes, L2Bytes, L3Bytes int64

	// Memory system.
	MemType       string
	MemGB         int
	MemChannels   int
	MemFreqMTs    float64 // transfers/s per channel (millions)
	MemBusBytes   int     // bytes per channel per transfer
	CCNUMADomains int
}

// TheoreticalBandwidthGBs returns channels x rate x width in GB/s.
func (n *Node) TheoreticalBandwidthGBs() float64 {
	return float64(n.MemChannels) * n.MemFreqMTs * 1e6 * float64(n.MemBusBytes) / 1e9
}

// FMAFlopsPerCycle returns the DP flops per cycle per core of the FMA
// pipes alone (lanes x pipes x 2): the rate the achievable peak counts,
// without the concurrent ADD pipes vendors add to the theoretical one.
func (n *Node) FMAFlopsPerCycle() int {
	return n.SIMDBits / 64 * n.FMAUnitsPerCyc * 2
}

// PeakTFs returns a chip's double-precision peak in TFlop/s for the given
// cores, flops per cycle per core, and clock.
func PeakTFs(cores, flopsPerCycle int, ghz float64) float64 {
	return float64(cores) * float64(flopsPerCycle) * ghz * 1e9 / 1e12
}

// Nodes lists the paper's three systems, Table I.
var Nodes = []Node{
	{
		Key:      "neoversev2",
		SIMDBits: 128, FMAUnitsPerCyc: 4,
		L1Bytes: 64 << 10, L2Bytes: 1 << 20, L3Bytes: 114 << 20,
		MemType: "LPDDR5X", MemGB: 240, MemChannels: 32, MemFreqMTs: 8532 / 4, MemBusBytes: 8, CCNUMADomains: 1,
	},
	{
		Key:      "goldencove",
		SIMDBits: 512, FMAUnitsPerCyc: 2,
		L1Bytes: 48 << 10, L2Bytes: 2 << 20, L3Bytes: 105 << 20,
		MemType: "DDR5", MemGB: 512, MemChannels: 8, MemFreqMTs: 4800, MemBusBytes: 8, CCNUMADomains: 4,
	},
	{
		Key:      "zen4",
		SIMDBits: 512, FMAUnitsPerCyc: 1,
		L1Bytes: 32 << 10, L2Bytes: 1 << 20, L3Bytes: 1152 << 20,
		MemType: "DDR5", MemGB: 384, MemChannels: 12, MemFreqMTs: 4800, MemBusBytes: 8, CCNUMADomains: 1,
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
