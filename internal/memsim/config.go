package memsim

import (
	"fmt"

	"incore/internal/nodes"
)

// CacheScale divides the real cache sizes in the default configs so the
// simulator's memory footprint stays small. The benchmark working sets
// are scaled by the same factor (the paper uses a 40 GB set; we keep
// working set >> cache capacity, which is all the traffic ratios depend
// on).
const CacheScale = 256

// DefaultStoreLinesPerCore is the per-core working-set size for the
// store benchmark in cache lines (1 MiB per core at 64 B lines — two
// orders of magnitude above the scaled cache capacity).
const DefaultStoreLinesPerCore = 16384

// ConfigFor returns the calibrated memory-system config for one of the
// paper's nodes. The WA policy and its parameters encode the paper's
// Sec. III findings:
//
//   - Grace (neoversev2): automatic cache-line claim — the only system
//     that fully evades write-allocates with standard stores;
//   - SPR (goldencove): SpecI2M — converts at most ~25% of RFOs, and
//     only when the memory interface approaches saturation; NT stores
//     keep a ~10% residual RFO share except at very small core counts;
//   - Genoa (zen4): no automatic evasion; NT stores work perfectly.
func ConfigFor(key string) (Config, error) {
	n, err := nodes.Get(key)
	if err != nil {
		return Config{}, err
	}
	measuredGBs := n.TheoreticalBandwidthGBs() * n.StreamEfficiency
	cfg := Config{
		Key:     key,
		Cores:   n.Cores,
		Domains: n.CCNUMADomains,
		L1:      CacheConfig{SizeBytes: n.L1Bytes / CacheScale, Ways: 8, LineBytes: n.CacheLineBytes},
		L2:      CacheConfig{SizeBytes: n.L2Bytes / CacheScale, Ways: 8, LineBytes: n.CacheLineBytes},
		L3: CacheConfig{
			SizeBytes: n.L3Bytes / CacheScale / int64(n.CCNUMADomains),
			Ways:      16, LineBytes: n.CacheLineBytes,
		},
		LineBytes:     n.CacheLineBytes,
		DomainGBs:     measuredGBs / float64(n.CCNUMADomains),
		MLP:           16,
		QueueCapBytes: 1 << 16,
		Placement:     PlacementScatter,
	}
	switch key {
	case "neoversev2":
		cfg.Policy = PolicyAutoClaim
		cfg.DetectorTrainLen = 8
		cfg.CoreGBs = 8
	case "goldencove":
		cfg.Policy = PolicySpecI2M
		cfg.SpecI2MThreshold = 0.65
		cfg.SpecI2MRampEnd = 0.90
		cfg.SpecI2MMaxShare = 0.25
		cfg.NTResidualRFO = 0.10
		cfg.NTResidualMinCores = 4
		cfg.CoreGBs = 5
	case "zen4":
		cfg.Policy = PolicyAlwaysAllocate
		cfg.CoreGBs = 5.5
	default:
		return Config{}, fmt.Errorf("memsim: no calibration for %q", key)
	}
	return cfg, nil
}

// MustConfigFor panics on unknown keys.
func MustConfigFor(key string) Config {
	cfg, err := ConfigFor(key)
	if err != nil {
		panic(err)
	}
	return cfg
}

// DefaultCounts returns a sensible sweep of core counts for a node.
func DefaultCounts(cores int) []int {
	var out []int
	for n := 1; n < cores; n *= 2 {
		out = append(out, n)
	}
	// Denser sampling in the upper half, where SpecI2M engages.
	for _, f := range []float64{0.375, 0.5, 0.625, 0.75, 0.875} {
		n := int(f * float64(cores))
		if n >= 1 {
			out = append(out, n)
		}
	}
	out = append(out, cores)
	seen := map[int]bool{}
	var uniq []int
	for _, n := range out {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	// Insertion sort (tiny slice).
	for i := 1; i < len(uniq); i++ {
		for j := i; j > 0 && uniq[j] < uniq[j-1]; j-- {
			uniq[j], uniq[j-1] = uniq[j-1], uniq[j]
		}
	}
	return uniq
}
