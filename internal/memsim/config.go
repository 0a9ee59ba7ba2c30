package memsim

import (
	"fmt"
	"slices"

	"incore/internal/nodes"
	"incore/internal/uarch"
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

// ConfigFor returns the calibrated memory-system config of a machine
// model. Cores come from m.CoresPerChip and the socket's sustained
// bandwidth from m.Node.MemBWGBs; cache geometry, ccNUMA domains and the
// write-allocate calibration come from the built-in data sheet of the
// system m is keyed as. The WA policy and its parameters encode the
// paper's Sec. III findings:
//
//   - Grace (neoversev2): automatic cache-line claim — the only system
//     that fully evades write-allocates with standard stores;
//   - SPR (goldencove): SpecI2M — converts at most ~25% of RFOs, and
//     only when the memory interface approaches saturation; NT stores
//     keep a ~10% residual RFO share except at very small core counts;
//   - Genoa (zen4): no automatic evasion; NT stores work perfectly.
func ConfigFor(m *uarch.Model) (Config, error) {
	if m.Node == nil {
		return Config{}, fmt.Errorf("memsim: model %q carries no node-level section", m.Key)
	}
	n, err := nodes.Get(m.Key)
	if err != nil {
		return Config{}, fmt.Errorf("memsim: no calibration for %q", m.Key)
	}
	cfg := Config{
		Key:       m.Key,
		Cores:     m.CoresPerChip,
		Domains:   n.CCNUMADomains,
		L1:        CacheConfig{SizeBytes: n.L1Bytes / CacheScale, Ways: 8},
		L2:        CacheConfig{SizeBytes: n.L2Bytes / CacheScale, Ways: 8},
		L3:        CacheConfig{SizeBytes: n.L3Bytes / CacheScale / int64(n.CCNUMADomains), Ways: 16},
		DomainGBs: m.Node.MemBWGBs / float64(n.CCNUMADomains),
	}
	switch m.Key {
	case "neoversev2":
		cfg.Policy = PolicyAutoClaim
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
	}
	if _, err := issueCredit(cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// MustConfigFor returns the config of the built-in model key and panics
// on unknown keys.
func MustConfigFor(key string) Config {
	cfg, err := ConfigFor(uarch.MustGet(key))
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
	slices.Sort(out)
	return slices.Compact(out)
}
