// Command wabench runs the write-allocate evasion study (paper Fig. 4 and
// Sec. III) for one system or all three, printing the traffic ratio per
// core count, and optionally a SpecI2M threshold sweep (ablation).
//
// Usage:
//
//	wabench [-arch all|goldencove|neoversev2|zen4] [-nt] [-sweep-threshold] [-j N] [-cache-dir DIR]
//
// -j N runs the per-system curves as parallel pipeline jobs (default 1,
// 0 = GOMAXPROCS); output order and bytes are identical at any -j.
// -cache-dir DIR attaches the persistent result store at DIR so WA
// curves survive across runs. Output bytes are identical warm or cold.
// stderr carries the tier accounting in cmd/repro's shapes: the memo
// cache line, the store's warm/cold lookup counts when -cache-dir is
// given, and the compiled-artifact line.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"incore/internal/memsim"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

func main() {
	arch := flag.String("arch", "all", "system: all, "+strings.Join(uarch.Keys(), ", "))
	nt := flag.Bool("nt", false, "use non-temporal stores")
	sweep := flag.Bool("sweep-threshold", false, "SpecI2M threshold ablation (goldencove)")
	workers := flag.Int("j", 1, "pipeline workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (empty = process-local cache only)")
	flag.Parse()
	nw := pipeline.SetDefaultWorkers(*workers)
	if *cacheDir != "" {
		if _, err := pipeline.AttachStore(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "wabench: %v\n", err)
			os.Exit(1)
		}
	}

	if *sweep {
		sweepThreshold()
		return
	}
	keys := []string{"neoversev2", "goldencove", "zen4"}
	if *arch != "all" {
		keys = []string{*arch}
	}
	outputs, err := pipeline.Map(pipeline.Default(), keys, func(key string) (string, error) {
		m, err := uarch.Get(key)
		if err != nil {
			return "", err
		}
		counts := memsim.DefaultCounts(m.CoresPerChip)
		ratios, err := pipeline.WACurve(m, *nt, counts)
		if err != nil {
			return "", err
		}
		label := key
		if *nt {
			label += " (NT stores)"
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s: traffic/stored ratio by active cores\n", label)
		sorted := append([]int(nil), counts...)
		sort.Ints(sorted)
		for _, c := range sorted {
			fmt.Fprintf(&sb, "  %3d cores: %.3f\n", c, ratios[c])
		}
		return sb.String(), nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wabench: %v\n", err)
		os.Exit(1)
	}
	for _, out := range outputs {
		os.Stdout.WriteString(out)
	}
	pipeline.ReportTiers(os.Stderr, "wabench", nw)
}

// sweepThreshold shows how the SpecI2M utilization threshold shapes the
// SPR curve (DESIGN.md ablation #3).
func sweepThreshold() {
	for _, thresh := range []float64{0.4, 0.55, 0.65, 0.8} {
		cfg := memsim.MustConfigFor("goldencove")
		cfg.SpecI2MThreshold = thresh
		cfg.SpecI2MRampEnd = thresh + 0.25
		sys, err := memsim.NewSystem(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("SpecI2M threshold %.2f:\n", thresh)
		for _, c := range []int{4, 13, 26, 39, 52} {
			r, err := sys.RunStoreStream(c, memsim.DefaultStoreLinesPerCore, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wabench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  %3d cores: %.3f\n", c, r.WARatio())
		}
	}
}
