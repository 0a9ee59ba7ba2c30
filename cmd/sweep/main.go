// Command sweep runs a design-space sweep: a base machine model, a set
// of parameter axes, and the base model's kernel validation suite (or
// an explicit assembly file) expanded into the full cross-product of
// variant models, each analyzed through the shared pipeline caches, and
// reduced to Pareto fronts (predicted cycles vs. hardware cost, and
// sustained GF/s vs. TDP when the model carries a frequency governor).
//
// Usage:
//
//	sweep -arch zen4 -axis tdp_watts=200,240,280 -axis mem_bandwidth_gbs=60,90,120
//	      [-machine FILE] [-asm FILE] [-j N] [-cache-dir DIR] [-format text|json]
//	      [-max-variants N]
//
// Variant identity follows the two-key contract (DESIGN.md "Design-space
// exploration"): results are cached under each variant's full CacheKey
// (key@fingerprint — warm-resumable across runs via -cache-dir, never
// colliding with the built-ins), while compiled artifacts are shared
// between variants with equal port signatures — so a node-parameter
// sweep parses each block and compiles each skeleton exactly once no
// matter how many variants it runs.
//
// Output on stdout is byte-identical for the same inputs at any -j;
// stderr carries the cache accounting (same shape as cmd/repro), which
// CI uses to gate the sharing contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"incore/internal/pipeline"
	"incore/internal/sweep"
	"incore/internal/uarch"
)

func main() {
	arch := flag.String("arch", "", "base machine model key (built-in or registered)")
	machine := flag.String("machine", "", "base machine model from this JSON machine file instead of -arch")
	asmFile := flag.String("asm", "", "sweep this assembly file instead of the kernel validation suite generated for the base model")
	workers := flag.Int("j", 1, "pipeline workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (empty = process-local cache only)")
	format := flag.String("format", "text", "output format: text or json")
	maxVariants := flag.Int("max-variants", 4096, "refuse cross-products larger than this (0 = unlimited)")
	var axes []sweep.Axis
	flag.Func("axis", "swept parameter as name=v1,v2,... (repeatable; see -list-params)", func(s string) error {
		ax, err := parseAxis(s)
		if err != nil {
			return err
		}
		axes = append(axes, ax)
		return nil
	})
	listParams := flag.Bool("list-params", false, "list sweepable parameters and exit")
	flag.Parse()

	if *listParams {
		for _, p := range sweep.Params() {
			fmt.Println(p)
		}
		return
	}
	if len(axes) == 0 {
		fail("at least one -axis is required")
	}

	var base *uarch.Model
	var err error
	switch {
	case *machine != "" && *arch != "":
		fail("-arch and -machine are mutually exclusive")
	case *machine != "":
		base, err = uarch.ReadFile(*machine, "")
		if err != nil {
			fail("%v", err)
		}
	case *arch != "":
		base, err = uarch.Get(*arch)
		if err != nil {
			fail("%v", err)
		}
	default:
		fail("one of -arch or -machine is required")
	}

	nw := pipeline.SetDefaultWorkers(*workers)
	if *cacheDir != "" {
		st, err := pipeline.AttachStore(*cacheDir)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "sweep: store attached at %s (schema %d)\n", st.Dir(), pipeline.StoreSchema())
	}

	var blocks []sweep.Block
	if *asmFile != "" {
		data, err := os.ReadFile(*asmFile)
		if err != nil {
			fail("%v", err)
		}
		b, err := pipeline.ParseRequestBlock(*asmFile, base.Key, base.Dialect, string(data))
		if err != nil {
			fail("%s: %v", *asmFile, err)
		}
		blocks = []sweep.Block{{Name: *asmFile, B: b}}
	} else {
		blocks, err = sweep.BlocksFor(base)
		if err != nil {
			fail("%v", err)
		}
	}

	res, err := sweep.Run(base, axes, blocks, sweep.Options{MaxVariants: *maxVariants})
	if err != nil {
		fail("%v", err)
	}

	switch *format {
	case "text":
		os.Stdout.WriteString(res.Render())
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail("%v", err)
		}
	default:
		fail("unknown format %q", *format)
	}

	// Accounting on stderr, in cmd/repro's shapes plus the sweep-level
	// sharing observables — CI greps these to gate the contract.
	pipeline.ReportTiers(os.Stderr, "sweep", nw)
	cs := pipeline.CompiledArtifacts().Stats()
	fmt.Fprintf(os.Stderr, "sweep: %d variants / %d distinct port signatures over %d blocks (%d parsed), cells %d warm / %d cold, %d analyzed\n",
		len(res.Variants), res.DistinctSignatures, len(res.Blocks), cs.Blocks, res.Warm, res.Cold, res.Analyzed)
}

// parseAxis parses one -axis flag value: name=v1,v2,...
func parseAxis(s string) (sweep.Axis, error) {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || name == "" || vals == "" {
		return sweep.Axis{}, fmt.Errorf("axis %q: want name=v1,v2,...", s)
	}
	ax := sweep.Axis{Param: name}
	for _, f := range strings.Split(vals, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return sweep.Axis{}, fmt.Errorf("axis %q: bad value %q", name, f)
		}
		ax.Values = append(ax.Values, v)
	}
	sort.Float64s(ax.Values)
	return ax, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	os.Exit(1)
}
