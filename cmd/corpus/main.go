// Command corpus batch-analyzes real-world assembly listings — compiler
// output from `gcc -S`, `go build -gcflags=-S`, or hand-written kernels —
// against one machine model, with per-block coverage accounting.
//
// Each input file is ingested through internal/corpus: explicit
// OSACA/LLVM-MCA/IACA markers win; otherwise every innermost
// backward-branch loop becomes a block; a file with neither is analyzed
// whole. Unknown mnemonics degrade to conservative descriptors and are
// counted, not fatal.
//
// Usage:
//
//	corpus -arch goldencove|neoversev2|zen4 [-machine FILE] [-machine-dir DIR]
//	       [-min-coverage F] [-format text|json] [-cache-dir DIR] [-j N] file.s ...
//
// The exit status is the CI contract: nonzero when any block fails to
// parse or analyze, or when aggregate coverage falls below -min-coverage.
//
// Example:
//
//	gcc -S -O3 kernel.c -o kernel.s
//	corpus -arch zen4 -min-coverage 0.9 kernel.s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"incore/internal/corpus"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

func main() {
	arch := flag.String("arch", "goldencove", "machine model: "+strings.Join(uarch.Keys(), ", "))
	machineFile := flag.String("machine", "", "analyze against this JSON machine file instead of a registered model")
	machineDir := flag.String("machine-dir", "", "load every *.json machine file in this directory, for this run only, before resolving -arch")
	minCoverage := flag.Float64("min-coverage", 0, "fail (exit 1) when aggregate covered fraction falls below this floor in [0,1]")
	format := flag.String("format", "text", "output format: text or json")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (warm runs skip recomputation)")
	workers := flag.Int("j", 0, "analysis workers (0 = GOMAXPROCS)")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: corpus -arch <model> [-min-coverage F] <file.s> ...")
		os.Exit(2)
	}
	// -arch has a default: only an explicit -arch can contradict -machine.
	archSet := false
	flag.Visit(func(f *flag.Flag) { archSet = archSet || f.Name == "arch" })
	m, err := uarch.Resolve(*machineDir, *machineFile, *arch, archSet)
	if err != nil {
		fatal(err)
	}
	pipeline.SetDefaultWorkers(*workers)
	if *cacheDir != "" {
		if _, err := pipeline.AttachStore(*cacheDir); err != nil {
			fatal(err)
		}
	}

	ig := &corpus.Ingester{Model: m}
	// One pipeline map over all files: blocks deduplicate through the
	// shared memo tier exactly like experiment jobs and served requests.
	files, _ := pipeline.Map(pipeline.Default(), flag.Args(), func(path string) (corpus.FileResult, error) {
		return ig.IngestFile(path), nil
	})
	sum := corpus.Summarize(files)

	switch *format {
	case "json":
		out := struct {
			Arch    string              `json:"arch"`
			Files   []corpus.FileResult `json:"files"`
			Summary corpus.Summary      `json:"summary"`
		}{Arch: m.Key, Files: files, Summary: sum}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	case "text":
		printText(files, sum)
	default:
		fatal(fmt.Errorf("unknown -format %q (want text or json)", *format))
	}

	if sum.Failures > 0 {
		fmt.Fprintf(os.Stderr, "corpus: %d of %d blocks failed\n", sum.Failures, sum.Blocks)
		os.Exit(1)
	}
	if sum.Fraction() < *minCoverage {
		fmt.Fprintf(os.Stderr, "corpus: aggregate coverage %.1f%% below floor %.1f%%\n",
			100*sum.Fraction(), 100**minCoverage)
		os.Exit(1)
	}
}

func printText(files []corpus.FileResult, sum corpus.Summary) {
	for _, f := range files {
		for _, b := range f.Blocks {
			if b.Err != nil {
				fmt.Printf("%-44s FAIL  %v\n", b.Name, b.Err)
				continue
			}
			c := b.Coverage
			line := fmt.Sprintf("%-44s %4d instrs  cov %5.1f%% (%d/%d/%d)  %7.2f cy/it [%s]",
				b.Name, b.Instrs, 100*c.Fraction(), c.Exact, c.Fallback, c.Unknown, b.Prediction, b.Bound)
			if len(c.UnknownMnemonics) > 0 {
				line += "  unknown: " + strings.Join(c.UnknownMnemonics, ",")
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("%d files, %d blocks, %d failures; aggregate coverage %.1f%% over %d instrs (%d exact, %d fallback, %d unknown)\n",
		sum.Files, sum.Blocks, sum.Failures, 100*sum.Fraction(),
		sum.Coverage.Total(), sum.Coverage.Exact, sum.Coverage.Fallback, sum.Coverage.Unknown)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "corpus: %v\n", err)
	os.Exit(1)
}
