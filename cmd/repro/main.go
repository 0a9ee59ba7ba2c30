// Command repro regenerates every table and figure of the paper's
// evaluation on the simulation substrate.
//
// Usage:
//
//	repro [-exp all|NAME] [-j N] [-format text|json] [-cache-dir DIR]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// Flags:
//
//	-exp all|NAME
//	    Run one experiment of internal/experiments.All by name (-h lists
//	    them), or all of them in their canonical order, each under a
//	    header line.
//	-j N
//	    Run experiment jobs on N pipeline workers (default 1, the serial
//	    reference path; 0 selects GOMAXPROCS). Output is byte-identical
//	    at any -j: the pipeline collects results in submission order, so
//	    parallelism changes wall-clock time only. With -exp all the
//	    experiments themselves also run concurrently as one job graph.
//	-format text|json
//	    text (default) renders the paper-layout tables and figures.
//	    json emits one object with the rendered output per experiment
//	    plus the pipeline cache accounting.
//	-cache-dir DIR
//	    Attach the persistent content-addressed result store at DIR
//	    (created if needed) under the memo cache, so analyzer, simulator,
//	    and WA-curve results survive across runs. Text-mode output bytes
//	    are identical with or without it, warm or cold; only the stderr
//	    accounting (and wall-clock time) changes. JSON mode embeds the
//	    store accounting in its output object, so there only the
//	    experiments array is run-invariant.
//	-cpuprofile FILE / -memprofile FILE
//	    Write runtime/pprof CPU and allocation profiles, so performance
//	    work on the pipeline can show where cycles and allocations go.
//
// After a text run the process tiers' accounting goes to stderr, one
// line each: the memo cache (hits, misses, entries), the store's
// warm/cold lookup counts when -cache-dir is given, and the
// compiled-artifact tier (cached programs, skeletons and mca schedules,
// hits, attaches, compiles, estimated KiB). stdout carries only the
// artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"incore/internal/experiments"
	"incore/internal/pipeline"
	"incore/internal/profiling"
	"incore/internal/store"
)

// stopProfiles flushes any active pprof profiles; failIf and the end of
// main both call it so profiles survive error exits too.
var stopProfiles = func() {}

func main() {
	names := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		names[i] = e.Name
	}
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(names, ", "))
	workers := flag.Int("j", 1, "pipeline workers (0 = GOMAXPROCS)")
	format := flag.String("format", "text", "output format: text or json")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (empty = process-local cache only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	failIf(err)
	stopProfiles = stop

	if *format != "text" && *format != "json" {
		fail(2, "repro: unknown format %q (want text or json)\n", *format)
	}
	nw := pipeline.SetDefaultWorkers(*workers)
	if *cacheDir != "" {
		if _, err := pipeline.AttachStore(*cacheDir); err != nil {
			fail(1, "repro: %v\n", err)
		}
	}

	run := experiments.All
	if *exp != "all" {
		i := slices.Index(names, *exp)
		if i < 0 {
			fail(2, "repro: unknown experiment %q (want one of %v)\n", *exp, names)
		}
		run = run[i : i+1]
	}

	// Submit every requested experiment as one job graph of independent
	// jobs and render in the canonical order regardless of completion
	// order.
	g := pipeline.NewGraph(pipeline.Default())
	for _, e := range run {
		if err := g.Add(e.Name, func() (any, error) { return e.Run() }); err != nil {
			fail(1, "repro: %v\n", err)
		}
	}
	runErr := g.Run()

	if *format == "json" {
		type expOut struct {
			Name   string `json:"name"`
			Output string `json:"output"`
		}
		doc := struct {
			Parallelism int            `json:"parallelism"`
			Experiments []expOut       `json:"experiments"`
			Cache       pipeline.Stats `json:"cache"`
			Store       *store.Stats   `json:"store,omitempty"`
		}{Parallelism: nw}
		for _, e := range run {
			v, err := g.Result(e.Name)
			if err != nil {
				fail(1, "repro: %s: %v\n", e.Name, err)
			}
			doc.Experiments = append(doc.Experiments, expOut{Name: e.Name, Output: v.(string)})
		}
		doc.Cache = pipeline.Shared().Stats()
		if st := pipeline.PersistentStore(); st != nil {
			s := st.Stats()
			doc.Store = &s
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		failIf(enc.Encode(doc))
		return
	}

	// Text mode streams completed artifacts in canonical order up to the
	// first failure, which is reported under its experiment's name.
	for _, e := range run {
		v, err := g.Result(e.Name)
		if err != nil {
			fail(1, "repro: %s: %v\n", e.Name, err)
		}
		var sb strings.Builder
		if *exp == "all" {
			sb.WriteString(experiments.Header(e.Name))
		}
		sb.WriteString(v.(string))
		sb.WriteByte('\n')
		os.Stdout.WriteString(sb.String())
	}
	failIf(runErr)
	pipeline.ReportTiers(os.Stderr, "repro", nw)
	stopProfiles()
}

func failIf(err error) {
	if err != nil {
		fail(1, "repro: %v\n", err)
	}
}

// fail flushes any active profiles before exiting, so -cpuprofile output
// is valid even on usage and runtime errors.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format, args...)
	stopProfiles()
	os.Exit(code)
}
