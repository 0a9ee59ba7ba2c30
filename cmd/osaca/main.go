// Command osaca statically analyses an assembly loop body against one of
// the three machine models, printing the OSACA-style port-pressure report,
// the critical path, the loop-carried dependency, and the lower-bound
// prediction — optionally alongside the LLVM-MCA-style baseline, a
// simulated "measurement", and an ECM node-level prediction.
//
// OSACA/LLVM-MCA/IACA region markers in the input are honored.
//
// Usage:
//
//	osaca -arch goldencove|neoversev2|zen4 [-compare] [-sim] [-ecm MEM] [-nt] [-strict] file.s
//	osaca -machine custom.json [-sim] [-ecm MEM] file.s
//	osaca -machine-dir models/ -arch mykey file.s
//	echo "..." | osaca -arch zen4 -
//
// -machine analyzes against a JSON machine file directly (the file's key
// may shadow a built-in: results are cached under the file's content
// fingerprint, never the built-in's). -machine-dir registers every
// machine file in a directory, making their keys available to -arch.
//
// Instructions outside the model's tables degrade to a conservative
// synthesized descriptor and the report gains a coverage footer; pass
// -strict to reject such blocks with an error instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/isa"
	"incore/internal/mca"
	"incore/internal/profiling"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func main() {
	arch := flag.String("arch", "goldencove", "machine model: "+strings.Join(uarch.Keys(), ", "))
	machineFile := flag.String("machine", "", "analyze against this JSON machine file instead of a registered model")
	machineDir := flag.String("machine-dir", "", "load every *.json machine file in this directory, for this run only, before resolving -arch")
	compare := flag.Bool("compare", false, "also run the LLVM-MCA-style baseline")
	simulate := flag.Bool("sim", false, "also run the core simulator (simulated measurement)")
	ecmLevel := flag.String("ecm", "", "ECM prediction for a working set in L1|L2|L3|MEM")
	nt := flag.Bool("nt", false, "assume non-temporal stores (no write-allocate) in the ECM prediction")
	strict := flag.Bool("strict", false, "error on instructions outside the model's tables instead of degrading to conservative descriptors")
	traceFile := flag.String("trace", "", "write a Chrome trace of the simulation to this file (implies -sim)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation (heap) profile to this file")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: osaca -arch <model> [-compare] [-sim] [-ecm LEVEL] <file.s|->")
		os.Exit(2)
	}
	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiling()
	var src []byte
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fatal(err)
	}

	// -arch has a default: only an explicit -arch can contradict -machine.
	archSet := false
	flag.Visit(func(f *flag.Flag) { archSet = archSet || f.Name == "arch" })
	m, err := uarch.Resolve(*machineDir, *machineFile, *arch, archSet)
	if err != nil {
		fatal(err)
	}
	b, err := isa.ParseMarkedBlock(flag.Arg(0), m.Key, m.Dialect, string(src))
	if err != nil {
		fatal(err)
	}
	an := core.New()
	if *strict {
		an.Opt.DegradeUnknown = false
	}
	res, err := an.Analyze(b, m)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Report())

	if *compare {
		mr, err := mca.PredictDefault(b, m)
		if err != nil {
			fatal(fmt.Errorf("mca: %w", err))
		}
		fmt.Printf("llvm-mca-style     : %7.2f cy/it\n", mr.CyclesPerIter)
	}
	if *simulate || *traceFile != "" {
		cfg := sim.DefaultConfig(m)
		var rec sim.TraceRecorder
		if *traceFile != "" {
			cfg.Trace = rec.Hook(b.Len())
		}
		sr, err := sim.Run(b, m, cfg)
		if err != nil {
			fatal(fmt.Errorf("sim: %w", err))
		}
		fmt.Printf("simulated measured : %7.2f cy/it\n", sr.CyclesPerIter)
		fmt.Printf("port utilization   :")
		for p, u := range sr.PortUtilization() {
			if u >= 0.005 {
				fmt.Printf(" %s=%.0f%%", m.Ports[p], 100*u)
			}
		}
		fmt.Println()
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			if err := rec.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written      : %s (%d events)\n", *traceFile, rec.Len())
		}
	}
	if *ecmLevel != "" {
		if err := runECM(b, m, res, *ecmLevel, *nt); err != nil {
			fatal(err)
		}
	}
}

func runECM(b *isa.Block, m *uarch.Model, res *core.Result, levelName string, nt bool) error {
	var level ecm.MemLevel
	switch strings.ToUpper(levelName) {
	case "L1":
		level = ecm.L1
	case "L2":
		level = ecm.L2
	case "L3":
		level = ecm.L3
	case "MEM":
		level = ecm.MEM
	default:
		return fmt.Errorf("ecm: unknown level %q (want L1|L2|L3|MEM)", levelName)
	}
	em, err := ecm.ForModel(m)
	if err != nil {
		return err
	}
	elems := ecm.ElemsPerIter(b)
	if elems == 0 {
		return fmt.Errorf("ecm: block %s has no memory access, so it streams no cache lines to model", b.Name)
	}
	tOL, tnOL, err := ecm.InCoreInputs(res, elems)
	if err != nil {
		return err
	}
	tr := ecm.TrafficForBlock(b)
	tr.NT = nt
	r := em.Predict(tOL, tnOL, tr, level)
	fmt.Print(r.Report())
	fmt.Printf("  = %.2f cy/it at %d elements/iteration\n", r.CyclesPerIt(elems), elems)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "osaca: %v\n", err)
	os.Exit(1)
}
