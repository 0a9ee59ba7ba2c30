// Command ibench runs instruction micro-benchmarks (throughput and
// latency) on the simulated cores — the reproduction's counterpart to the
// ibench/OoO-bench tools the paper populates its port models with.
//
// Usage:
//
//	ibench -arch zen4                     # all classes
//	ibench -arch neoversev2 -instr vecfma # one class
//	ibench -arch goldencove -dump-asm -instr gather
//	ibench -machine custom.json           # benchmark a machine file
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"incore/internal/ibench"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func main() {
	arch := flag.String("arch", "zen4", "machine model: "+strings.Join(uarch.Keys(), ", "))
	machineFile := flag.String("machine", "", "benchmark this JSON machine file instead of a registered model")
	machineDir := flag.String("machine-dir", "", "load every *.json machine file in this directory, for this run only, before resolving -arch")
	instr := flag.String("instr", "", "instruction class (empty: all): gather, vecadd, vecmul, vecfma, vecdiv, scalaradd, scalarmul, scalarfma, scalardiv")
	dumpAsm := flag.Bool("dump-asm", false, "print the generated benchmark loops instead of running them")
	flag.Parse()

	// -arch has a default: only an explicit -arch can contradict -machine.
	archSet := false
	flag.Visit(func(f *flag.Flag) { archSet = archSet || f.Name == "arch" })
	m, err := uarch.Resolve(*machineDir, *machineFile, *arch, archSet)
	if err != nil {
		fatal(err)
	}
	kinds := ibench.AllKinds()
	if *instr != "" {
		k, err := ibench.ParseKind(*instr)
		if err != nil {
			fatal(err)
		}
		kinds = []ibench.Kind{k}
	}

	if *dumpAsm {
		for _, k := range kinds {
			for _, lat := range []bool{false, true} {
				b, err := ibench.Build(m, k, lat)
				if err != nil {
					fatal(err)
				}
				shape := "throughput"
				if lat {
					shape = "latency"
				}
				fmt.Printf("# %s — %s (%s)\n%s\n", m.Name, k, shape, b.Text())
			}
		}
		return
	}

	fmt.Printf("%s (%s): instruction micro-benchmarks on the core simulator\n", m.Name, m.CPU)
	fmt.Printf("%-16s %10s %12s %9s\n", "class", "instr/cy", "elems/cy", "lat [cy]")
	cfg := sim.DefaultConfig(m)
	for _, k := range kinds {
		r, err := ibench.Measure(m, k, cfg)
		if err != nil {
			fatal(err)
		}
		unit := ""
		if k == ibench.Gather {
			unit = " CL/cy"
		}
		fmt.Printf("%-16s %10.2f %12.2f%s %8.1f\n", k, r.ThroughputInstr, r.ThroughputElems, unit, r.LatencyCy)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ibench: %v\n", err)
	os.Exit(1)
}
