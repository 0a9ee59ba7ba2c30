// ECM stencil study: the paper's future work, executed.
//
// The paper closes with: "In future work, we plan to continue these
// investigations by applying our in-core model to a node-wide performance
// model such as the Execution-Cache-Memory (ECM) model." This example does
// exactly that: it feeds the in-core analysis of the 3D 7-point Jacobi
// stencil into the ECM model for all three machines, predicts
// cycles-per-cache-line for every memory level, and derives the multicore
// saturation point — including the effect of each machine's
// write-allocate behaviour on the memory-level transfer time.
//
// Run with:
//
//	go run ./examples/ecm-stencil
package main

import (
	"fmt"
	"log"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/kernels"
	"incore/internal/roofline"
	"incore/internal/uarch"
)

func main() {
	k, err := kernels.ByName("j3d7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ECM study: 3D 7-point Jacobi — %s\n\n", k.Doc)
	for _, arch := range []string{"neoversev2", "goldencove", "zen4"} {
		m := uarch.MustGet(arch)
		t := kernels.TargetOf(m)
		cfg := kernels.Config{Target: t, Compiler: t.Compilers()[0], Opt: kernels.Ofast}
		b, err := kernels.Generate(k, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.New().Analyze(b, m)
		if err != nil {
			log.Fatal(err)
		}
		elems := kernels.ElemsPerIter(k, cfg)
		tOL, tnOL, err := ecm.InCoreInputs(res, elems)
		if err != nil {
			log.Fatal(err)
		}
		em, err := ecm.ForModel(m)
		if err != nil {
			log.Fatal(err)
		}
		tr := ecm.TrafficForBlock(b)
		fmt.Printf("--- %s (%s, WA factor %.2f) ---\n", em.Core.Name, arch, em.WAFactor)
		for _, level := range []ecm.MemLevel{ecm.L1, ecm.L2, ecm.L3, ecm.MEM} {
			r := em.Predict(tOL, tnOL, tr, level)
			fmt.Print(r.Report())
		}
		fmt.Println()
	}

	fmt.Println("Roofline context (sustained vector ceilings):")
	for _, arch := range []string{"neoversev2", "goldencove", "zen4"} {
		rl, err := roofline.ForModel(uarch.MustGet(arch))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rl.Render())
	}
	fmt.Println("\nGrace's automatic write-allocate evasion shows up directly in the")
	fmt.Println("ECM memory term: the stencil moves 5 load lines + 1 store line on")
	fmt.Println("Grace but 5 + 2 effective lines on Genoa (write-allocate).")
}
