// Stencil analysis: compare one kernel across all three
// microarchitectures and all compiler variants.
//
// This example generates the 2D 5-point Jacobi stencil exactly as the
// paper's compiler matrix does (gcc/clang/icx/armclang x O1..Ofast),
// predicts each variant's in-core runtime on its target machine, verifies
// against the simulated measurement, and reports cycles per lattice
// update — the quantity an HPC practitioner actually tunes for.
//
// Run with:
//
//	go run ./examples/stencil-analysis
package main

import (
	"fmt"
	"log"

	"incore/internal/core"
	"incore/internal/kernels"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func main() {
	k, err := kernels.ByName("j2d5")
	if err != nil {
		log.Fatal(err)
	}
	an := core.New()
	fmt.Printf("2D 5-point Jacobi: %s\n\n", k.Doc)
	fmt.Printf("%-34s %14s %14s %12s\n", "variant", "pred [cy/it]", "meas [cy/it]", "cy/update")
	for _, arch := range []string{"neoversev2", "goldencove", "zen4"} {
		m := uarch.MustGet(arch)
		t := kernels.TargetOf(m)
		for _, comp := range t.Compilers() {
			for _, opt := range kernels.AllOptLevels() {
				cfg := kernels.Config{Target: t, Compiler: comp, Opt: opt}
				b, err := kernels.Generate(k, cfg)
				if err != nil {
					log.Fatal(err)
				}
				res, err := an.Analyze(b, m)
				if err != nil {
					log.Fatal(err)
				}
				meas, err := sim.Run(b, m, sim.DefaultConfig(m))
				if err != nil {
					log.Fatal(err)
				}
				elems := kernels.ElemsPerIter(k, cfg)
				fmt.Printf("%-34s %14.2f %14.2f %12.3f\n",
					b.Name, res.Prediction, meas.CyclesPerIter,
					meas.CyclesPerIter/float64(elems))
			}
		}
		fmt.Println()
	}
	fmt.Println("Lower numbers are better; vectorized Ofast variants approach the")
	fmt.Println("load/store port bound, scalar O1 variants the frontend bound.")
}
