// Frequency scaling: what sustained clock can a kernel expect?
//
// The example combines the frequency governor (Fig. 2) with the in-core
// model: it predicts node-level GFlop/s for a vectorized FMA kernel as a
// function of active cores, showing why Grace can beat SPR for
// AVX-512-heavy code despite a much narrower SIMD unit — the 1.7x
// sustained-frequency advantage.
//
// Run with:
//
//	go run ./examples/freq-scaling
package main

import (
	"fmt"
	"log"

	"incore/internal/freq"
	"incore/internal/isa"
	"incore/internal/uarch"
)

func main() {
	type system struct {
		key   string
		ext   isa.Ext
		label string
	}
	systems := []system{
		{"neoversev2", isa.ExtSVE, "GCS (SVE 128-bit)"},
		{"goldencove", isa.ExtAVX512, "SPR (AVX-512)"},
		{"zen4", isa.ExtAVX512, "Genoa (AVX-512, double-pumped)"},
	}
	fmt.Println("Peak FMA GFlop/s at sustained frequency vs. active cores")
	fmt.Println()
	for _, s := range systems {
		m, err := uarch.Get(s.key)
		if err != nil {
			log.Fatal(err)
		}
		g, err := freq.ForModel(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — %d flops/cycle/core:\n", s.label, m.Node.FlopsPerCycle)
		for _, fr := range []float64{0.25, 0.5, 0.75, 1.0} {
			c := int(fr * float64(m.CoresPerChip))
			if c < 1 {
				c = 1
			}
			f, err := g.Sustained(c, s.ext)
			if err != nil {
				log.Fatal(err)
			}
			gf := float64(c) * float64(m.Node.FlopsPerCycle) * f
			fmt.Printf("  %3d cores @ %.2f GHz: %8.0f GFlop/s\n", c, f, gf)
		}
		fmt.Println()
	}
	fmt.Println("SPR pays for its 512-bit units with AVX-512 throttling to 2.0 GHz;")
	fmt.Println("Grace holds 3.4 GHz across the socket (paper Fig. 2).")
}
