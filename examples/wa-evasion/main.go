// WA evasion: reproduce the paper's Sec. III case study interactively.
//
// The example runs the store-only benchmark on all three memory-system
// models at a few core counts, showing how Grace's automatic cache-line
// claim, SPR's bandwidth-gated SpecI2M, and Genoa's lack of automatic
// evasion shape the memory traffic — and how non-temporal stores change
// the picture.
//
// Run with:
//
//	go run ./examples/wa-evasion
package main

import (
	"fmt"
	"log"

	"incore/internal/memsim"
	"incore/internal/uarch"
)

func main() {
	fmt.Println("Store-only benchmark: memory traffic / stored bytes")
	fmt.Println("(1.0 = perfect write-allocate evasion, 2.0 = full write-allocate)")
	fmt.Println()
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		m, err := uarch.Get(key)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err := memsim.ConfigFor(m)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := memsim.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s, policy %s):\n", m.CPU, key, cfg.Policy)
		for _, frac := range []float64{0.1, 0.5, 1.0} {
			c := int(frac * float64(m.CoresPerChip))
			if c < 1 {
				c = 1
			}
			std, err := sys.RunStoreStream(c, memsim.DefaultStoreLinesPerCore, false)
			if err != nil {
				log.Fatal(err)
			}
			line := fmt.Sprintf("  %3d cores: standard %.2f", c, std.WARatio())
			if cfg.Policy != memsim.PolicyAutoClaim {
				nt, err := sys.RunStoreStream(c, memsim.DefaultStoreLinesPerCore, true)
				if err != nil {
					log.Fatal(err)
				}
				line += fmt.Sprintf("   NT stores %.2f", nt.WARatio())
			}
			fmt.Println(line)
		}
		fmt.Println()
	}
	fmt.Println("Compare paper Fig. 4: only Grace evades WA automatically; SpecI2M")
	fmt.Println("saves at most ~25% and only near saturation; Genoa needs NT stores,")
	fmt.Println("which are perfect there but leave ~10% residual traffic on SPR.")
}
