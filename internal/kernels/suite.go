package kernels

import (
	"slices"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// TestBlock is one generated validation block with its provenance.
type TestBlock struct {
	Kernel *Kernel
	Config Config
	Block  *isa.Block
	// ElemsPerIter is the number of scalar elements one loop iteration
	// processes.
	ElemsPerIter int
}

// Suite generates the full validation suite for one machine model:
// 13 kernels x its dialect's compilers x 4 optimization levels.
func Suite(m *uarch.Model) ([]TestBlock, error) {
	return appendSuite(nil, TargetOf(m))
}

// FullSuite generates the paper's complete 416-block study across all
// three architectures.
func FullSuite() ([]TestBlock, error) {
	var out []TestBlock
	for _, arch := range [...]string{"neoversev2", "goldencove", "zen4"} {
		m, err := uarch.Get(arch)
		if err != nil {
			return nil, err
		}
		if out, err = appendSuite(out, TargetOf(m)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendSuite appends the suite for t to out.
func appendSuite(out []TestBlock, t Target) ([]TestBlock, error) {
	compilers, opts := t.Compilers(), AllOptLevels()
	out = slices.Grow(out, len(Kernels)*len(compilers)*len(opts))
	for ki := range Kernels {
		k := &Kernels[ki]
		for _, c := range compilers {
			for _, o := range opts {
				cfg := Config{Target: t, Compiler: c, Opt: o}
				b, err := Generate(k, cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, TestBlock{
					Kernel:       k,
					Config:       cfg,
					Block:        b,
					ElemsPerIter: ElemsPerIter(k, cfg),
				})
			}
		}
	}
	return out, nil
}

// UniqueBlocks counts distinct assembly bodies in a suite; duplicates
// arise when optimization levels produce identical code. The generated
// 416-block suite has 229; the paper reports 290 unique representations
// of its compiled code.
func UniqueBlocks(blocks []TestBlock) int {
	seen := map[string]bool{}
	for _, tb := range blocks {
		seen[tb.Block.Arch+"\n"+tb.Block.Text()] = true
	}
	return len(seen)
}
