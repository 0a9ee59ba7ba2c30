package experiments

import (
	"fmt"
	"math"
	"strings"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/freq"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// NodePerfCell is one (kernel, arch) full-socket prediction.
type NodePerfCell struct {
	Arch   string
	Kernel string
	// BestVariant is the compiler/flag combination with the best
	// in-core prediction.
	BestVariant string
	// GUPs is predicted giga (lattice/stream) updates per second for a
	// memory-resident working set at full socket.
	GUPs float64
	// CoreBoundGUPs ignores the memory system (L1-resident).
	CoreBoundGUPs float64
	// MemBound reports whether the socket saturates on bandwidth.
	MemBound bool
}

// NodePerf is the capstone comparison the paper's introduction motivates:
// which machine wins for which kernel once in-core capability, sustained
// frequency, core count, memory bandwidth, and write-allocate behaviour
// are all accounted for.
type NodePerf struct {
	Cells map[string]map[string]NodePerfCell // [kernel][arch]
}

// RunNodePerf predicts full-socket performance for every kernel on every
// machine: the best compiled variant's in-core time feeds the ECM model
// (memory-resident working set), scaled by the sustained frequency for
// the variant's ISA class.
func RunNodePerf() (*NodePerf, error) {
	an := core.New()
	cells, err := pipeline.MapN(pipeline.Default(), len(kernels.Kernels)*len(paperArchs), func(i int) (NodePerfCell, error) {
		k := &kernels.Kernels[i/len(paperArchs)]
		arch := paperArchs[i%len(paperArchs)]
		m, err := uarch.Get(arch)
		if err != nil {
			return NodePerfCell{}, err
		}
		g, err := freq.ForModel(m)
		if err != nil {
			return NodePerfCell{}, err
		}
		em, err := ecm.ForModel(m)
		if err != nil {
			return NodePerfCell{}, err
		}

		// Pick the best variant by in-core cycles per element.
		best := NodePerfCell{Arch: arch, Kernel: k.Name}
		bestCyPerElem := math.Inf(1)
		var bestRes *core.Result
		var bestBlock *isa.Block
		var bestElems int
		t := kernels.TargetOf(m)
		for _, comp := range t.Compilers() {
			cfg := kernels.Config{Target: t, Compiler: comp, Opt: kernels.Ofast}
			b, err := kernels.Generate(k, cfg)
			if err != nil {
				return NodePerfCell{}, err
			}
			res, err := pipeline.Analyze(an, b, m)
			if err != nil {
				return NodePerfCell{}, err
			}
			elems := kernels.ElemsPerIter(k, cfg)
			cpe := res.Prediction / float64(elems)
			if cpe < bestCyPerElem {
				bestCyPerElem = cpe
				best.BestVariant = string(comp) + "-Ofast"
				bestRes = res
				bestBlock = b
				bestElems = elems
			}
		}

		f, err := g.Sustained(m.CoresPerChip, dominantExt(bestBlock))
		if err != nil {
			// ISA class without a calibrated activity factor (e.g.
			// scalar-only kernels on x86): fall back to scalar.
			f, err = g.Sustained(m.CoresPerChip, isa.ExtScalar)
			if err != nil {
				return NodePerfCell{}, err
			}
		}

		// Core-bound (L1) performance.
		best.CoreBoundGUPs = float64(m.CoresPerChip) / bestCyPerElem * f

		// Memory-resident ECM prediction.
		tOL, tnOL, err := ecm.InCoreInputs(bestRes, bestElems)
		if err != nil {
			return NodePerfCell{}, err
		}
		tr := ecm.TrafficForBlock(bestBlock)
		r := em.Predict(tOL, tnOL, tr, ecm.MEM)
		perfCLperCy := float64(m.CoresPerChip) / r.TECM
		if r.TL3Mem > 0 {
			if ceiling := 1.0 / r.TL3Mem; perfCLperCy > ceiling {
				perfCLperCy = ceiling
				best.MemBound = true
			}
		}
		best.GUPs = perfCLperCy * 8 * f // 8 elements per cache line
		return best, nil
	})
	if err != nil {
		return nil, err
	}
	np := &NodePerf{Cells: map[string]map[string]NodePerfCell{}}
	for _, c := range cells {
		if np.Cells[c.Kernel] == nil {
			np.Cells[c.Kernel] = map[string]NodePerfCell{}
		}
		np.Cells[c.Kernel][c.Arch] = c
	}
	return np, nil
}

// dominantExt returns the widest ISA class used by a block (for the
// frequency governor).
func dominantExt(b *isa.Block) isa.Ext {
	best := isa.ExtScalar
	for i := range b.Instrs {
		if b.Instrs[i].Ext.Wider(best) {
			best = b.Instrs[i].Ext
		}
	}
	return best
}

// Winner returns the fastest architecture for a kernel (memory-resident).
func (np *NodePerf) Winner(kernel string) (string, float64) {
	bestArch, bestPerf := "", 0.0
	for arch, c := range np.Cells[kernel] {
		if c.GUPs > bestPerf {
			bestArch, bestPerf = arch, c.GUPs
		}
	}
	return bestArch, bestPerf
}

// Render draws the node-level comparison.
func (np *NodePerf) Render() string {
	var sb strings.Builder
	sb.WriteString("Node-level kernel performance prediction (full socket, memory-resident)\n")
	sb.WriteString("in-core model -> ECM -> sustained frequency; G updates/s per kernel\n\n")
	head := []string{"kernel"}
	for _, a := range paperArchs {
		head = append(head, chipLabel(a))
	}
	head = append(head, "winner", "bound")
	var rows [][]string
	for ki := range kernels.Kernels {
		k := kernels.Kernels[ki].Name
		row := []string{k}
		for _, a := range paperArchs {
			row = append(row, fmt.Sprintf("%.1f", np.Cells[k][a].GUPs))
		}
		w, _ := np.Winner(k)
		bound := "core"
		if np.Cells[k][w].MemBound {
			bound = "mem"
		}
		rows = append(rows, append(row, chipLabel(w), bound))
	}
	writeTable(&sb, head, rows)
	sb.WriteString("\nCore-bound (L1-resident) comparison:\n")
	head2 := []string{"kernel"}
	for _, a := range paperArchs {
		head2 = append(head2, chipLabel(a))
	}
	var rows2 [][]string
	for ki := range kernels.Kernels {
		k := kernels.Kernels[ki].Name
		row := []string{k}
		for _, a := range paperArchs {
			row = append(row, fmt.Sprintf("%.1f", np.Cells[k][a].CoreBoundGUPs))
		}
		rows2 = append(rows2, row)
	}
	writeTable(&sb, head2, rows2)
	return sb.String()
}
