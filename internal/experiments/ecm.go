package experiments

import (
	"fmt"
	"strings"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// ECMRow is one (arch, kernel, level) node-level prediction.
type ECMRow struct {
	Arch   string
	Kernel string
	Level  ecm.MemLevel
	// TECM in cycles per cache line; NSat the saturation core count.
	TECM float64
	NSat int
	// CyPerElem at the kernel's element granularity.
	CyPerElem float64
}

// ECMStudy is experiment E7: the paper's future work — the in-core model
// feeding the Execution-Cache-Memory model for a set of streaming and
// stencil kernels on all three machines.
type ECMStudy struct {
	Rows []ECMRow
}

// ecmKernels are the kernels shown in the E7 report.
var ecmKernels = []string{"striad", "add", "j2d5", "j3d7", "sum"}

// RunECM builds ECM predictions for each kernel's best vectorized variant
// (first compiler, Ofast) across memory levels. The (arch, kernel) cross
// product is one pipeline job per pair; the in-core analyses hit the
// shared memo cache when fig3 or the node-perf study already ran them.
func RunECM() (*ECMStudy, error) {
	an := core.New()
	perPair, err := pipeline.MapN(pipeline.Default(), len(paperArchs)*len(ecmKernels), func(i int) ([]ECMRow, error) {
		arch, kname := paperArchs[i/len(ecmKernels)], ecmKernels[i%len(ecmKernels)]
		m, err := uarch.Get(arch)
		if err != nil {
			return nil, err
		}
		em, err := ecm.ForModel(m)
		if err != nil {
			return nil, err
		}
		k, err := kernels.ByName(kname)
		if err != nil {
			return nil, err
		}
		t := kernels.TargetOf(m)
		cfg := kernels.Config{Target: t, Compiler: t.Compilers()[0], Opt: kernels.Ofast}
		b, err := kernels.Generate(k, cfg)
		if err != nil {
			return nil, err
		}
		res, err := pipeline.Analyze(an, b, m)
		if err != nil {
			return nil, err
		}
		elems := kernels.ElemsPerIter(k, cfg)
		tOL, tnOL, err := ecm.InCoreInputs(res, elems)
		if err != nil {
			return nil, err
		}
		tr := ecm.TrafficForBlock(b)
		var rows []ECMRow
		for _, level := range []ecm.MemLevel{ecm.L1, ecm.L2, ecm.L3, ecm.MEM} {
			r := em.Predict(tOL, tnOL, tr, level)
			rows = append(rows, ECMRow{
				Arch: arch, Kernel: kname, Level: level,
				TECM: r.TECM, NSat: r.NSat,
				CyPerElem: r.TECM / 8,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var study ECMStudy
	for _, rows := range perPair {
		study.Rows = append(study.Rows, rows...)
	}
	return &study, nil
}

// Render draws the per-level cycle predictions per kernel and machine.
func (s *ECMStudy) Render() string {
	var sb strings.Builder
	sb.WriteString("E7 (paper future work) — ECM node-level predictions [cy per cache line]\n")
	sb.WriteString("in-core inputs from the OSACA-style analyzer; memory term includes each\n")
	fmt.Fprintf(&sb, "machine's write-allocate behaviour (%s claims, %s SpecI2M, %s full WA)\n\n",
		chipLabel("neoversev2"), chipLabel("goldencove"), chipLabel("zen4"))
	head := []string{"kernel", "level"}
	for _, a := range paperArchs {
		head = append(head, chipLabel(a), "n_sat")
	}
	var rows [][]string
	for _, kname := range ecmKernels {
		for _, level := range []ecm.MemLevel{ecm.L1, ecm.L2, ecm.L3, ecm.MEM} {
			row := []string{kname, level.String()}
			for _, a := range paperArchs {
				var cell, sat string
				for _, r := range s.Rows {
					if r.Arch == a && r.Kernel == kname && r.Level == level {
						cell = fmt.Sprintf("%.1f", r.TECM)
						if r.NSat > 0 {
							sat = fmt.Sprintf("%d", r.NSat)
						} else {
							sat = "-"
						}
					}
				}
				row = append(row, cell, sat)
			}
			rows = append(rows, row)
		}
	}
	writeTable(&sb, head, rows)
	return sb.String()
}
