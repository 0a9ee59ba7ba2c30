package sweep

import (
	"fmt"
	"sort"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/roofline"
	"incore/internal/uarch"
)

// Block is one unit of swept work: a parsed block plus the element count
// and stream traffic that enable the memory-level (ECM) projection.
type Block struct {
	Name string
	B    *isa.Block
	// ElemsPerIter is the number of scalar elements one loop iteration
	// processes (0 disables the ECM projection for this block).
	ElemsPerIter int
	// Traffic is B's per-cache-line stream traffic
	// (ecm.TrafficForBlock), derived once per block; each variant's ECM
	// model applies its own write-allocate factor.
	Traffic ecm.Traffic
}

// SuiteBlocks is BlocksFor on the built-in model arch.
func SuiteBlocks(arch string) ([]Block, error) {
	m, err := uarch.Get(arch)
	if err != nil {
		return nil, err
	}
	return BlocksFor(m)
}

// BlocksFor generates the kernel validation suite for model m as sweep
// work. Blocks are routed through the compiled-artifact parse cache
// (pipeline.ParseRequestBlock), so the suite's duplicate bodies collapse
// to one parsed block each and the tier's counters account the parse
// work exactly once per unique body.
func BlocksFor(m *uarch.Model) ([]Block, error) {
	suite, err := kernels.Suite(m)
	if err != nil {
		return nil, err
	}
	out := make([]Block, 0, len(suite))
	for _, tb := range suite {
		b, err := pipeline.ParseRequestBlock(tb.Block.Name, tb.Block.Arch, tb.Block.Dialect, tb.Block.Text())
		if err != nil {
			return nil, err
		}
		out = append(out, Block{Name: b.Name, B: b, ElemsPerIter: tb.ElemsPerIter, Traffic: ecm.TrafficForBlock(b)})
	}
	return out, nil
}

// Options configures a sweep run.
type Options struct {
	// Analyzer defaults to core.New().
	Analyzer *core.Analyzer
	// MaxVariants rejects cross-products above the cap before any model
	// is cloned (0 = no cap here; servers enforce their own).
	MaxVariants int
}

// ErrTooLarge is returned when a requested cross-product exceeds the
// caller's variant cap.
type ErrTooLarge struct {
	Variants, Max int
}

// Error implements error.
func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("sweep: cross-product of %d variants exceeds the cap of %d", e.Variants, e.Max)
}

// VariantResult is one variant's row of the sweep grid.
type VariantResult struct {
	Index int `json:"index"`
	// Params is the variant's full assignment in canonical axis order.
	Params []ParamValue `json:"params"`
	// CacheKey is the store identity of the variant's results
	// (key@fingerprint); PortSignature is the artifact-sharing identity,
	// truncated to 12 hex digits for display.
	CacheKey      string `json:"cache_key"`
	PortSignature string `json:"port_signature"`
	// Predictions lists the in-core lower-bound cycles per iteration,
	// aligned with Result.Blocks; TotalCycles is their sum — the
	// scalar in-core performance figure the per-axis fronts minimize.
	Predictions []float64 `json:"predictions"`
	TotalCycles float64   `json:"total_cycles"`
	// ECMMemCycles sums the memory-resident ECM prediction (cycles per
	// iteration) over the blocks with kernel provenance; 0 when the
	// model carries no ECM calibration.
	ECMMemCycles float64 `json:"ecm_mem_cycles,omitempty"`
	// SustainedGHz / SustainedGFlops are the frequency-governor and
	// Roofline projections (0 when the model carries no freq section).
	SustainedGHz    float64 `json:"sustained_ghz,omitempty"`
	SustainedGFlops float64 `json:"sustained_gflops,omitempty"`
	// Warm / Cold count this variant's result cells by provenance:
	// warm cells were served from the memo/store tiers.
	Warm int `json:"warm"`
	Cold int `json:"cold"`
}

// Result is one sweep's full outcome.
type Result struct {
	// Base and BaseCacheKey identify the unmodified starting model.
	Base         string `json:"base"`
	BaseCacheKey string `json:"base_cache_key"`
	// Axes is the canonical (sorted, deduplicated) axis set.
	Axes []Axis `json:"axes"`
	// Blocks lists the swept block names in input order.
	Blocks   []string        `json:"blocks"`
	Variants []VariantResult `json:"variants"`
	// Fronts are the Pareto fronts (see pareto.go).
	Fronts []Front `json:"pareto"`
	// DistinctSignatures counts distinct port signatures across the
	// variants — the number of times the port-dependent compile stages
	// ran per block; Variants-DistinctSignatures variants shared them.
	DistinctSignatures int `json:"distinct_port_signatures"`
	// Warm / Cold aggregate the per-variant cell provenance.
	Warm int `json:"warm"`
	Cold int `json:"cold"`
	// Analyzed counts the cell analyses that actually ran: variants
	// sharing a port signature share one per block content, so a cold
	// node-only sweep analyzes each block once.
	Analyzed int `json:"-"`
}

// Stats is sweep accounting over many runs, as a server exposes it on
// /metrics.
type Stats struct {
	// Sweeps counts completed sweep runs; Variants the models they
	// generated; SharedSignature the variants that reused another
	// variant's port signature (and therefore its compiled artifacts).
	Sweeps          uint64 `json:"sweeps" help:"Completed sweep runs."`
	Variants        uint64 `json:"variants" help:"Sweep variants generated."`
	SharedSignature uint64 `json:"shared_signature" help:"Variants reusing another variant's port signature."`
	// CellsWarm / CellsCold count result cells by provenance: a cold
	// cell missed the memo and store under its variant's key.
	// CellsAnalyzed counts the analyses that actually ran: variants
	// sharing a port signature share one per block content, so a cold
	// node-only sweep analyzes each block once.
	CellsWarm     uint64 `json:"cells_warm" help:"Sweep result cells served from cache tiers."`
	CellsCold     uint64 `json:"cells_cold" help:"Sweep result cells that missed the memo and store under their variant's key."`
	CellsAnalyzed uint64 `json:"cells_analyzed" help:"Sweep cell analyses run (one per port signature and block content)."`
	// RejectedTooLarge counts sweeps refused by a variant cap.
	RejectedTooLarge uint64 `json:"rejected_too_large" help:"Sweeps refused by the variant cap."`
}

// Add counts one completed sweep.
func (st *Stats) Add(r *Result) {
	st.Sweeps++
	st.Variants += uint64(len(r.Variants))
	st.SharedSignature += uint64(len(r.Variants) - r.DistinctSignatures)
	st.CellsWarm += uint64(r.Warm)
	st.CellsCold += uint64(r.Cold)
	st.CellsAnalyzed += uint64(r.Analyzed)
}

// Run executes the sweep: expand the cross-product, analyze every
// (variant, block) cell through the memoized arena path, project
// node-level metrics, and reduce to Pareto fronts. Variants fan out over
// the default pipeline pool; output is deterministic at any worker count
// (Map preserves order, and cell values are content-addressed). Cells
// that miss the memo and store are analyzed once per (port signature,
// block), not once per variant (see cellPlan).
func Run(base *uarch.Model, axes []Axis, blocks []Block, opt Options) (*Result, error) {
	canon, err := Canonicalize(axes)
	if err != nil {
		return nil, err
	}
	if n := Count(canon); opt.MaxVariants > 0 && n > opt.MaxVariants {
		return nil, &ErrTooLarge{Variants: n, Max: opt.MaxVariants}
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("sweep: no blocks to sweep")
	}
	variants, err := Variants(base, canon)
	if err != nil {
		return nil, err
	}
	an := opt.Analyzer
	if an == nil {
		an = core.New()
	}

	res := &Result{
		Base:         base.Key,
		BaseCacheKey: base.CacheKey(),
		Axes:         canon,
		Blocks:       make([]string, len(blocks)),
	}
	for i, b := range blocks {
		res.Blocks[i] = b.Name
	}

	plan := newCellPlan(variants, blocks)
	rows, err := pipeline.MapN(pipeline.Default(), len(variants), func(i int) (VariantResult, error) {
		return runVariant(an, &variants[i], blocks, plan[variants[i].Model.PortSignature()])
	})
	if err != nil {
		return nil, err
	}
	res.Variants = rows

	for i := range rows {
		res.Warm += rows[i].Warm
		res.Cold += rows[i].Cold
	}
	res.DistinctSignatures = len(plan)
	res.Analyzed = plan.analyzed()
	res.Fronts = fronts(res)
	return res, nil
}

// cellPlan maps each port signature among a run's variants to one
// compute-once slot per block, with each block's BlockKey rendered once
// for all of them. A repeated block body never fills its own slot: the
// variant's memo already holds that content's cell. The plan lives only
// for the run, so sharing adds no memo or artifact entries.
type cellPlan map[string][]pipeline.CellSlot

func newCellPlan(variants []Variant, blocks []Block) cellPlan {
	keys := make([]string, len(blocks))
	for i, blk := range blocks {
		keys[i] = pipeline.BlockKey(blk.B)
	}
	plan := cellPlan{}
	for i := range variants {
		sig := variants[i].Model.PortSignature()
		if _, ok := plan[sig]; ok {
			continue
		}
		slots := make([]pipeline.CellSlot, len(blocks))
		for j := range slots {
			slots[j].Key = keys[j]
		}
		plan[sig] = slots
	}
	return plan
}

// analyzed counts the analyses the slots ran. Call it only after every
// variant has finished.
func (p cellPlan) analyzed() int {
	n := 0
	for _, slots := range p {
		for i := range slots {
			n += slots[i].Analyses()
		}
	}
	return n
}

// runVariant analyzes every block for one variant and projects its
// node-level metrics. Each call owns its InternalArena: the arena is
// single-goroutine state, and one variant's blocks run serially within
// the pool worker.
func runVariant(an *core.Analyzer, v *Variant, blocks []Block, slots []pipeline.CellSlot) (VariantResult, error) {
	m := v.Model
	row := VariantResult{
		Index:         v.Index,
		Params:        v.Params,
		CacheKey:      m.CacheKey(),
		PortSignature: m.PortSignature()[:12],
		Predictions:   make([]float64, len(blocks)),
	}
	ar := &pipeline.InternalArena{}
	em, _ := ecm.ForModel(m) // nil without node-level ECM parameters: no ECM projection
	for i, blk := range blocks {
		cell, warm, err := pipeline.AnalyzeCellWarm(an, blk.B, m, ar, &slots[i])
		if err != nil {
			return VariantResult{}, fmt.Errorf("sweep: variant %d (%s), block %s: %w",
				v.Index, FormatParams(v.Params), blk.Name, err)
		}
		if warm {
			row.Warm++
		} else {
			row.Cold++
		}
		row.Predictions[i] = cell.Prediction
		row.TotalCycles += cell.Prediction
		if em != nil && blk.ElemsPerIter > 0 {
			scale := 8.0 / float64(blk.ElemsPerIter)
			er := em.Predict(cell.TOLIt*scale, cell.TnOLIt*scale, blk.Traffic, ecm.MEM)
			row.ECMMemCycles += er.CyclesPerIt(blk.ElemsPerIter)
		}
	}
	if rf, err := roofline.ForModel(m); err == nil {
		for _, c := range rf.Ceilings {
			if c.Sustained {
				row.SustainedGFlops = c.GFlops
				if m.CoresPerChip > 0 && m.Node.FlopsPerCycle > 0 {
					row.SustainedGHz = c.GFlops / float64(m.CoresPerChip) / float64(m.Node.FlopsPerCycle)
				}
			}
		}
	}
	return row, nil
}

// axisValue returns a variant's value on the named axis.
func axisValue(ps []ParamValue, param string) (float64, bool) {
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Param >= param })
	if i < len(ps) && ps[i].Param == param {
		return ps[i].Value, true
	}
	return 0, false
}
