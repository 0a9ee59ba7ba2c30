// Package core implements the paper's primary contribution: an OSACA-style
// in-core performance model. Given an assembly block and a machine model
// it computes
//
//   - the optimal port-pressure throughput bound (perfectly balanced
//     µ-op-to-port assignment),
//   - the frontend issue bound,
//   - the critical path through one iteration, and
//   - the longest loop-carried dependency (LCD) chain,
//
// and combines them into an optimistic lower-bound runtime prediction in
// cycles per block iteration: max(port bound, issue bound, LCD).
//
// The prediction is a *lower bound* by construction: a real out-of-order
// core cannot beat perfect port balancing, cannot exceed its issue width,
// and cannot overtake true dataflow. (Two deliberate exceptions where real
// hardware can beat the tables are reproduced and discussed in the paper:
// FMA accumulator forwarding on Neoverse V2 and the Zen 4 divider early
// exit; see internal/sim.)
package core

import (
	"fmt"
	"math"
	"strconv"

	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/uarch"
)

// InstrReport is the per-instruction line of an analysis report.
type InstrReport struct {
	Index    int
	Text     string
	Uops     int
	Lat      int
	TotalLat int
	// Throughput is the instruction's isolated reciprocal throughput.
	Throughput float64
	// PortLoads is the heuristic per-port share of this instruction
	// (cycles), aligned with Model.Ports.
	PortLoads []float64
	// Match records how the instruction resolved against the model's
	// tables: "" (exact entry; omitted on the wire), "fallback" (folded
	// signature/width chain), or "unknown" (synthesized conservative
	// descriptor — see Result.Coverage).
	Match string `json:"match,omitempty"`
}

// Result is a complete in-core analysis of one block.
type Result struct {
	Block *isa.Block
	Model *uarch.Model

	// PortPressure is the heuristic per-port load (cycles/iteration).
	PortPressure []float64
	// TPBound is the exact optimal max-port-load bound.
	TPBound float64
	// GreedyTPBound is the bound a greedy (non-balancing) scheduler
	// achieves; exposed for the ablation study.
	GreedyTPBound float64
	// IssueBound is total µ-ops / issue width.
	IssueBound float64
	// CriticalPath is the longest dataflow path through one iteration;
	// CPPath lists the instruction indices on it in program order.
	CriticalPath float64
	CPPath       []int
	// LCD is the dominant loop-carried dependency chain.
	LCD depgraph.LCDResult
	// Prediction is the lower-bound cycles per iteration.
	Prediction float64
	// Bound names the binding constraint ("port", "issue", "lcd").
	Bound string

	Instrs []InstrReport
	// TotalUops counts µ-ops per iteration.
	TotalUops int
	// Coverage accounts how instructions resolved against the model
	// (exact / fallback / unknown); Unknown > 0 marks a degraded
	// analysis over synthesized descriptors.
	Coverage Coverage
}

// Analyzer holds analysis options.
type Analyzer struct {
	// Opt controls dependency-graph construction.
	Opt depgraph.Options
}

// New returns an analyzer with OSACA-like defaults (ideal renaming,
// memory-carried dependencies within one cache line) plus graceful
// degradation: instructions outside the model's table resolve to its
// synthesized conservative descriptor and are accounted in
// Result.Coverage instead of rejecting the whole block. Set
// Opt.DegradeUnknown = false for the strict error-on-unknown behavior.
func New() *Analyzer {
	opt := depgraph.DefaultOptions()
	opt.DegradeUnknown = true
	return &Analyzer{Opt: opt}
}

// Fingerprint returns a stable content key for the analyzer's options.
// Two analyzers with equal fingerprints produce identical Results for the
// same (block, model) input; memoization layers (internal/pipeline) key
// cached analyses on it.
//
// It runs on every memo lookup, so it is appended into a stack buffer
// rather than formatted; the string is part of persisted store keys and
// must keep the form "falsedeps=%t|memwin=%d|stfwd=0|degrade=%t": stfwd
// was a store-forward latency option, now the fixed isa.StoreForwardDelay.
func (a *Analyzer) Fingerprint() string {
	var buf [96]byte
	b := append(buf[:0], "falsedeps="...)
	b = strconv.AppendBool(b, a.Opt.IncludeFalseDeps)
	b = strconv.AppendInt(append(b, "|memwin="...), a.Opt.MemCarriedWindow, 10)
	b = strconv.AppendBool(append(b, "|stfwd=0|degrade="...), a.Opt.DegradeUnknown)
	return string(b)
}

// Analyze runs the in-core model for block b on machine model m. b must
// be in m's dialect (the block's dialect drives effect extraction). The
// skeleton, descriptors and result are built in a pooled ResultArena, so
// concurrent callers (pipeline jobs, served requests) are safe and a
// steady stream of analyses does O(1) heap work after warmup beyond the
// returned Result, which shares no arena memory.
func (a *Analyzer) Analyze(b *isa.Block, m *uarch.Model) (*Result, error) {
	ar := arenaPool.Get().(*ResultArena)
	defer arenaPool.Put(ar)
	sk, err := depgraph.NewSkeletonScratch(b, a.Opt, &ar.dg)
	if err != nil {
		return nil, err
	}
	return copyOut(a.AnalyzeArena(b, m, sk, nil, ar))
}

// AnalyzeCompiled is Analyze against prebuilt compiled artifacts: sk holds
// the block's model-independent dependency structure and descs the
// instructions resolved against m (nil descs resolve here). The Result is
// freshly allocated and byte-identical to Analyze's for the same inputs —
// callers (internal/pipeline) may memoize and persist it interchangeably.
func (a *Analyzer) AnalyzeCompiled(b *isa.Block, m *uarch.Model, sk *depgraph.Skeleton, descs []uarch.Desc) (*Result, error) {
	ar := arenaPool.Get().(*ResultArena)
	defer arenaPool.Put(ar)
	return copyOut(a.AnalyzeArena(b, m, sk, descs, ar))
}

// AnalyzeArena computes the analysis of b on m into ar and returns the
// arena-owned Result — the one implementation behind every entry point,
// and the zero-allocation internal path. sk must be a skeleton of b's
// content built under a.Opt's structural options (NewSkeleton validated
// the block); descs the instructions resolved against m, or nil to
// resolve them here. See ResultArena for the (strict) validity contract.
func (a *Analyzer) AnalyzeArena(b *isa.Block, m *uarch.Model, sk *depgraph.Skeleton, descs []uarch.Desc, ar *ResultArena) (*Result, error) {
	if descs == nil {
		var err error
		if descs, err = sk.AppendDescs(ar.descs[:0], m, a.Opt.DegradeUnknown); err != nil {
			return nil, err
		}
		ar.descs = descs
	}
	g := sk.Instantiate(b, m, descs, &ar.dg)

	res := &ar.res
	*res = Result{Block: b, Model: m, Instrs: ar.instrs[:0]}
	nPorts := len(m.Ports)
	ar.jobs = ar.jobs[:0]
	ar.jobSpan = append(ar.jobSpan[:0], 0)
	for i := range b.Instrs {
		d := &g.Nodes[i].Desc
		ir := InstrReport{
			Index:      i,
			Text:       ar.text(b, i),
			Uops:       d.UopCount(),
			Lat:        d.Lat,
			TotalLat:   d.TotalLat,
			Throughput: d.ThroughputCycles(),
		}
		if d.Match != uarch.MatchExact {
			ir.Match = d.Match.String()
		}
		res.Coverage.add(b.Instrs[i].Mnemonic, d.Match)
		for _, u := range d.Uops {
			ar.jobs = append(ar.jobs, balanceJob{Mask: u.Ports, Cycles: u.Cycles})
		}
		ar.jobSpan = append(ar.jobSpan, int32(len(ar.jobs)))
		res.TotalUops += d.UopCount()
		res.Instrs = append(res.Instrs, ir)
	}
	ar.instrs = res.Instrs
	// Per-instruction pressure over the instruction's span of the shared
	// job array, each copied into its row of the flat port-load matrix.
	ar.portLoads = grow(ar.portLoads, len(res.Instrs)*nPorts)
	for i := range res.Instrs {
		row := ar.portLoads[i*nPorts : (i+1)*nPorts : (i+1)*nPorts]
		copy(row, ar.heuristicInto(ar.jobs[ar.jobSpan[i]:ar.jobSpan[i+1]], nPorts))
		res.Instrs[i].PortLoads = row
	}
	ar.portPressure = grow(ar.portPressure, nPorts)
	copy(ar.portPressure, ar.heuristicInto(ar.jobs, nPorts))
	res.PortPressure = ar.portPressure

	res.TPBound = ar.optimalBound(ar.jobs, nPorts)
	res.GreedyTPBound = ar.greedyBound(ar.jobs, nPorts)
	res.IssueBound = float64(res.TotalUops) / float64(m.IssueWidth)
	res.CriticalPath, res.CPPath = g.CriticalPath(ar.cpPath)
	ar.cpPath = res.CPPath
	res.LCD = g.LoopCarried(ar.lcdPath)
	if res.LCD.Path != nil {
		ar.lcdPath = res.LCD.Path
	}

	res.Prediction = math.Max(res.TPBound, res.IssueBound)
	res.Bound = "port"
	if res.IssueBound > res.TPBound {
		res.Bound = "issue"
	}
	if res.LCD.Cycles > res.Prediction {
		res.Prediction = res.LCD.Cycles
		res.Bound = "lcd"
	}
	return res, nil
}

// CyclesPerElement converts a per-iteration prediction into cycles per
// scalar element given how many elements one block iteration processes.
func CyclesPerElement(cyclesPerIter float64, elemsPerIter int) (float64, error) {
	if elemsPerIter <= 0 {
		return 0, fmt.Errorf("core: elemsPerIter must be positive, got %d", elemsPerIter)
	}
	return cyclesPerIter / float64(elemsPerIter), nil
}
