package pipeline

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/ibench"
	"incore/internal/isa"
	"incore/internal/mca"
	"incore/internal/memsim"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// This file defines the memoized entry points the experiment runners
// share. Keys are built from *content*, not identity: a block is keyed by
// its architecture, dialect, and rendered assembly text — not its name —
// so the suite's duplicate code bodies (416 test blocks, 229 unique)
// collapse onto single computations, and so do identical analyses issued
// by different experiments (fig3, ECM, node-perf all analyze the same
// Ofast variants).
//
// Cached values are shared: callers must treat returned pointers, slices,
// and maps as immutable.
//
// With a persistent store attached (AttachStore), every wrapper here
// reads through and writes back to it on memo misses, so results also
// survive across processes; see persist.go for the tiering contract.

// BlockKey returns the content key of a block: everything that determines
// an analysis or simulation outcome, excluding the display name. It is
// arch, NUL, the decimal dialect, NUL and the block's Text, built in one
// allocation of exact size.
func BlockKey(b *isa.Block) string {
	var num [20]byte
	dialect := strconv.AppendInt(num[:0], int64(b.Dialect), 10)
	var sb strings.Builder
	sb.Grow(len(b.Arch) + len(dialect) + 2 + b.TextLen())
	sb.WriteString(b.Arch)
	sb.WriteByte(0)
	sb.Write(dialect)
	sb.WriteByte(0)
	b.WriteText(&sb)
	return sb.String()
}

// simConfigKey folds every outcome-affecting Config field into the key.
// Trace is deliberately excluded — traced runs bypass the cache entirely —
// and so is DisableSteadyState: extrapolated and full-length runs are
// bit-identical by contract (sim/steady.go), so both may share entries.
func simConfigKey(cfg sim.Config) string {
	return fmt.Sprintf("%d|%d|%d|%d|%g|%t|%d",
		cfg.WarmupIters, cfg.MeasureIters, cfg.FMAAccForwardLat,
		cfg.CrossOpForwardSave, cfg.DivEarlyExitFactor,
		cfg.DisableRenaming, cfg.IssueWidthOverride)
}

// Analyze memoizes core.Analyzer.Analyze by (analyzer options, machine
// model, block content). b must be in m's dialect, as core.Analyze
// requires; callers parse with m.Dialect. With a store attached, results persist across
// processes in core.Result's stable wire form; a warm decode reattaches
// the requesting block and model, whose content the key already pins.
//
// Models are identified by CacheKey, not bare key: an unmodified
// built-in keeps its bare key (so stores written by earlier builds stay
// warm), while a runtime-loaded or what-if-mutated model carries its
// content fingerprint in the key and can never collide with a different
// scenario that happens to share its name. The same rule applies to
// Simulate, MCAPredict, and MeasureInstr below.
//
// Cold computations fill an arena from core's internal sync.Pool, so
// concurrent pipeline jobs (and the serve tier routing through this
// function) share arenas safely; the memoized Result is copied out and
// never aliases pooled memory.
func Analyze(an *core.Analyzer, b *isa.Block, m *uarch.Model) (*core.Result, error) {
	res, _, err := AnalyzeWarm(an, b, m)
	return res, err
}

// AnalyzeWarm is Analyze reporting provenance: warm is true when this
// call was served without a fresh computation — a memo hit, a
// singleflight attach to another requester's in-flight computation, or
// a store read. It is the per-item resume-accounting hook the job queue
// uses: after a kill-and-restart, a resumed job's already-stored items
// come back warm, and the cold count exposes exactly what was truly
// recomputed.
//
// The flag is race-free by construction: the computed variable is
// written only inside the compute closure, which the memo tier runs
// under sync.Once — callers that did not execute it never observe a
// write.
func AnalyzeWarm(an *core.Analyzer, b *isa.Block, m *uarch.Model) (*core.Result, bool, error) {
	key := "analyze\x00" + an.Fingerprint() + "\x00" + m.CacheKey() + "\x00" + BlockKey(b)
	computed := false
	res, err := doStored(shared, key,
		(*core.Result).MarshalStable,
		func(data []byte) (*core.Result, error) { return core.UnmarshalStable(data, b, m) },
		func() (*core.Result, error) { computed = true; return analyzeCold(an, b, m) })
	return res, err == nil && !computed, err
}

// Cell is the compact, persistable projection of one analysis that a
// design-space sweep stores per (model variant, block): the scalar
// outcomes downstream projections (ECM, Roofline, frequency) and Pareto
// fronts consume, without the per-instruction reports a full core.Result
// carries. Small cells keep a hundreds-of-variants sweep's store
// footprint proportional to its information content.
type Cell struct {
	// Prediction is the lower-bound cycles per iteration; Bound names
	// the binding constraint ("port", "issue", "lcd").
	Prediction float64 `json:"prediction"`
	Bound      string  `json:"bound"`
	// TPBound / IssueBound / CriticalPath / LCDCycles are the individual
	// bounds behind the prediction.
	TPBound      float64 `json:"tp_bound"`
	IssueBound   float64 `json:"issue_bound"`
	CriticalPath float64 `json:"critical_path"`
	LCDCycles    float64 `json:"lcd_cycles"`
	// TotalUops counts µ-ops per iteration; Unknown counts instructions
	// resolved through the degraded unknown-descriptor path.
	TotalUops int `json:"total_uops"`
	Unknown   int `json:"unknown,omitempty"`
	// TOLIt / TnOLIt are ecm.InCoreSplit's per-iteration ECM in-core
	// inputs; scaling by 8/elemsPerIter yields ecm.InCoreInputs'
	// cache-line units. They are stored because the split depends on the
	// analyzing model's port masks, which the cell (unlike a full result)
	// no longer carries.
	TOLIt  float64 `json:"t_ol_it"`
	TnOLIt float64 `json:"t_nol_it"`
}

// CellOf projects an analysis result to its sweep cell.
func CellOf(res *core.Result) Cell {
	c := Cell{
		Prediction:   res.Prediction,
		Bound:        res.Bound,
		TPBound:      res.TPBound,
		IssueBound:   res.IssueBound,
		CriticalPath: res.CriticalPath,
		LCDCycles:    res.LCD.Cycles,
		TotalUops:    res.TotalUops,
		Unknown:      res.Coverage.Unknown,
	}
	c.TOLIt, c.TnOLIt = ecm.InCoreSplit(res)
	return c
}

// CellSlot is one compute-once sweep cell, shared within one sweep run by
// every variant with the same port signature, for one block.
// A Cell reads only signature-covered model state — the dialect, the
// descriptor table, the load latency, the port list, the issue width,
// and the load, store-AGU, store-data and wide-load port masks — so
// every variant of a signature would compute the same Cell; the slot
// computes it once. The zero slot
// is not usable: Key must hold BlockKey of the slot's block, rendered
// once by the slot's owner.
type CellSlot struct {
	Key string

	once     sync.Once
	analyses int
	cell     Cell
	err      error
}

// Analyses reports how many analyses the slot ran: 1 once a miss has
// filled it, else 0. Read it only after every AnalyzeCellWarm call on
// the slot has returned.
func (s *CellSlot) Analyses() int { return s.analyses }

// AnalyzeCellWarm is the design-space sweep's analysis entry point: it
// memoizes (and, with a store attached, persists) the Cell projection of
// one analysis, keyed like AnalyzeWarm by (analyzer options, model cache
// key, block content) — the full Model.CacheKey, never the port
// signature, so a sweep is warm-resumable per variant and a variant's
// cells can never collide with the built-in scenario sharing its key.
// A memo and store miss fills the value from slot, which b and every
// model sharing m's port signature use within one sweep run under one
// analyzer: the first miss computes it through the zero-allocation
// AnalyzeInternal arena path, projecting the arena-owned Result to a
// value Cell before returning, so no arena memory escapes; later misses
// take the slot's Cell or error. ar is bound to the calling goroutine
// like any InternalArena. warm reports provenance exactly as
// AnalyzeWarm does: a miss counts cold whether or not it ran the
// analysis.
func AnalyzeCellWarm(an *core.Analyzer, b *isa.Block, m *uarch.Model, ar *InternalArena, slot *CellSlot) (Cell, bool, error) {
	key := "sweepcell\x00" + an.Fingerprint() + "\x00" + m.CacheKey() + "\x00" + slot.Key
	computed := false
	cell, err := doStoredJSON(shared, key, func() (Cell, error) {
		computed = true
		slot.once.Do(func() {
			slot.analyses++
			res, err := AnalyzeInternal(an, b, m, ar)
			if err != nil {
				slot.err = err
				return
			}
			slot.cell = CellOf(res)
		})
		return slot.cell, slot.err
	})
	return cell, err == nil && !computed, err
}

// Simulate memoizes sim.Run by (machine model, simulator config, block
// content). Runs carrying a trace callback execute directly — a trace is a
// side effect the result cache must not swallow — but still draw their
// compiled Program from the artifact tier: tracing changes what Run
// reports, never what Compile produces, so traced and untraced runs of
// one (block, model) share a single compile.
func Simulate(b *isa.Block, m *uarch.Model, cfg sim.Config) (*sim.Result, error) {
	if cfg.Trace != nil {
		p, err := CompileProgram(b, m)
		if err != nil {
			return nil, err
		}
		return p.Run(cfg)
	}
	key := "sim\x00" + m.CacheKey() + "\x00" + simConfigKey(cfg) + "\x00" + BlockKey(b)
	return doStoredJSON(shared, key, func() (*sim.Result, error) {
		p, err := CompileProgram(b, m)
		if err != nil {
			return nil, err
		}
		return p.Run(cfg)
	})
}

// MCAPredict memoizes mca.PredictDefault by (machine model, block content).
// The memo miss replays a cached static schedule (compiledMCA), so
// distinct sim-config sweeps and post-restart recomputations share the
// lowering work.
func MCAPredict(b *isa.Block, m *uarch.Model) (*mca.Result, error) {
	key := "mca\x00" + m.CacheKey() + "\x00" + BlockKey(b)
	return doStoredJSON(shared, key, func() (*mca.Result, error) {
		c, err := compiledMCA(b, m)
		if err != nil {
			return nil, err
		}
		return c.Predict()
	})
}

// MeasureInstr memoizes ibench.Measure by (machine model, instruction
// kind, simulator config).
func MeasureInstr(m *uarch.Model, kind ibench.Kind, cfg sim.Config) (*ibench.Result, error) {
	if cfg.Trace != nil {
		return ibench.Measure(m, kind, cfg)
	}
	key := "ibench\x00" + m.CacheKey() + "\x00" + strconv.Itoa(int(kind)) + "\x00" + simConfigKey(cfg)
	return doStoredJSON(shared, key, func() (*ibench.Result, error) { return ibench.Measure(m, kind, cfg) })
}

// WACurve runs the store benchmark on m's memory system across core
// counts and returns the traffic ratio per active core count (a Fig. 4
// series). The whole curve is one memo entry keyed by (m.CacheKey(),
// store flavour, sweep); on a miss its samples run in parallel on the
// default pool, each on a fresh memsim system. memsim.System.run resets
// all state per run, so this equals sweeping one system serially.
func WACurve(m *uarch.Model, nt bool, counts []int) (map[int]float64, error) {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = strconv.Itoa(c)
	}
	ck := fmt.Sprintf("wacurve\x00%s\x00%t\x00%s", m.CacheKey(), nt, strings.Join(parts, ","))
	return doStoredJSON(shared, ck, func() (map[int]float64, error) {
		cfg, err := memsim.ConfigFor(m)
		if err != nil {
			return nil, err
		}
		ratios, err := Map(Default(), counts, func(n int) (float64, error) {
			sys, err := memsim.NewSystem(cfg)
			if err != nil {
				return 0, err
			}
			r, err := sys.RunStoreStream(n, memsim.DefaultStoreLinesPerCore, nt)
			return r.WARatio(), err
		})
		if err != nil {
			return nil, err
		}
		out := make(map[int]float64, len(counts))
		for i, n := range counts {
			out[n] = ratios[i]
		}
		return out, nil
	})
}

// Triad memoizes one triad sample on m's memory system — (m.CacheKey(),
// active cores, lines per core, store flavour) — on a fresh memsim
// system. memsim.System.run resets all state per run, so a fresh system
// per sample is equivalent to a shared system swept serially.
func Triad(m *uarch.Model, cores, linesPerCore int, nt bool) (memsim.TrafficResult, error) {
	ck := fmt.Sprintf("triad\x00%s\x00%d\x00%d\x00%t", m.CacheKey(), cores, linesPerCore, nt)
	return doStoredJSON(shared, ck, func() (memsim.TrafficResult, error) {
		cfg, err := memsim.ConfigFor(m)
		if err != nil {
			return memsim.TrafficResult{}, err
		}
		sys, err := memsim.NewSystem(cfg)
		if err != nil {
			return memsim.TrafficResult{}, err
		}
		return sys.RunTriad(cores, linesPerCore, nt)
	})
}
