package core

import (
	"slices"
	"sync"

	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/uarch"
)

// ResultArena owns every buffer one analysis needs: the dependency-graph
// arenas, the resolved descriptors, the port balancer's flat state, and
// every backing array the returned Result writes — the Result struct
// itself, the per-instruction reports, a flat port-load matrix, the path
// buffers, and a per-block cache of rendered instruction text. With a warm
// arena, AnalyzeArena performs zero heap allocations per call.
//
// The zero value is ready. An arena serves one goroutine at a time.
// AnalyzeArena's Result is INVALID after the arena's next use: callers
// must consume it (or copy what they keep) before analyzing again, must
// not share it across goroutines, and must never hand it to a cache or
// the persistent store. Analyze and AnalyzeCompiled fill a pooled arena
// and return a copy that shares no arena memory; use them for results
// that escape.
type ResultArena struct {
	dg    depgraph.Scratch
	descs []uarch.Desc

	// jobs is the block's full µ-op job list; jobSpan[i]..jobSpan[i+1]
	// is instruction i's slice of it.
	jobs    []balanceJob
	jobSpan []int32

	// Flat balancer state: ports holds every job's candidate port
	// indices back to back (portSpan[j]..portSpan[j+1] is job j's span),
	// shares the per-candidate cycle split aligned with ports.
	ports    []int32
	portSpan []int32
	shares   []float64
	loads    []float64

	// Distinct-mask aggregation for optimalBound, plus an
	// epoch-stamped direct-index table for union dedup: seen[u] == epoch
	// marks union u visited in the current call, so reuse never requires
	// zeroing the table.
	masks []uarch.PortMask
	works []float64
	seen  []uint32
	epoch uint32

	res          Result
	instrs       []InstrReport
	portLoads    []float64 // flat len(Instrs)×nPorts backing
	portPressure []float64
	cpPath       []int
	lcdPath      []int

	// texts caches Instruction.String() per block pointer: generated
	// blocks render text on every String call, so re-rendering only when
	// the block changes is what amortizes Text to zero on repeat analyses.
	// Keying on the pointer relies on blocks being immutable once
	// analyzed, which every caller (parse caches, generators) upholds.
	texts      []string
	textsBlock *isa.Block
}

// arenaPool backs every analysis that does not bring its own arena, so
// concurrent callers (pipeline jobs, served requests) share arenas safely.
var arenaPool = sync.Pool{New: func() any { return new(ResultArena) }}

// grow returns s resized to length n, preserving existing contents (and
// backing capacity) wherever possible; callers reinitialize the prefix
// they use.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// text returns the cached rendering of b's instruction i, rebuilding the
// cache when the arena last served a different block.
func (ar *ResultArena) text(b *isa.Block, i int) string {
	if ar.textsBlock != b {
		ar.texts = ar.texts[:0]
		for j := range b.Instrs {
			ar.texts = append(ar.texts, b.Instrs[j].String())
		}
		ar.textsBlock = b
	}
	return ar.texts[i]
}

// copyOut returns a freshly allocated copy of the arena Result r that
// shares no memory with the arena, so it may be memoized and persisted.
// Instruction text is shared: strings are immutable. Empty paths and
// load vectors come out nil, as from an allocating append.
func copyOut(r *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	out := *r
	floats := make([]float64, 0, (len(r.Instrs)+1)*len(r.PortPressure))
	out.Instrs = make([]InstrReport, len(r.Instrs))
	for i, ir := range r.Instrs {
		ir.PortLoads = carve(&floats, ir.PortLoads)
		out.Instrs[i] = ir
	}
	out.PortPressure = carve(&floats, r.PortPressure)
	ints := make([]int, 0, len(r.CPPath)+len(r.LCD.Path))
	out.CPPath = carve(&ints, r.CPPath)
	out.LCD.Path = carve(&ints, r.LCD.Path)
	out.Coverage.UnknownMnemonics = slices.Clone(r.Coverage.UnknownMnemonics)
	return &out, nil
}

// carve appends src to *buf, which must have room for it, and returns the
// appended span with its capacity clipped; an empty src yields nil.
func carve[T any](buf *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	n := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[n:len(*buf):len(*buf)]
}
