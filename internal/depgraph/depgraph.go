// Package depgraph builds register/memory dependency graphs over an
// instruction block and extracts the two dataflow quantities the in-core
// model needs: the critical path through one loop iteration and the
// longest loop-carried dependency (LCD) cycle.
//
// The graph is built for the steady state of an infinitely repeated block:
// edges are classified as intra-iteration or loop-carried (producer in
// iteration i, consumer in iteration i+1).
package depgraph

import (
	"fmt"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// EdgeKind classifies dependency edges.
type EdgeKind int

const (
	// EdgeRAW is a true register read-after-write dependency.
	EdgeRAW EdgeKind = iota
	// EdgeWAW is a register write-after-write (false) dependency.
	EdgeWAW
	// EdgeWAR is a register write-after-read (false) dependency.
	EdgeWAR
	// EdgeMem is a store-to-load memory dependency.
	EdgeMem
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeRAW:
		return "RAW"
	case EdgeWAW:
		return "WAW"
	case EdgeWAR:
		return "WAR"
	case EdgeMem:
		return "MEM"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is one dependency from instruction From to instruction To.
type Edge struct {
	From, To int
	Kind     EdgeKind
	// Carried marks a loop-carried edge (From in iteration i, To in
	// iteration i+1).
	Carried bool
	// Lat is the latency in cycles charged along this edge.
	Lat float64
	// Reg is the register carrying the dependency (RAW/WAW/WAR).
	Reg isa.RegKey
	// ViaAccumulator marks RAW edges consumed as the accumulator operand
	// of a fused multiply-add; some cores forward these with reduced
	// latency (see sim).
	ViaAccumulator bool
}

// Node is one instruction's resolved descriptor.
type Node struct {
	Index int
	Desc  uarch.Desc
}

// Options tune graph construction.
type Options struct {
	// IncludeFalseDeps adds WAW/WAR edges (a machine without register
	// renaming); the default models ideal renaming, matching OSACA.
	IncludeFalseDeps bool
	// MemCarriedWindow is the maximum |displacement delta| in bytes for
	// which a store and a load off the same base/index registers are
	// considered overlapping across iterations. Zero disables memory
	// carried dependencies.
	MemCarriedWindow int64
	// DegradeUnknown resolves instructions through the model's degraded
	// lookup path: mnemonics outside the instruction table receive a
	// synthesized conservative descriptor (uarch.MatchUnknown) instead
	// of failing graph construction. Node.Desc.Match records how each
	// instruction resolved, so callers can report coverage.
	DegradeUnknown bool
}

// DefaultOptions matches the analyzer's assumptions (ideal renaming,
// memory-carried detection within isa.MemCarriedWindow).
func DefaultOptions() Options {
	return Options{MemCarriedWindow: isa.MemCarriedWindow}
}

// regAccess locates one register read or write: instruction idx in
// simulated iteration iter.
type regAccess struct {
	idx  int
	iter int
}

// edgeIdent is the dedupe identity of an edge.
type edgeIdent struct {
	from, to int
	kind     EdgeKind
	carried  bool
	reg      isa.RegKey
}

// skelEdge is the model-independent structural form of an Edge: everything
// except the latency, which is a pure function of the edge kind and the
// endpoint descriptors and is filled in per model (fillEdges). Keeping the
// structure separate is what makes it cacheable across models (Skeleton).
type skelEdge struct {
	from, to int32
	kind     EdgeKind
	carried  bool
	viaAcc   bool
	reg      isa.RegKey
}

// Scratch holds every reusable arena skeleton construction, graph
// instantiation, and path extraction need, so a steady stream of analyses
// does O(1) heap work after warmup. The zero value is ready. A Scratch
// serves one goroutine at a time. A Skeleton built against it
// (NewSkeletonScratch) is valid until the scratch's next skeleton build;
// a Graph instantiated into it (Skeleton.Instantiate) until its next
// instantiation or skeleton build. Instantiating a scratch-built skeleton
// into its own scratch is allowed: the two use disjoint arenas.
type Scratch struct {
	// Skeleton arenas.
	skeleton Skeleton
	interner isa.RegInterner
	effects  isa.EffectsArena
	effs     []isa.Effects
	skel     []skelEdge
	out      [][]int
	readIDs  [][]int32
	writeIDs [][]int32

	lastWriter  []regAccess
	lastReaders [][]regAccess
	dedupe      map[edgeIdent]struct{}

	// Graph and path arenas.
	graph Graph
	nodes []Node
	edges []Edge
	dist  []float64
	prev  []int
}

// growOuter returns s resized to n entries, keeping existing entries (and
// therefore the capacity of any inner slices) wherever possible.
func growOuter[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Graph is the dependency graph of one block against one machine model.
// Graphs come only from Skeleton.Instantiate.
type Graph struct {
	Block *isa.Block
	Model *uarch.Model
	Nodes []Node
	Edges []Edge
	// out[i] lists indices into Edges with From == i.
	out [][]int
	// scr backs the path queries' arenas.
	scr *Scratch
}

// buildStructure appends the model-independent edge structure of one block
// to s.skel and returns it: register RAW edges (plus WAW/WAR under
// IncludeFalseDeps) in the order the two-iteration walk discovers them,
// deduped keeping first occurrences, followed by memory edges. Nothing here
// reads a uarch.Desc — structure depends only on block content, dialect,
// and the structural options — which is what lets a Skeleton cache it
// across models; latencies are filled per model by fillEdges.
func buildStructure(b *isa.Block, effs []isa.Effects, opt Options, s *Scratch) []skelEdge {
	n := len(effs)
	s.skel = s.skel[:0]
	// lastWriter[id] = index of the most recent writer of the register
	// with that interned ID in program order; simulate two consecutive
	// iterations to find carried edges. The interner is shared with the
	// simulator's compile step (isa.RegInterner): both lower RegKey maps
	// to dense-ID slices, so per-register tracking is slice indexing.
	s.readIDs = growOuter(s.readIDs, n)
	s.writeIDs = growOuter(s.writeIDs, n)
	for i := range effs {
		s.readIDs[i] = s.interner.InternAll(s.readIDs[i][:0], effs[i].Reads)
		s.writeIDs[i] = s.interner.InternAll(s.writeIDs[i][:0], effs[i].Writes)
	}
	nRegs := s.interner.Len()
	s.lastWriter = growOuter(s.lastWriter, nRegs)
	for i := range s.lastWriter {
		s.lastWriter[i] = regAccess{idx: -1}
	}
	s.lastReaders = growOuter(s.lastReaders, nRegs)
	for i := range s.lastReaders {
		s.lastReaders[i] = s.lastReaders[i][:0]
	}
	lastWriter, lastReaders := s.lastWriter, s.lastReaders

	addRAW := func(from regAccess, to regAccess, key isa.RegKey) {
		if from.iter == 1 && to.iter == 1 {
			return // duplicate of the 0->0 intra edge
		}
		carried := from.iter != to.iter
		if from.iter == 0 && to.iter == 0 {
			carried = false
		}
		// Only keep iteration-0 sourced edges and 0->1 carried edges.
		if from.iter > to.iter {
			return
		}
		consumer := &b.Instrs[to.idx]
		acc, isAcc := isa.FMAAccumulator(consumer, b.Dialect)
		s.skel = append(s.skel, skelEdge{
			from: int32(from.idx), to: int32(to.idx), kind: EdgeRAW, carried: carried,
			reg: key, viaAcc: isAcc && acc == key,
		})
	}

	for iter := 0; iter < 2; iter++ {
		for i := 0; i < n; i++ {
			eff := &effs[i]
			cur := regAccess{idx: i, iter: iter}
			for ri, r := range eff.Reads {
				id := s.readIDs[i][ri]
				if w := lastWriter[id]; w.idx >= 0 {
					if !(w.iter == iter && w.idx == i) {
						addRAW(w, cur, r)
					}
				}
				lastReaders[id] = append(lastReaders[id], cur)
			}
			for wi, w := range eff.Writes {
				id := s.writeIDs[i][wi]
				if opt.IncludeFalseDeps {
					if pw := lastWriter[id]; pw.idx >= 0 && !(pw.iter == 1 && iter == 1) && pw.iter <= iter {
						s.skel = append(s.skel, skelEdge{
							from: int32(pw.idx), to: int32(i), kind: EdgeWAW,
							carried: pw.iter != iter, reg: w,
						})
					}
					for _, rd := range lastReaders[id] {
						if rd.idx == i && rd.iter == iter {
							continue
						}
						if rd.iter == 1 && iter == 1 {
							continue
						}
						if rd.iter <= iter {
							s.skel = append(s.skel, skelEdge{
								from: int32(rd.idx), to: int32(i), kind: EdgeWAR,
								carried: rd.iter != iter, reg: w,
							})
						}
					}
				}
				lastWriter[id] = regAccess{idx: i, iter: iter}
				lastReaders[id] = lastReaders[id][:0]
			}
		}
	}
	s.skel = dedupeStructure(s.skel, s)
	isa.StoreLoadDeps(effs, opt.MemCarriedWindow, func(st, ld int, carried bool) {
		s.skel = append(s.skel, skelEdge{from: int32(st), to: int32(ld), kind: EdgeMem, carried: carried})
	})
	return s.skel
}

// dedupeStructure removes repeated edges in place, keeping first
// occurrences in order. Memory edges are appended after this runs,
// preserving the historical behavior of deduping register edges only.
func dedupeStructure(edges []skelEdge, s *Scratch) []skelEdge {
	if s.dedupe == nil {
		s.dedupe = make(map[edgeIdent]struct{}, len(edges))
	} else {
		clear(s.dedupe)
	}
	w := 0
	for _, e := range edges {
		k := edgeIdent{int(e.from), int(e.to), e.kind, e.carried, e.reg}
		if _, dup := s.dedupe[k]; dup {
			continue
		}
		s.dedupe[k] = struct{}{}
		edges[w] = e
		w++
	}
	return edges[:w]
}

// chainLat is the latency a producer contributes along a register
// dependency chain. For instructions with folded memory sources the load
// part is pipelined off the address stream and does not serialize register
// chains, so only the compute latency counts; pure loads contribute their
// full load-to-use latency.
func chainLat(d *uarch.Desc) float64 {
	if d.Lat > 0 {
		return float64(d.Lat)
	}
	return float64(d.TotalLat)
}

// fillEdges materializes structural edges into dst with each kind's
// model-dependent latency: RAW edges charge the producer's chain latency,
// false dependencies one rename cycle, and memory edges the store-forward
// latency (isa.StoreForwardDelay + loadLat) minus the consuming load's
// own chain contribution (charged by the load's outgoing edges, so the
// total store→load-result cost equals the forward latency), floored at
// one cycle.
func fillEdges(dst []Edge, skel []skelEdge, nodes []Node, loadLat int) []Edge {
	fwd := loadLat + isa.StoreForwardDelay
	for i := range skel {
		se := &skel[i]
		e := Edge{
			From: int(se.from), To: int(se.to), Kind: se.kind, Carried: se.carried,
			Reg: se.reg, ViaAccumulator: se.viaAcc,
		}
		switch se.kind {
		case EdgeRAW:
			e.Lat = chainLat(&nodes[se.from].Desc)
		case EdgeWAW, EdgeWAR:
			e.Lat = 1
		case EdgeMem:
			e.Lat = float64(fwd) - chainLat(&nodes[se.to].Desc)
			if e.Lat < 1 {
				e.Lat = 1
			}
		}
		dst = append(dst, e)
	}
	return dst
}

// CriticalPath returns the longest latency path through one iteration,
// considering only intra-iteration edges (cycles are impossible within one
// iteration of straight-line code), and the instruction indices on it in
// program order (the OSACA report's CP column). The path is written into
// buf's backing array (buf[:0]) and is only valid until the buffer is
// reused; a nil buf allocates a path safe to retain.
func (g *Graph) CriticalPath(buf []int) (float64, []int) {
	n := len(g.Nodes)
	s := g.scr
	// dist[i] = longest path ending at i, including i's own latency.
	s.dist = growOuter(s.dist, n)
	s.prev = growOuter(s.prev, n)
	dist, prev := s.dist[:n], s.prev[:n]
	for i := range dist {
		dist[i] = 0
		prev[i] = -1
	}
	best, bestEnd := 0.0, -1
	for i := 0; i < n; i++ {
		self := float64(g.Nodes[i].Desc.TotalLat)
		if dist[i] < self {
			dist[i] = self
		}
		if dist[i] > best {
			best, bestEnd = dist[i], i
		}
		for _, ei := range g.out[i] {
			e := &g.Edges[ei]
			if e.Carried || e.To <= i {
				continue
			}
			if d := dist[i] + float64(g.Nodes[e.To].Desc.TotalLat); d > dist[e.To] {
				dist[e.To] = d
				prev[e.To] = i
			}
		}
	}
	path := buf[:0]
	for v := bestEnd; v >= 0; v = prev[v] {
		path = append(path, v)
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return best, path
}

// LCDResult describes the dominant loop-carried dependency.
type LCDResult struct {
	// Cycles is the latency of the longest carried cycle per iteration.
	Cycles float64
	// Path lists the instruction indices on the dominant cycle, starting
	// at the carried edge's target.
	Path []int
	// ViaAccumulator is true when every latency-bearing edge on the
	// cycle is an FMA accumulator edge (candidates for accumulator
	// forwarding on Neoverse V2).
	ViaAccumulator bool
}

// LoopCarried computes the longest loop-carried dependency cycle,
// i.e. the steady-state minimum initiation interval due to dataflow.
//
// The winning cycle's path is written into buf's backing array (buf[:0])
// and is only valid until the buffer is reused; a nil buf allocates a
// path safe to retain.
func (g *Graph) LoopCarried(buf []int) LCDResult {
	// First pass finds the dominant carried edge by cycle latency alone;
	// the (allocating) path is materialized only for the winner.
	best := LCDResult{}
	bestEdge := -1
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if !e.Carried {
			continue
		}
		// Longest path from e.To to e.From using intra-iteration edges,
		// then close the cycle with e.
		lat := g.longestPathBetween(e.To, e.From)
		if lat < 0 {
			continue // e.From not reachable from e.To
		}
		total := lat + e.Lat
		if total > best.Cycles {
			best = LCDResult{Cycles: total, ViaAccumulator: e.Kind == EdgeRAW && e.ViaAccumulator}
			bestEdge = ei
		}
	}
	if bestEdge >= 0 {
		e := &g.Edges[bestEdge]
		g.longestPathBetween(e.To, e.From)
		best.Path = g.materializePath(e.To, e.From, buf)
	}
	return best
}

// longestPathBetween returns the longest latency path from src to dst using
// only intra-iteration edges, where path latency is the sum of edge
// latencies (edge latency = producer latency). Returns -1 when dst is
// unreachable; a zero-length path (src == dst) has latency 0. The
// predecessor chain is left in the scratch for materializePath.
func (g *Graph) longestPathBetween(src, dst int) float64 {
	n := len(g.Nodes)
	s := g.scr
	const unreach = -1.0
	s.dist = growOuter(s.dist, n)
	s.prev = growOuter(s.prev, n)
	dist, prev := s.dist[:n], s.prev[:n]
	for i := range dist {
		dist[i] = unreach
		prev[i] = -1
	}
	dist[src] = 0
	for i := 0; i < n; i++ {
		if dist[i] == unreach {
			continue
		}
		for _, ei := range g.out[i] {
			e := &g.Edges[ei]
			if e.Carried || e.To <= i {
				continue
			}
			if d := dist[i] + e.Lat; d > dist[e.To] {
				dist[e.To] = d
				prev[e.To] = i
			}
		}
	}
	return dist[dst]
}

// materializePath rebuilds the src→dst path from the predecessor chain the
// last longestPathBetween left behind, appended to buf[:0] (a nil buf
// yields a fresh slice safe to retain).
func (g *Graph) materializePath(src, dst int, buf []int) []int {
	prev := g.scr.prev
	path := buf[:0]
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
		if v == src {
			break
		}
	}
	// Reverse.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path
}
