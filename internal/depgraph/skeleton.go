package depgraph

import (
	"fmt"
	"slices"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// Skeleton is the model-independent compiled form of a block's dependency
// structure: per-instruction architectural effects plus the deduped edge
// list with everything but latencies resolved, and the precomputed
// outgoing-edge adjacency. Building a graph for a model then reduces to
// resolving descriptors (ResolveDescs, itself cacheable per model) and
// filling edge latencies (Instantiate) — no effect extraction, no register
// interning, no two-iteration walk, no dedupe map.
//
// A Skeleton from NewSkeleton is immutable and safe to share across
// goroutines and models (one from NewSkeletonScratch is scratch-owned). It
// retains its source block (pinning the MemOp pointers the effects
// reference), so cached skeletons keep their blocks alive — intended for
// the process-lifetime artifact cache in internal/pipeline.
type Skeleton struct {
	block *isa.Block
	effs  []isa.Effects
	edges []skelEdge
	// out[i] lists indices into edges with from == i; shared read-only by
	// every instantiated graph.
	out [][]int
}

// NewSkeleton builds the durable structure of b under opt's structural
// fields (IncludeFalseDeps, MemCarriedWindow; edge latencies are filled
// at Instantiate). It is NewSkeletonScratch over a fresh scratch,
// so the skeleton owns its memory and may be cached and shared.
func NewSkeleton(b *isa.Block, opt Options) (*Skeleton, error) {
	sk, err := NewSkeletonScratch(b, opt, &Scratch{})
	if err != nil {
		return nil, err
	}
	// Copy the arrays out of the scratch at their exact sizes, so a
	// cached skeleton retains neither the construction tables nor the
	// slack (and the outgrown arrays) of the scratch's append-grown slabs.
	owned := *sk
	owned.effs = compactEffects(sk.effs)
	owned.edges = slices.Clone(sk.edges)
	return &owned, nil
}

// compactEffects copies effs into exactly sized register and memory-operand
// slabs; empty sets stay nil.
func compactEffects(effs []isa.Effects) []isa.Effects {
	var nRegs, nMems int
	for i := range effs {
		nRegs += len(effs[i].Reads) + len(effs[i].Writes)
		nMems += len(effs[i].LoadOps) + len(effs[i].StoreOps)
	}
	regs := make([]isa.RegKey, 0, nRegs)
	mems := make([]*isa.MemOp, 0, nMems)
	out := make([]isa.Effects, len(effs))
	for i, e := range effs {
		out[i] = isa.Effects{
			Reads:    carve(&regs, e.Reads),
			Writes:   carve(&regs, e.Writes),
			LoadOps:  carve(&mems, e.LoadOps),
			StoreOps: carve(&mems, e.StoreOps),
		}
	}
	return out
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

// NewSkeletonScratch is NewSkeleton with the skeleton's storage carved out
// of s's reusable arenas. The skeleton is only valid until s's next
// skeleton build and must not be cached or shared. The block's own dialect
// drives effect extraction, so the skeleton serves any model of that
// dialect.
func NewSkeletonScratch(b *isa.Block, opt Options, s *Scratch) (*Skeleton, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	s.interner.Reset()
	s.effects.Reset()
	n := len(b.Instrs)
	s.effs = growOuter(s.effs, n)
	for i := range b.Instrs {
		s.effs[i] = isa.InstrEffectsArena(&b.Instrs[i], b.Dialect, &s.effects)
	}
	skel := buildStructure(b, s.effs, opt, s)
	s.out = growOuter(s.out, n)
	for i := range s.out {
		s.out[i] = s.out[i][:0]
	}
	for ei := range skel {
		f := skel[ei].from
		s.out[f] = append(s.out[f], ei)
	}
	s.skeleton = Skeleton{block: b, effs: s.effs, edges: skel, out: s.out}
	return &s.skeleton, nil
}

// ResolveDescs resolves every instruction's descriptor against one model —
// the per-(block, model) half of graph construction that Instantiate
// consumes. The returned slice is freshly allocated, treated as immutable,
// and safe to cache and share across goroutines.
func (sk *Skeleton) ResolveDescs(m *uarch.Model, degrade bool) ([]uarch.Desc, error) {
	return sk.AppendDescs(make([]uarch.Desc, 0, len(sk.effs)), m, degrade)
}

// AppendDescs is ResolveDescs appending to dst, so a caller-owned buffer
// can be reused across blocks.
func (sk *Skeleton) AppendDescs(dst []uarch.Desc, m *uarch.Model, degrade bool) ([]uarch.Desc, error) {
	b := sk.block
	for i := range b.Instrs {
		in := &b.Instrs[i]
		eff := sk.effs[i]
		if degrade {
			dst = append(dst, m.LookupEffDegraded(in, &eff))
			continue
		}
		d, err := m.LookupEff(in, &eff)
		if err != nil {
			return nil, fmt.Errorf("depgraph: block %s: instr %d (%s): %w", b.Name, i, in.Mnemonic, err)
		}
		dst = append(dst, d)
	}
	return dst, nil
}

// Instantiate materializes the skeleton against one model into s's arenas:
// nodes in program order, the skeleton's edges in
// its order with each kind's latency filled from descs. b must be
// content-identical to the skeleton's source block (same instruction
// sequence and dialect) and descs must come from ResolveDescs against m
// (or a cache of it); the artifact keys in internal/pipeline enforce both.
// The graph is valid until s's next use.
func (sk *Skeleton) Instantiate(b *isa.Block, m *uarch.Model, descs []uarch.Desc, s *Scratch) *Graph {
	g := &s.graph
	*g = Graph{Block: b, Model: m, scr: s}
	n := len(sk.effs)
	s.nodes = growOuter(s.nodes, n)
	g.Nodes = s.nodes[:n]
	for i := range g.Nodes {
		g.Nodes[i] = Node{Index: i, Desc: descs[i]}
	}
	g.Edges = fillEdges(s.edges[:0], sk.edges, g.Nodes, m.LoadLat)
	s.edges = g.Edges
	g.out = sk.out
	return g
}

// SizeEstimate approximates the skeleton's retained heap bytes for cache
// accounting. It is an estimate by design: fixed per-element costs stand
// in for exact allocator sizes, and the retained source block is counted
// by the parsed-block tier, not here.
func (sk *Skeleton) SizeEstimate() int {
	const (
		edgeBytes = 40 // skelEdge
		effBytes  = 96 // isa.Effects header
	)
	size := 128 + len(sk.edges)*edgeBytes + len(sk.effs)*effBytes
	for i := range sk.effs {
		e := &sk.effs[i]
		size += 24*(len(e.Reads)+len(e.Writes)) + 8*(len(e.LoadOps)+len(e.StoreOps))
	}
	for _, o := range sk.out {
		size += 24 + 8*len(o)
	}
	return size
}
