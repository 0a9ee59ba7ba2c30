package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

	"incore/internal/core"
	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/mca"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// This file is the compiled-artifact tier: a process-lifetime,
// content-keyed cache of the pipeline's expensive front-ends — compiled
// sim.Programs, parsed request blocks, depgraph skeletons, resolved
// descriptor tables, and mca static schedules. It is a second instance
// of the memo tier's Cache type (same singleflight entry, same
// hit/attach/miss accounting, with each successful build's size estimate
// recorded on its entry); only its Stats differ, breaking the entries
// down by kind. Artifacts differ from memo results in two ways that give
// them their own tier:
//
//   - they are pointer-shared and immutable, not serializable values: a
//     *sim.Program full of interned-ID tables has no stable wire form
//     worth inventing, so artifacts never enter the persistent store (and
//     therefore never force a store schema bump);
//   - they are cheap to rebuild relative to a disk round-trip but
//     expensive relative to a warm execute, so the right lifetime is the
//     process, not the store — a restart recompiles in microseconds per
//     block, while a busy server replaying hot blocks across many models
//     (or a model sweep over one block) skips straight to the engine.
//
// Keys are content keys, exactly like the memo tier: block content via
// BlockKey (or a sha256 of raw request text for the parse cache), models
// via Model.PortSignature — the sub-fingerprint over only the
// port/descriptor-relevant model subset (ports, structural parameters,
// memory pipeline, unknown policy, instruction table). Artifacts depend on
// exactly that subset, so two models differing only in node-level
// parameters (bandwidth, ECM, TDP, frequencies) or labels share every
// compiled artifact — the sharing a design-space sweep's node variants
// ride — while an in-place port mutation plus Reindex (new signature)
// still misses, and a what-if model can never share a mis-parameterized
// Program with the built-in it shadows. Memo and store entries, by
// contrast, stay keyed on the full Model.CacheKey: a *result* names the
// whole modeled scenario, an *artifact* only its in-core inputs. A sweep
// shares one step further without a tier entry: within one run, the
// variants of a signature share each block's analysis through a
// CellSlot (memo.go), while each variant's cell stays its own memo
// entry, so every additional node-only variant costs only a memo entry.
// Errors are cached like successes (determinism over optimism, as in
// every Cache) and count toward no entry or byte total. SwapTiers
// deliberately does not touch this tier: artifacts are content-addressed
// and model-signed, so they stay valid across store swaps.

// Artifacts is the compiled-artifact tier: a Cache (singleflight,
// three-way hit/attach/compile accounting, per-entry size estimates)
// whose Stats also break the cached entries down by kind. The kind is
// the key's first field, which every builder below writes.
type Artifacts struct{ c *Cache }

// ArtifactStats is a point-in-time accounting snapshot of the compiled
// tier. Like the memo tier's Stats, the counts depend only on the
// sequence of requested keys, not on scheduling — except the hit/attach
// split, which by definition records whether a requester raced the
// build; Hits+Attaches together are schedule-independent.
type ArtifactStats struct {
	// Per-kind successful-build counts (cached entries, errors excluded).
	Programs  int64 `json:"programs" help:"Cached simulator programs."`
	Blocks    int64 `json:"blocks" help:"Cached parsed blocks."`
	Skeletons int64 `json:"skeletons" help:"Cached dependence skeletons."`
	Descs     int64 `json:"descs" help:"Cached descriptor tables."`
	MCA       int64 `json:"mca" help:"Cached mca schedules."`

	Compiles uint64 `json:"compiles" help:"Artifact compilations."`
	Hits     uint64 `json:"hits" help:"Artifact cache hits."`
	Attaches uint64 `json:"attaches" help:"Waiters attached to in-flight compilations."`
	// BytesEstimated roughly approximates retained artifact bytes; see
	// the SizeEstimate methods for what "estimate" means here.
	BytesEstimated int64 `json:"bytes_estimated" help:"Estimated retained artifact bytes."`
}

// Stats returns the current accounting. Entry counts and bytes are
// derived from the settled successful entries the tier holds, so a build
// that finishes after a Reset never reappears in them.
func (a *Artifacts) Stats() ArtifactStats {
	s := ArtifactStats{Compiles: a.c.misses.Load(), Hits: a.c.hits.Load(), Attaches: a.c.attaches.Load()}
	a.c.mu.Lock()
	defer a.c.mu.Unlock()
	for key, e := range a.c.m {
		if !e.done.Load() || e.err != nil {
			continue
		}
		kind, _, _ := strings.Cut(key, "\x00")
		switch kind {
		case "prog":
			s.Programs++
		case "block":
			s.Blocks++
		case "skel":
			s.Skeletons++
		case "descs":
			s.Descs++
		case "mcaprog":
			s.MCA++
		}
		s.BytesEstimated += e.size
	}
	return s
}

// Reset drops all artifacts and zeroes the counters (tests). In-flight
// builds keyed before the reset complete against the old entries.
func (a *Artifacts) Reset() { a.c.Reset() }

// artifacts is the process-wide compiled-artifact cache.
var artifacts = &Artifacts{NewCache()}

// CompiledArtifacts returns the process-wide compiled-artifact cache (for
// stats reporting and test resets).
func CompiledArtifacts() *Artifacts { return artifacts }

// CompileProgram returns the process-cached compiled program for (block
// content, model port signature). The program is shared and immutable —
// sim.Program is safe for concurrent Run — and compiles exactly once per
// key under singleflight regardless of how many goroutines request it
// cold. Keying on PortSignature rather than CacheKey is safe because both
// Compile and the engine's Run-time reads of the retained model touch
// only signature-covered fields (lookup tables, ports, structural
// frontend/backend parameters); node-only model variants therefore share
// one Program. Traced and untraced simulations share one entry: a trace
// changes what Run reports, never what Compile produces.
func CompileProgram(b *isa.Block, m *uarch.Model) (*sim.Program, error) {
	key := "prog\x00" + m.PortSignature() + "\x00" + BlockKey(b)
	return Do(artifacts.c, key, (*sim.Program).SizeEstimate,
		func() (*sim.Program, error) { return sim.Compile(b, m) })
}

// ParseRequestBlock returns the process-cached parse of one request's
// assembly text — the serve tier's analogue of the inline-machine cache,
// applied to block text: repeated requests carrying the same listing for
// the same arch and dialect share one parsed block (and, downstream, one
// skeleton and one set of memoized results). The text is keyed by sha256
// rather than verbatim so the cache does not retain a second copy of
// every listing. Cached blocks are shared and must be treated as
// immutable; when the cached block was first parsed under a different
// name, the returned block is a shallow copy carrying the requested name
// over the shared instruction slice. A cached parse error is renamed the
// same way, so it reads as parsing under the requested name would word it.
func ParseRequestBlock(name, arch string, d isa.Dialect, asm string) (*isa.Block, error) {
	sum := sha256.Sum256([]byte(asm))
	key := "block\x00" + arch + "\x00" + strconv.Itoa(int(d)) + "\x00" + hex.EncodeToString(sum[:])
	b, err := Do(artifacts.c, key, blockSizeEstimate,
		func() (*isa.Block, error) { return isa.ParseMarkedBlock(name, arch, d, asm) })
	if be, ok := err.(*isa.BlockError); ok && be.Name != name {
		renamed := *be
		renamed.Name = name
		return nil, &renamed
	}
	if err != nil {
		return nil, err
	}
	if b.Name != name {
		labeled := *b
		labeled.Name = name
		return &labeled, nil
	}
	return b, nil
}

// blockSizeEstimate roughly approximates a parsed block's retained bytes.
func blockSizeEstimate(b *isa.Block) int {
	size := 96
	for i := range b.Instrs {
		in := &b.Instrs[i]
		size += 160 + len(in.Raw) + len(in.Mnemonic) + len(in.Label) + 56*len(in.Operands)
	}
	return size
}

// descsSizeEstimate roughly approximates a descriptor table's retained
// bytes (µ-op slices are often shared with the model's tables; counting
// them anyway makes this an upper bound).
func descsSizeEstimate(ds []uarch.Desc) int {
	size := len(ds) * 112
	for i := range ds {
		size += 24 * len(ds[i].Uops)
	}
	return size
}

// compiledMCA returns the process-cached mca static schedule for (block
// content, model key, model port signature). The signature covers the
// tables mca lowering reads; the key must ride alongside because
// scheduler parameters are derived from it (mca.ParamsFor), which the
// signature deliberately excludes.
func compiledMCA(b *isa.Block, m *uarch.Model) (*mca.Compiled, error) {
	key := "mcaprog\x00" + m.Key + "\x00" + m.PortSignature() + "\x00" + BlockKey(b)
	return Do(artifacts.c, key, (*mca.Compiled).SizeEstimate,
		func() (*mca.Compiled, error) { return mca.Compile(b, m, mca.ParamsFor(m.Key)) })
}

// analysisArtifacts returns the two process-cached artifacts every
// pipeline analysis instantiates from:
//
//   - the dependency-structure skeleton, keyed by (block content,
//     structural options). It is model-independent: every model of the
//     block's dialect instantiates graphs from the same entry;
//   - the resolved-descriptor table, keyed by (block content, model port
//     signature, degrade policy) — the per-model half of graph
//     construction. Descriptor resolution reads only the
//     signature-covered subset, so node-only model variants share one
//     table while a mutated-and-reindexed port table resolves its own.
func analysisArtifacts(b *isa.Block, m *uarch.Model, opt depgraph.Options) (*depgraph.Skeleton, []uarch.Desc, error) {
	bk := BlockKey(b)
	sk, err := Do(artifacts.c,
		"skel\x00falsedeps="+strconv.FormatBool(opt.IncludeFalseDeps)+
			"|memwin="+strconv.FormatInt(opt.MemCarriedWindow, 10)+"\x00"+bk,
		(*depgraph.Skeleton).SizeEstimate,
		func() (*depgraph.Skeleton, error) { return depgraph.NewSkeleton(b, opt) })
	if err != nil {
		return nil, nil, err
	}
	descs, err := Do(artifacts.c,
		"descs\x00"+m.PortSignature()+"\x00degrade="+strconv.FormatBool(opt.DegradeUnknown)+"\x00"+bk,
		descsSizeEstimate,
		func() ([]uarch.Desc, error) { return sk.ResolveDescs(m, opt.DegradeUnknown) })
	if err != nil {
		return nil, nil, err
	}
	return sk, descs, nil
}

// analyzeCold is the compute path behind AnalyzeWarm's memo entry: it
// assembles the analysis from cached artifacts (skeleton + descriptor
// table) so a memo-cold analysis of a known block skips effect extraction
// and graph structure discovery. Byte-identical to an.Analyze, which runs
// the same core.AnalyzeArena over a skeleton it builds itself.
func analyzeCold(an *core.Analyzer, b *isa.Block, m *uarch.Model) (*core.Result, error) {
	sk, descs, err := analysisArtifacts(b, m, an.Opt)
	if err != nil {
		return nil, err
	}
	return an.AnalyzeCompiled(b, m, sk, descs)
}

// InternalArena is the reusable state behind AnalyzeInternal: a
// core.ResultArena plus the artifact bindings of the last (block, model,
// options) triple, revalidated by pointer and model fingerprint so a
// steady stream of analyses of one pair does zero key construction and
// zero heap work. Single-goroutine, like the ResultArena it embeds.
type InternalArena struct {
	res core.ResultArena

	lastBlock *isa.Block
	lastModel *uarch.Model
	lastFP    string
	lastOpt   depgraph.Options
	sk        *depgraph.Skeleton
	descs     []uarch.Desc
}

// AnalyzeInternal is the zero-allocation analysis path for
// pipeline-internal consumers (suite runners, sweeps, benchmarks): it
// bypasses the memo and store tiers entirely and returns ar's arena-owned
// Result. The Result is valid only until ar's next use and must never be
// retained, shared across goroutines, memoized, or persisted — use
// Analyze for results that escape. Numerically and textually identical to
// Analyze for the same inputs.
func AnalyzeInternal(an *core.Analyzer, b *isa.Block, m *uarch.Model, ar *InternalArena) (*core.Result, error) {
	opt := an.Opt
	if ar.sk == nil || ar.lastBlock != b || ar.lastModel != m ||
		ar.lastFP != m.Fingerprint() || ar.lastOpt != opt {
		sk, descs, err := analysisArtifacts(b, m, opt)
		if err != nil {
			return nil, err
		}
		ar.sk, ar.descs = sk, descs
		ar.lastBlock, ar.lastModel, ar.lastFP, ar.lastOpt = b, m, m.Fingerprint(), opt
	}
	return an.AnalyzeArena(b, m, ar.sk, ar.descs, &ar.res)
}
