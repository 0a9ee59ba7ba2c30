package memsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// TickSeconds is the simulation time step (10 ns).
const TickSeconds = 10e-9

// Core and controller limits, alike on all three systems.
const (
	// MLP is the per-core outstanding-read limit.
	MLP = 16
	// QueueCapBytes bounds each controller queue (back-pressure).
	QueueCapBytes = 64 << 10
)

// Config describes one simulated node's memory system.
type Config struct {
	Key     string
	Cores   int
	Domains int

	L1, L2 CacheConfig // per core
	L3     CacheConfig // per domain slice

	// DomainGBs is each memory controller's sustained capacity.
	DomainGBs float64
	// CoreGBs is the per-core stored-byte generation rate for a
	// store-only stream (the core-side limit).
	CoreGBs float64

	Policy WAPolicyKind
	// SpecI2M parameters (used when Policy == PolicySpecI2M).
	SpecI2MThreshold float64
	SpecI2MMaxShare  float64
	SpecI2MRampEnd   float64
	// NTResidualRFO is the fraction of non-temporal store lines that
	// still perform an RFO (SPR's imperfect NT stores); it applies only
	// when more than NTResidualMinCores cores are active.
	NTResidualRFO      float64
	NTResidualMinCores int
}

// run is a stretch of a controller queue: members first..first+n-1 of a
// domain each queue per one-line requests, bit i of reads set for a read,
// and head of them are served. Nothing reads a write's core, so a run of
// writes is n lines with per 1.
type run struct {
	reads               uint64
	first, n, per, head int32
}

// ring is a FIFO of runs whose power-of-two buffer outlives a run of the
// simulator; pushed numbers the runs it has taken since, from 1.
type ring struct {
	buf        []run
	head, size int
	pushed     int64
}

// push appends a run (see run), extending the newest run when it
// continues it: writes onto writes, or the next members with the same
// requests. It stores field by field: a whole run built from separate
// values would stall on store forwarding.
func (q *ring) push(reads uint64, first, n, per int32) {
	if reads == 0 {
		first, n, per = 0, n*per, 1
	}
	if q.size > 0 {
		t := &q.buf[(q.head+q.size-1)&(len(q.buf)-1)]
		if t.reads == reads && t.per == per && (reads == 0 || t.first+t.n == first) {
			t.n += n
			return
		}
	}
	if q.size == len(q.buf) {
		grown := make([]run, max(2*len(q.buf), 64))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	r := &q.buf[(q.head+q.size)&(len(q.buf)-1)]
	r.reads, r.first, r.n, r.per, r.head = reads, first, n, per, 0
	q.size++
	q.pushed++
}

type controller struct {
	bytesPerTick float64
	budget       float64
	queue        ring
	queuedBytes  int64
	util         float64 // EMA of served/capacity
	i2m          specI2MState
	// share is i2m's conversion share at utilization shareAt.
	share, shareAt float64

	ReadBytes, WriteBytes int64
}

// reset returns the controller to its initial state, keeping the queue's
// buffer.
func (c *controller) reset(cfg Config) {
	*c = controller{
		bytesPerTick: cfg.DomainGBs * TickSeconds * 1e9,
		queue:        ring{buf: c.queue.buf},
		i2m:          specI2MState{Threshold: cfg.SpecI2MThreshold, MaxShare: cfg.SpecI2MMaxShare, RampEnd: cfg.SpecI2MRampEnd},
	}
	c.share = c.i2m.share(0)
}

// serve advances one tick: it serves lines from the queue front while the
// byte budget lasts and credits the reads to dm's members. LineBytes is a
// power of two, so the budget less k lines is exact, as k subtractions
// of one line are: the lines the budget covers are counted at once.
func (c *controller) serve(dm *domain) {
	c.budget += c.bytesPerTick
	var served, reads int64
	if c.queue.size > 0 {
		// budget >= 0, so this is floor(budget / LineBytes).
		for avail := int64(c.budget) >> lineShift; c.queue.size > 0 && served < avail; {
			r := &c.queue.buf[c.queue.head]
			k := int32(min(int64(r.n*r.per-r.head), avail-served))
			reads += r.take(k, dm)
			if served += int64(k); r.head == r.n*r.per {
				c.queue.head = (c.queue.head + 1) & (len(c.queue.buf) - 1)
				c.queue.size--
			}
		}
		c.queuedBytes -= served * LineBytes
		c.budget -= float64(served * LineBytes)
		c.ReadBytes += reads * LineBytes
		c.WriteBytes += (served - reads) * LineBytes
	}
	if c.budget > c.bytesPerTick {
		// Idle capacity does not bank beyond one tick.
		c.budget = c.bytesPerTick
	}
	const alpha = 0.02
	if served == 0 {
		// util >= 0, so adding the zero served term changes nothing.
		c.util *= 1 - alpha
	} else {
		c.util = (1-alpha)*c.util + alpha*min(1, float64(served*LineBytes)/c.bytesPerTick)
	}
}

// take serves the run's next k requests, credits their reads to dm's
// members and returns how many there were.
func (r *run) take(k int32, dm *domain) int64 {
	h, e := r.head, r.head+k
	r.head = e
	switch {
	case r.reads == 0:
		return 0
	case r.n == 1 && has(dm.starts, r.first) && has(dm.starts, r.first+1):
		// One member, a group of its own.
		n, g := int32(bits.OnesCount64(r.reads&span(h, e))), &dm.groups[r.first]
		if !g.done {
			if g.outstanding -= n; g.outstanding < MLP {
				set(dm.awake, r.first)
			}
		}
		return int64(n)
	case r.n == 1:
		return dm.credit(r.first, r.first+1, r.reads&span(h, e))
	case r.per == 1:
		return dm.credit(r.first+h, r.first+e, 1)
	}
	qa, qb := h/r.per, e/r.per
	a, b, oa, ob := r.first+qa, r.first+qb, h-qa*r.per, e-qb*r.per
	if a == b {
		return dm.credit(a, a+1, r.reads&span(oa, ob))
	}
	n := int64(0)
	if oa > 0 {
		n = dm.credit(a, a+1, r.reads&span(oa, r.per))
		a++
	}
	return n + dm.credit(a, b, r.reads) + dm.credit(b, b+1, r.reads&span(0, ob))
}

// span returns the mask of bits a..b-1.
func span(a, b int32) uint64 {
	if a >= b {
		return 0
	}
	return ^uint64(0) >> uint(64-b) &^ (1<<uint(a) - 1)
}

// coreState is the part of a core that changes from tick to tick.
type coreState struct {
	issueAcc    int64 // issue credit in bytes
	ntResidAcc  float64
	cursor      int64
	detector    streamDetector
	outstanding int32
	done        bool
}

type simCore struct {
	domain int
	// member is the core's index among its domain's active cores.
	member int32
	l1, l2 *Cache

	strides []workStream

	// A replayed core takes its L1 and L2 behaviour from its layout
	// class: class indexes System.classes, handoff is the class's
	// schedule, and l3shift is the core's shift from the class's
	// representative modulo the L3 set count.
	class   int
	handoff []uint32
	l3shift uint32

	st *coreState // the state the core issues on
}

// workStream is one array stream of a workload: a base address and
// whether it is written.
type workStream struct {
	base  LineAddr
	write bool
	nt    bool
}

// group is the state of a run of a domain's members, kept at its first
// member; hi is one past its last, and reads numbers the queue run with
// its newest reads. The issue credit of ticks from since on is still to
// be added (settle).
type group struct {
	coreState
	since, reads int64
	hi           int32
}

// domain is one NUMA domain's share of a run: its active cores in index
// order and their groups. starts marks each group's first member and one
// past the last member, awake the groups the next tick visits.
type domain struct {
	members       []*simCore
	groups        []group
	starts, awake []uint64
	notDone       int
	// doneAt is the first tick the domain started with every member done.
	doneAt int64
}

// credit takes the reads in mask off the outstanding counts of members
// lo..hi-1, split off into groups of their own, wakes those now below the
// MLP limit, and returns how many reads that is.
func (dm *domain) credit(lo, hi int32, mask uint64) int64 {
	n := int32(bits.OnesCount64(mask))
	if n == 0 || lo == hi {
		return 0
	}
	g := dm.split(lo)
	dm.split(hi)
	for ; g < hi; g = dm.groups[g].hi {
		if st := &dm.groups[g]; !st.done {
			if st.outstanding -= n; st.outstanding < MLP {
				set(dm.awake, g)
			}
		}
	}
	return int64(n * (hi - lo))
}

// split makes member m the first of a group unless its group is done, and
// returns the first member of m's group.
func (dm *domain) split(m int32) int32 {
	if has(dm.starts, m) {
		return m
	}
	o := prev(dm.starts, m)
	if dm.groups[o].done {
		return o
	}
	set(dm.starts, m)
	dm.groups[m] = dm.groups[o]
	dm.groups[o].hi = m
	if has(dm.awake, o) {
		set(dm.awake, m)
	}
	return m
}

// zeroed returns s resized to n zero elements, reusing its buffer.
func zeroed[T any](s []T, n int32) []T {
	s = slices.Grow(s[:0], int(n))[:n]
	clear(s)
	return s
}

// has, set and unset read and write bit i of a bitmap; next and prev
// find the nearest set bit at or above i (len(b)*64 for none) and at or
// below i.
func has(b []uint64, i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func set(b []uint64, i int32)      { b[i>>6] |= 1 << uint(i&63) }
func unset(b []uint64, i int32)    { b[i>>6] &^= 1 << uint(i&63) }

func next(b []uint64, i int32) int32 {
	w := int(i >> 6)
	if w >= len(b) {
		return int32(len(b) * 64)
	}
	for x := b[w] &^ (1<<uint(i&63) - 1); ; x = b[w] {
		if x != 0 {
			return int32(w*64 + bits.TrailingZeros64(x))
		}
		if w++; w == len(b) {
			return int32(len(b) * 64)
		}
	}
}

func prev(b []uint64, i int32) int32 {
	for w, x := int(i>>6), uint64(0); ; w-- {
		if x = b[w]; w == int(i>>6) {
			x &= 2<<uint(i&63) - 1
		}
		if x != 0 {
			return int32(w*64 + 63 - bits.LeadingZeros64(x))
		}
	}
}

// tally is one member's issue step: its requests and L3 fills, and
// whether shared state told it apart (alone): a fill into a slice with
// room, or more requests than a run holds. (A SpecI2M accumulator that
// may move tells every member apart: issue steps those ticks as solo.)
type tally struct {
	reads uint64
	per   int32
	fills int64
	alone bool
}

// System is a multi-core memory-hierarchy simulator.
type System struct {
	cfg   Config
	cores []*simCore
	l3    []*Cache
	ctrl  []*controller
	doms  []domain
	ticks int64
	// bases holds the current run's stream bases for the layout check.
	bases []LineAddr
	// rate is a core's issue credit per tick in bytes; active and lines
	// are the current run's core and line counts.
	rate          int64
	active, lines int
	// tally, spare and reads are one member's issue step, the state it
	// issues on when it leaves its group, and its newest reads' run.
	tally tally
	spare coreState
	reads int64

	// replay is set for a run whose layout check passed: its cores
	// replay their classes' private-cache schedules and its L3 slices
	// are fills (replay.go). classes and fills keep their buffers across
	// runs.
	replay  bool
	classes []replayClass
	fills   []l3Fill
	// forceLRU simulates every cache even when the layout check passes,
	// and forceSingle keeps groups at one member; only package tests set
	// them. grouped is set when groups may hold more than one member.
	forceLRU, forceSingle, grouped bool
	// stdStores is set when the run's workload stores without NT.
	stdStores bool
	// issues counts the members the last run issued one at a time,
	// memberTicks the ticks its members were not done in, and groupSteps
	// the visits that issued a group of more than one member.
	issues, memberTicks, groupSteps int64
}

// NewSystem builds a system from a config.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Cores <= 0 || cfg.Domains <= 0 {
		return nil, fmt.Errorf("memsim: bad config: cores=%d domains=%d", cfg.Cores, cfg.Domains)
	}
	rate, err := issueCredit(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, doms: make([]domain, cfg.Domains), rate: rate}
	for d := 0; d < cfg.Domains; d++ {
		l3, err := NewCache(cfg.L3)
		if err != nil {
			return nil, fmt.Errorf("%s L3: %w", cfg.Key, err)
		}
		ctl := &controller{}
		ctl.reset(cfg)
		s.l3 = append(s.l3, l3)
		s.ctrl = append(s.ctrl, ctl)
		s.fills = append(s.fills, l3Fill{filled: make([]uint8, cfg.L3.Sets()), ways: uint8(cfg.L3.Ways)})
	}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := NewCache(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("%s L1: %w", cfg.Key, err)
		}
		l2, err := NewCache(cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("%s L2: %w", cfg.Key, err)
		}
		s.cores = append(s.cores, &simCore{l1: l1, l2: l2})
	}
	return s, nil
}

// issueCredit returns a core's issue credit per tick in bytes, CoreGBs
// over one tick. It must be whole, so that credit adds and iterations
// subtract exactly and a slept tick costs one multiplication at most.
func issueCredit(cfg Config) (int64, error) {
	b := cfg.CoreGBs * TickSeconds * 1e9
	if !(b >= 1 && b <= 1<<20) || b != math.Trunc(b) {
		return 0, fmt.Errorf("memsim: %s: CoreGBs %g gives %g bytes of issue credit per tick, want a whole number in 1..2^20", cfg.Key, cfg.CoreGBs, b)
	}
	return int64(b), nil
}

// TrafficResult summarises one workload run.
type TrafficResult struct {
	MemReadBytes, MemWriteBytes int64
	StoredBytes, LoadedBytes    int64
	Ticks                       int64
	ActiveCores                 int
}

// WARatio is the paper's Fig. 4 metric: actual memory traffic divided by
// the stored data volume (1.0 = perfect WA evasion, 2.0 = full WA).
func (r TrafficResult) WARatio() float64 {
	if r.StoredBytes == 0 {
		return 0
	}
	return float64(r.MemReadBytes+r.MemWriteBytes) / float64(r.StoredBytes)
}

// UsefulGBs is the application-visible bandwidth (loaded+stored bytes per
// second), the STREAM convention.
func (r TrafficResult) UsefulGBs() float64 {
	t := float64(r.Ticks) * TickSeconds
	if t <= 0 {
		return 0
	}
	return float64(r.LoadedBytes+r.StoredBytes) / t / 1e9
}

// RunStoreStream runs the paper's store-only (array initialization)
// benchmark on `active` cores, each writing linesPerCore sequential cache
// lines, with standard (nt=false) or non-temporal (nt=true) stores.
func (s *System) RunStoreStream(active, linesPerCore int, nt bool) (TrafficResult, error) {
	streams := []workStream{{base: 0, write: true, nt: nt}}
	return s.run(active, linesPerCore, streams)
}

// RunTriad runs a STREAM-triad-shaped workload (two load streams, one
// store stream) of linesPerCore lines per stream per core.
func (s *System) RunTriad(active, linesPerCore int, ntStores bool) (TrafficResult, error) {
	streams := []workStream{
		{base: 1 << 30, write: false},
		{base: 2 << 30, write: false},
		{base: 0, write: true, nt: ntStores},
	}
	return s.run(active, linesPerCore, streams)
}

// RunCopy runs a copy workload (one load stream, one store stream).
func (s *System) RunCopy(active, linesPerCore int, ntStores bool) (TrafficResult, error) {
	streams := []workStream{
		{base: 1 << 30, write: false},
		{base: 0, write: true, nt: ntStores},
	}
	return s.run(active, linesPerCore, streams)
}

func (s *System) run(active, linesPerCore int, streams []workStream) (TrafficResult, error) {
	if active <= 0 || active > s.cfg.Cores {
		return TrafficResult{}, fmt.Errorf("memsim: %s: active cores %d out of range 1..%d", s.cfg.Key, active, s.cfg.Cores)
	}
	if linesPerCore <= 0 {
		return TrafficResult{}, fmt.Errorf("memsim: linesPerCore must be positive")
	}
	// Per-core disjoint address regions, 1 GiB apart per core per stream.
	regionLines := LineAddr(1 << (30 - lineShift))
	act := s.cores[:active]
	for i, c := range act {
		c.strides = c.strides[:0]
		for _, st := range streams {
			c.strides = append(c.strides, workStream{
				base:  st.base>>lineShift + LineAddr(i)*regionLines*8,
				write: st.write,
				nt:    st.nt,
			})
		}
	}
	return s.simulate(act, linesPerCore)
}

// simulate runs the active cores over their laid-out streams, linesPerCore
// iterations each. The tick loop steps groups: runs of a domain's members,
// in index order, of one layout class and one state (DESIGN.md, memsim).
// A run that simulates every cache keeps each group at one member.
func (s *System) simulate(act []*simCore, linesPerCore int) (TrafficResult, error) {
	active := len(act)
	s.reset()
	// Active cores scatter round-robin across the domains (OpenMP
	// "spread", the paper's SNC-mode default).
	for i, c := range act {
		c.domain = i % s.cfg.Domains
		dm := &s.doms[c.domain]
		c.member = int32(len(dm.members))
		dm.members = append(dm.members, c)
	}
	s.replay = !s.forceLRU && s.linesNeverRepeat(act, linesPerCore)
	if s.replay {
		s.schedule(act, linesPerCore)
	}
	s.grouped = s.replay && !s.forceSingle
	s.stdStores = slices.ContainsFunc(act[0].strides, func(w workStream) bool { return w.write && !w.nt })
	s.active, s.lines = active, linesPerCore
	for d := range s.doms {
		dm := &s.doms[d]
		n := int32(len(dm.members))
		dm.groups, dm.starts, dm.awake = zeroed(dm.groups, n), zeroed(dm.starts, n/64+1), zeroed(dm.awake, n/64+1)
		dm.notDone = int(n)
		set(dm.starts, n)
		for m := n - 1; m >= 0; m-- {
			if m == 0 || !s.grouped || dm.members[m-1].class != dm.members[m].class {
				dm.groups[m] = group{hi: next(dm.starts, m+1)}
				set(dm.starts, m)
				set(dm.awake, m)
			}
		}
	}

	// Domains share nothing but the flush, which comes at the first tick
	// that every domain starts done. So each domain ticks on its own up
	// to the tick it starts done, and then, serving only, through the
	// flush until its queue is empty; the run ends when the last is.
	const maxTicks = 200_000_000
	flush := int64(0)
	for d := range s.doms {
		t := int64(0)
		for ; t <= maxTicks && !s.issue(d, t); t++ {
			s.ctrl[d].serve(&s.doms[d])
		}
		s.doms[d].doneAt, flush = t, max(flush, t)
	}
	s.ticks = flush
	for d := range s.doms {
		dm := &s.doms[d]
		for t := dm.doneAt; s.ticks <= maxTicks; t++ {
			if t == flush {
				// Trailing writebacks: dirty lines still in the caches
				// drain through the controllers like any other traffic.
				s.writeback(d)
			}
			if s.ctrl[d].serve(dm); t >= flush && s.ctrl[d].queue.size == 0 {
				s.ticks = max(s.ticks, t)
				break
			}
			if t == maxTicks {
				s.ticks = t + 1 // still draining: did not converge
			}
		}
	}
	if s.ticks > maxTicks {
		return TrafficResult{}, fmt.Errorf("memsim: %s: run did not converge within %d ticks", s.cfg.Key, maxTicks)
	}

	if s.replay {
		s.settleL3Stats(act)
	}
	res := TrafficResult{ActiveCores: active, Ticks: s.ticks}
	for _, ctl := range s.ctrl {
		res.MemReadBytes += ctl.ReadBytes
		res.MemWriteBytes += ctl.WriteBytes
	}
	// Every core ran all its iterations, one line per stream each.
	lines := int64(linesPerCore * LineBytes)
	for _, c := range act {
		for _, st := range c.strides {
			if st.write {
				res.StoredBytes += lines
			} else {
				res.LoadedBytes += lines
			}
		}
	}
	return res, nil
}

// issue runs one tick's issue step for domain d and reports whether every
// member was already done. It visits the awake groups in member order
// until the queue is over its cap, after which no member issues.
func (s *System) issue(d int, t int64) bool {
	dm, ctl := &s.doms[d], s.ctrl[d]
	if dm.notDone == 0 {
		return true
	}
	// In a solo tick no two members share an issue step: a SpecI2M
	// accumulator that may move answers each standard store in turn.
	// Groups split into singles and do not merge.
	solo := !s.grouped || s.stdStores && s.cfg.Policy == PolicySpecI2M && ctl.util >= ctl.i2m.Threshold
	for lo := next(dm.awake, 0); lo < int32(len(dm.members)) && ctl.queuedBytes <= QueueCapBytes; {
		g := &dm.groups[lo]
		s.settle(g, t)
		if solo && g.hi > lo+1 {
			dm.split(lo + 1)
		}
		hi := g.hi
		switch {
		case g.outstanding >= MLP:
			unset(dm.awake, lo)
		case g.issueAcc+s.rate < LineBytes:
			g.issueAcc += s.rate
			g.since++
		case hi == lo+1:
			// A member alone in its group issues as a core did before
			// grouping: no start state, no copies.
			g.since, s.reads = t+1, g.reads
			s.issueMember(dm.members[lo], &g.coreState, 0)
			if g.reads = s.reads; g.done {
				dm.notDone--
				s.memberTicks += t + 1
			}
			if g.done || g.outstanding >= MLP {
				unset(dm.awake, lo)
			}
		default:
			s.issueGroup(d, lo, t)
		}
		if !solo && lo > 0 {
			// Only groups at one cursor can merge.
			if p := prev(dm.starts, lo-1); dm.groups[p].cursor == g.cursor {
				s.merge(dm, p, lo, t)
			}
		}
		lo = next(dm.awake, hi)
	}
	return false
}

// settle adds the issue credit of the ticks before t that the group
// slept through, blocked on MLP. Credit is whole bytes, so one
// multiplication adds what one addition per tick would.
func (s *System) settle(g *group, t int64) {
	if !g.done && g.since < t {
		g.issueAcc += s.rate * (t - g.since)
		g.since = t
	}
}

// merge joins the group at lo, visited in tick t, to the group p before it
// when they end the tick in equal states with any reads in one queue run:
// reads in different runs would split them again.
func (s *System) merge(dm *domain, p, lo int32, t int64) {
	a, b := &dm.groups[p], &dm.groups[lo]
	if b.outstanding > 0 && a.reads != b.reads || dm.members[p].class != dm.members[lo].class {
		return
	}
	s.settle(a, t+1) // a sleeping group sleeps through this tick too
	s.settle(b, t+1)
	if a.coreState == b.coreState {
		a.hi = b.hi
		unset(dm.starts, lo)
		if has(dm.awake, lo) {
			set(dm.awake, p)
			unset(dm.awake, lo)
		}
	}
}

// issueGroup issues the members of domain d's group at lo in tick t. A
// member issues from the group's state at the tick's start, and the
// members after it that would issue exactly as it did copy it at once;
// one that ends in another state than the member before starts a group.
func (s *System) issueGroup(d int, lo int32, t int64) {
	dm, ctl := &s.doms[d], s.ctrl[d]
	g := &dm.groups[lo]
	hi, start, cur, reads := g.hi, g.coreState, lo, g.reads
	g.since = t + 1
	s.groupSteps++
	for m := lo; m < hi; {
		st := &g.coreState
		if m > lo {
			s.spare = start
			st = &s.spare
		}
		s.reads = reads
		n := int32(s.issueMember(dm.members[m], st, int64(hi-m-1)))
		if tl := &s.tally; n > 0 && tl.per > 0 {
			s.fills[d].evictions += int64(n) * tl.fills
			ctl.queuedBytes += int64(n*tl.per) * LineBytes
			ctl.queue.push(tl.reads, m+1, n, tl.per)
		}
		if st.done {
			dm.notDone -= int(1 + n)
			s.memberTicks += int64(1+n) * (t + 1)
		}
		if c := &dm.groups[cur]; m == lo {
			g.reads = s.reads
		} else if c.coreState != *st || c.reads != s.reads {
			c.hi, cur = m, m
			set(dm.starts, m)
			dm.groups[m] = group{coreState: *st, since: t + 1, reads: s.reads, hi: hi}
			if !st.done && st.outstanding < MLP {
				set(dm.awake, m)
			}
		}
		m += 1 + n
	}
	if g.done || g.outstanding >= MLP {
		unset(dm.awake, lo)
	}
}

// issueMember runs one tick's issue step for core c on state st and
// queues its requests. It returns how many of up to limit members after
// c would issue exactly as c did from st: the same requests and state, the
// queue under its cap at each of their iterations.
func (s *System) issueMember(c *simCore, st *coreState, limit int64) int64 {
	s.issues++
	ctl, t := s.ctrl[c.domain], &s.tally
	*t = tally{}
	c.st = st
	capped, last := false, int64(0)
	for st.issueAcc += s.rate; st.issueAcc >= LineBytes && !st.done && st.outstanding < MLP; {
		if last = ctl.queuedBytes + int64(t.per)*LineBytes; last > QueueCapBytes {
			capped = true
			break
		}
		if int(t.per)+2*len(c.strides) > 64 {
			// An iteration queues at most two requests per stream, and
			// a run holds 64: queue these, and copy no member.
			s.queueTally(c)
			*t = tally{alone: true}
		}
		s.issueIteration(c)
		if st.issueAcc -= LineBytes; st.cursor >= int64(s.lines) {
			*st = coreState{cursor: st.cursor, done: true}
		}
	}
	if t.per > 0 {
		ctl.queuedBytes += int64(t.per) * LineBytes
		ctl.queue.push(t.reads, c.member, 1, t.per)
		if t.reads != 0 {
			s.reads = ctl.queue.pushed
		}
	}
	switch bytes := int64(t.per) * LineBytes; {
	case limit == 0 || t.alone || capped && bytes > 0:
		return 0
	case bytes == 0:
		return limit
	default: // the next members' last cap checks see last+bytes, +2 bytes, ...
		return min(limit, (QueueCapBytes-last)/bytes)
	}
}

// queueTally queues the requests in the tally as core c's.
func (s *System) queueTally(c *simCore) {
	t, ctl := &s.tally, s.ctrl[c.domain]
	ctl.queuedBytes += int64(t.per) * LineBytes
	ctl.queue.push(t.reads, c.member, 1, t.per)
	if t.reads != 0 {
		s.reads = ctl.queue.pushed
	}
}

// enqueue records one line request of core c in the tally.
func (s *System) enqueue(c *simCore, read bool) {
	t := &s.tally
	if read {
		t.reads |= 1 << uint(t.per)
		c.st.outstanding++
	}
	t.per++
}

// linesNeverRepeat reports whether a run of linesPerCore lines per stream
// touches every line at most once: the intervals [base, base+linesPerCore)
// of all the active cores' streams are pairwise disjoint. Each stream's
// cursor only increases, so within one interval no line repeats.
func (s *System) linesNeverRepeat(act []*simCore, linesPerCore int) bool {
	s.bases = s.bases[:0]
	for _, c := range act {
		for _, st := range c.strides {
			s.bases = append(s.bases, st.base)
		}
	}
	slices.Sort(s.bases)
	for i := 1; i < len(s.bases); i++ {
		if s.bases[i]-s.bases[i-1] < LineAddr(linesPerCore) {
			return false
		}
	}
	return true
}

// issueIteration performs one iteration, one line per stream, for core
// c. A standard store or a load that misses reads its line unless the
// policy claims it, then fills L1. A replayed run never looks up (no line
// repeats, so every lookup would miss, and the misses are counted in
// bulk), and its class schedule says which line, if any, the private
// caches hand to L3 for the access.
func (s *System) issueIteration(c *simCore) {
	st := c.st
	access := int(st.cursor) * len(c.strides)
	for j, w := range c.strides {
		a := w.base + LineAddr(st.cursor)
		if w.nt {
			s.ntStore(c)
			continue
		}
		// The detector sees addresses relative to the core's region, so
		// the members of a layout class observe the same lines.
		streaming := w.write && s.cfg.Policy == PolicyAutoClaim && st.detector.Observe(a-c.strides[0].base)
		if !s.replay && s.lookup(c, a, w.write) {
			continue
		}
		read := true
		switch ctl := s.ctrl[c.domain]; {
		case !w.write:
		case s.cfg.Policy == PolicyAutoClaim:
			read = !streaming
		case s.cfg.Policy == PolicySpecI2M:
			if ctl.shareAt != ctl.util {
				ctl.share, ctl.shareAt = ctl.i2m.share(ctl.util), ctl.util
			}
			read = !ctl.i2m.Convert(ctl.share)
		}
		if read {
			s.enqueue(c, true)
		}
		if !s.replay {
			s.insertL1(c, a, w.write)
		} else if h := c.handoff[access+j]; h != 0 {
			f := &s.fills[c.domain]
			// Members share one class schedule, but their lines land in
			// different sets: until every set is full, their fills differ.
			s.tally.alone = s.tally.alone || !f.full()
			s.tally.fills++
			if f.insert(h - 1 + c.l3shift) {
				s.enqueue(c, false)
			}
		}
	}
	st.cursor++
}

// lookup looks a line up in the core's L1, L2 and L3, filling L1 from a
// lower level.
func (s *System) lookup(c *simCore, a LineAddr, write bool) bool {
	if c.l1.Lookup(a, write) {
		return true
	}
	if c.l2.Lookup(a, write) || s.l3[c.domain].Lookup(a, write) {
		s.insertL1(c, a, write)
		return true
	}
	return false
}

// ntStore handles a non-temporal full-line store through write-combining
// buffers: the line bypasses the cache hierarchy entirely.
func (s *System) ntStore(c *simCore) {
	s.enqueue(c, false)
	if s.cfg.NTResidualRFO > 0 && s.active > s.cfg.NTResidualMinCores {
		c.st.ntResidAcc += s.cfg.NTResidualRFO
		if c.st.ntResidAcc >= 1 {
			c.st.ntResidAcc--
			s.enqueue(c, true)
		}
	}
}

// insertL1 allocates into L1, cascading victims down the hierarchy.
func (s *System) insertL1(c *simCore, a LineAddr, dirty bool) {
	victim, evicted, vdirty := c.l1.Insert(a, dirty)
	if !evicted {
		return
	}
	if !vdirty {
		return
	}
	v2, e2, d2 := c.l2.Insert(victim, true)
	if !e2 || !d2 {
		return
	}
	if _, e3, d3 := s.l3[c.domain].Insert(v2, true); e3 && d3 {
		s.enqueue(c, false)
	}
}

// reset clears all state for a fresh run.
func (s *System) reset() {
	for _, c := range s.cores {
		c.l1.reset()
		c.l2.reset()
	}
	for d := range s.l3 {
		s.l3[d].reset()
		s.fills[d].reset()
		s.ctrl[d].reset(s.cfg)
		s.doms[d].members = s.doms[d].members[:0]
	}
	s.ticks, s.issues, s.memberTicks, s.groupSteps = 0, 0, 0, 0
}

// writeback marks the dirty lines of domain d, in its members' L1 and L2
// and its L3 slice, clean and queues them as writebacks. Writes extend a
// run of writes, so one run of all of them queues as one per cache would.
func (s *System) writeback(d int) {
	n := int32(0)
	count := func(LineAddr) { n++ }
	for _, c := range s.doms[d].members {
		if s.replay {
			n += int32(s.classes[c.class].dirty)
		} else {
			c.l1.FlushDirty(count)
			c.l2.FlushDirty(count)
		}
	}
	if s.replay {
		n += int32(s.fills[d].lines)
	} else {
		s.l3[d].FlushDirty(count)
	}
	if n > 0 {
		s.ctrl[d].queue.push(0, 0, n, 1)
		s.ctrl[d].queuedBytes += int64(n) * LineBytes
	}
}
