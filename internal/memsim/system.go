package memsim

import (
	"fmt"
	"math"
)

// TickSeconds is the simulation time step (10 ns).
const TickSeconds = 10e-9

// Config describes one simulated node's memory system.
type Config struct {
	Key     string
	Cores   int
	Domains int
	// Placement selects how active cores map to NUMA domains.
	Placement Placement

	L1, L2 CacheConfig // per core
	L3     CacheConfig // per domain slice
	// LineBytes is the cache-line size.
	LineBytes int

	// DomainGBs is each memory controller's sustained capacity.
	DomainGBs float64
	// CoreGBs is the per-core stored-byte generation rate for a
	// store-only stream (the core-side limit).
	CoreGBs float64
	// MLP is the per-core outstanding-read limit.
	MLP int
	// QueueCapBytes bounds each controller queue (back-pressure).
	QueueCapBytes int64

	Policy WAPolicyKind
	// DetectorTrainLen configures the auto-claim streaming detector.
	DetectorTrainLen int
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

// Placement maps active cores to domains.
type Placement int

// Placement policies.
const (
	// PlacementScatter distributes active cores round-robin across
	// domains (OpenMP "spread", the paper's SNC-mode default).
	PlacementScatter Placement = iota
	// PlacementCompact fills one domain before the next.
	PlacementCompact
)

type request struct {
	core   int
	bytes  int
	isRead bool
}

type controller struct {
	bytesPerTick float64
	budget       float64
	queue        ring
	queuedBytes  int64
	util         float64 // EMA of served/capacity
	i2m          specI2MState

	ReadBytes, WriteBytes int64
}

// ring is a growable FIFO of requests. Its capacity is a power of two,
// and it keeps its buffer across runs, so a warm system queues without
// allocating.
type ring struct {
	buf        []request
	head, size int
}

func (q *ring) push(r request) {
	if q.size == len(q.buf) {
		grown := make([]request, max(2*len(q.buf), 64))
		n := copy(grown, q.buf[q.head:])
		copy(grown[n:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = r
	q.size++
}

// front returns the oldest request; the ring must not be empty.
func (q *ring) front() request { return q.buf[q.head] }

// pop removes and returns the oldest request; the ring must not be empty.
func (q *ring) pop() request {
	r := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return r
}

// reset returns the controller to its initial state, keeping the queue's
// buffer.
func (c *controller) reset(cfg Config) {
	*c = controller{
		bytesPerTick: cfg.DomainGBs * TickSeconds * 1e9,
		queue:        ring{buf: c.queue.buf},
		i2m:          specI2MState{Threshold: cfg.SpecI2MThreshold, MaxShare: cfg.SpecI2MMaxShare, RampEnd: cfg.SpecI2MRampEnd},
	}
}

func (c *controller) enqueue(r request) {
	c.queue.push(r)
	c.queuedBytes += int64(r.bytes)
}

// serve advances one tick, returning per-core completed read counts.
func (c *controller) serve(completed []int) {
	c.budget += c.bytesPerTick
	served := 0.0
	for c.queue.size > 0 && c.budget >= float64(c.queue.front().bytes) {
		r := c.queue.pop()
		c.queuedBytes -= int64(r.bytes)
		c.budget -= float64(r.bytes)
		served += float64(r.bytes)
		if r.isRead {
			c.ReadBytes += int64(r.bytes)
			completed[r.core]++
		} else {
			c.WriteBytes += int64(r.bytes)
		}
	}
	if c.budget > c.bytesPerTick {
		// Idle capacity does not bank beyond one tick.
		c.budget = c.bytesPerTick
	}
	const alpha = 0.02
	c.util = (1-alpha)*c.util + alpha*math.Min(1, served/c.bytesPerTick)
}

type simCore struct {
	id       int
	domain   int
	l1, l2   *Cache
	detector streamDetector

	outstanding int
	issueAcc    float64

	// Workload cursor.
	next, end LineAddr
	strides   []workStream
	cursor    int64
	done      bool

	ntResidAcc  float64
	storedBytes int64
	loadedBytes int64
}

// workStream is one array stream of a workload: a base address and
// whether it is written.
type workStream struct {
	base  LineAddr
	write bool
	nt    bool
}

// System is a multi-core memory-hierarchy simulator.
type System struct {
	cfg   Config
	cores []*simCore
	l3    []*Cache
	ctrl  []*controller
	ticks int64
	// completed counts each core's reads served in the current tick.
	completed []int
}

// NewSystem builds a system from a config.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Cores <= 0 || cfg.Domains <= 0 {
		return nil, fmt.Errorf("memsim: bad config: cores=%d domains=%d", cfg.Cores, cfg.Domains)
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	s := &System{cfg: cfg, completed: make([]int, cfg.Cores)}
	for d := 0; d < cfg.Domains; d++ {
		l3, err := NewCache(cfg.L3)
		if err != nil {
			return nil, fmt.Errorf("%s L3: %w", cfg.Key, err)
		}
		ctl := &controller{}
		ctl.reset(cfg)
		s.l3 = append(s.l3, l3)
		s.ctrl = append(s.ctrl, ctl)
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
		c := &simCore{id: i, l1: l1, l2: l2}
		c.detector.TrainLen = cfg.DetectorTrainLen
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// domainOf maps the i-th *active* core to its NUMA domain.
func (s *System) domainOf(activeIdx, activeTotal int) int {
	if s.cfg.Placement == PlacementCompact {
		per := (s.cfg.Cores + s.cfg.Domains - 1) / s.cfg.Domains
		return (activeIdx / per) % s.cfg.Domains
	}
	return activeIdx % s.cfg.Domains
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

// TrafficGBs is the achieved memory-interface bandwidth.
func (r TrafficResult) TrafficGBs() float64 {
	t := float64(r.Ticks) * TickSeconds
	if t <= 0 {
		return 0
	}
	return float64(r.MemReadBytes+r.MemWriteBytes) / t / 1e9
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
	s.reset()
	// Per-core disjoint address regions, 1 GiB apart per core per stream.
	lineShift := uint(6)
	regionLines := LineAddr(1 << (30 - lineShift))
	act := s.cores[:active]
	for i, c := range act {
		c.domain = s.domainOf(i, active)
		c.strides = c.strides[:0]
		for _, st := range streams {
			c.strides = append(c.strides, workStream{
				base:  st.base/64 + LineAddr(i)*regionLines*8,
				write: st.write,
				nt:    st.nt,
			})
		}
		c.cursor = 0
		c.done = false
	}

	// Issue rate: CoreGBs of *stored* bytes per second translates into
	// iterations/tick; each iteration touches len(streams) lines.
	linesPerTickStored := s.cfg.CoreGBs * TickSeconds * 1e9 / float64(s.cfg.LineBytes)

	completed := s.completed
	var res TrafficResult
	res.ActiveCores = active

	maxTicks := int64(200_000_000)
	flushed := false
	for tick := int64(0); ; tick++ {
		if tick > maxTicks {
			return TrafficResult{}, fmt.Errorf("memsim: %s: run did not converge within %d ticks", s.cfg.Key, maxTicks)
		}
		allDone := true
		for _, c := range act {
			if c.done {
				continue
			}
			allDone = false
			c.issueAcc += linesPerTickStored
			for c.issueAcc >= 1 && !c.done {
				if c.outstanding >= s.cfg.MLP {
					break
				}
				if s.ctrl[c.domain].queuedBytes > s.cfg.QueueCapBytes {
					break
				}
				s.issueIteration(c, active)
				c.issueAcc--
				if c.cursor >= int64(linesPerCore) {
					c.done = true
				}
			}
		}
		if allDone && !flushed {
			// Trailing writebacks: dirty lines still in the caches
			// drain through the controllers like any other traffic.
			for _, c := range act {
				ctl := s.ctrl[c.domain]
				flush := func(a LineAddr) {
					ctl.enqueue(request{core: c.id, bytes: s.cfg.LineBytes})
				}
				c.l1.FlushDirty(flush)
				c.l2.FlushDirty(flush)
			}
			for d, l3 := range s.l3 {
				ctl := s.ctrl[d]
				l3.FlushDirty(func(a LineAddr) {
					ctl.enqueue(request{core: 0, bytes: s.cfg.LineBytes})
				})
			}
			flushed = true
		}
		for _, ctl := range s.ctrl {
			ctl.serve(completed)
		}
		for i, c := range act {
			if completed[i] > 0 {
				c.outstanding -= completed[i]
				completed[i] = 0
			}
		}
		if allDone && flushed {
			empty := true
			for _, ctl := range s.ctrl {
				if ctl.queue.size > 0 {
					empty = false
				}
			}
			if empty {
				s.ticks = tick
				break
			}
		}
	}

	for _, ctl := range s.ctrl {
		res.MemReadBytes += ctl.ReadBytes
		res.MemWriteBytes += ctl.WriteBytes
	}
	for _, c := range act {
		res.StoredBytes += c.storedBytes
		res.LoadedBytes += c.loadedBytes
	}
	res.Ticks = s.ticks
	return res, nil
}

// issueIteration performs one iteration (one line per stream) for a core.
func (s *System) issueIteration(c *simCore, active int) {
	lb := int64(s.cfg.LineBytes)
	for _, st := range c.strides {
		addr := st.base + LineAddr(c.cursor)
		switch {
		case st.write && st.nt:
			s.ntStore(c, active)
			c.storedBytes += lb
		case st.write:
			s.store(c, addr)
			c.storedBytes += lb
		default:
			s.load(c, addr)
			c.loadedBytes += lb
		}
	}
	c.cursor++
}

// store handles a standard full-line store.
func (s *System) store(c *simCore, a LineAddr) {
	streaming := false
	if s.cfg.Policy == PolicyAutoClaim {
		streaming = c.detector.Observe(a)
	}
	if c.l1.Lookup(a, true) {
		return
	}
	if c.l2.Lookup(a, true) {
		s.insertL1(c, a, true)
		return
	}
	l3 := s.l3[c.domain]
	if l3.Lookup(a, true) {
		s.insertL1(c, a, true)
		return
	}
	ctl := s.ctrl[c.domain]
	needRead := true
	switch s.cfg.Policy {
	case PolicyAutoClaim:
		needRead = !streaming
	case PolicySpecI2M:
		if ctl.i2m.Convert(ctl.util) {
			needRead = false
		}
	}
	if needRead {
		ctl.enqueue(request{core: c.id, bytes: s.cfg.LineBytes, isRead: true})
		c.outstanding++
	}
	s.insertL1(c, a, true)
}

// load handles a full-line read.
func (s *System) load(c *simCore, a LineAddr) {
	if c.l1.Lookup(a, false) {
		return
	}
	if c.l2.Lookup(a, false) {
		s.insertL1(c, a, false)
		return
	}
	if s.l3[c.domain].Lookup(a, false) {
		s.insertL1(c, a, false)
		return
	}
	ctl := s.ctrl[c.domain]
	ctl.enqueue(request{core: c.id, bytes: s.cfg.LineBytes, isRead: true})
	c.outstanding++
	s.insertL1(c, a, false)
}

// ntStore handles a non-temporal full-line store through write-combining
// buffers: the line bypasses the cache hierarchy entirely.
func (s *System) ntStore(c *simCore, active int) {
	ctl := s.ctrl[c.domain]
	ctl.enqueue(request{core: c.id, bytes: s.cfg.LineBytes, isRead: false})
	if s.cfg.NTResidualRFO > 0 && active > s.cfg.NTResidualMinCores {
		c.ntResidAcc += s.cfg.NTResidualRFO
		if c.ntResidAcc >= 1 {
			c.ntResidAcc--
			ctl.enqueue(request{core: c.id, bytes: s.cfg.LineBytes, isRead: true})
			c.outstanding++
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
		s.ctrl[c.domain].enqueue(request{core: c.id, bytes: s.cfg.LineBytes, isRead: false})
	}
}

// reset clears all state for a fresh run.
func (s *System) reset() {
	for i := range s.cores {
		c := s.cores[i]
		c.l1.reset()
		c.l2.reset()
		c.detector = streamDetector{TrainLen: s.cfg.DetectorTrainLen}
		c.outstanding = 0
		c.issueAcc = 0
		c.cursor = 0
		c.done = true
		c.ntResidAcc = 0
		c.storedBytes = 0
		c.loadedBytes = 0
	}
	for d := range s.l3 {
		s.l3[d].reset()
		s.ctrl[d].reset(s.cfg)
	}
	clear(s.completed)
	s.ticks = 0
}

// Utilization returns each domain controller's utilization EMA (tests).
func (s *System) Utilization() []float64 {
	out := make([]float64, len(s.ctrl))
	for i, c := range s.ctrl {
		out[i] = c.util
	}
	return out
}
