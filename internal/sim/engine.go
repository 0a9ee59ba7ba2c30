package sim

import (
	"sync"

	"incore/internal/isa"
	"incore/internal/portsched"
	"incore/internal/uarch"
)

// simState is the pooled per-run scratch state of the execution engine.
// Timestamp histories live in power-of-two ring buffers sized to the live
// microarchitectural window (see reset), so memory is O(window), not
// O(iterations), and a state recycled through statePool runs the hot loop
// without allocating.
type simState struct {
	// Per-dynamic-instruction timestamp rings, indexed dyn & imask.
	fetch, ready, started, retire []float64
	imask                         int
	liveInstr                     int // simulation lookback the instruction rings must hold

	// Per-µ-op-slot rings, indexed slot & umask.
	uopDispatch, uopIssued []float64
	umask                  int
	liveU                  int
	uopCount               int

	// Dense per-register state (interned IDs): last producing / reading
	// dynamic instruction, -1 if none.
	producer, lastReader []int
	// Last and previous store instance per static slot, -1 if none.
	lastStoreDyn, prevStoreDyn []int

	ports    portsched.Group
	portBusy []float64

	// Steady-state detection state; see steady.go.
	canDetect    bool
	slotsPerIter int
	schedSize    int
	occSeq       []float64 // per-iteration port-busy charge sequence
	portRec      []uint8   // ring: chosen port per charge, last maxPeriod iters
	recBase      int
	bRetire      [bRetireLen]float64 // retire value at recent iteration boundaries
	tails        [tailRingLen]tailSnap
}

var statePool = sync.Pool{New: func() any { return new(simState) }}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func fillNeg(s []int) {
	for i := range s {
		s[i] = -1
	}
}

// reset sizes the state for one run of p under cfg and clears everything a
// previous run could have left behind. Ring contents are not cleared: the
// engine only reads slots it has written this run (every lookback is
// guarded by dyn/slot-count comparisons, exactly as the O(iterations)
// implementation guarded its array indices).
func (s *simState) reset(p *Program, cfg *Config, issueWidth int) {
	m := p.model
	n := p.nStatic

	live := m.ROBSize
	if 2*n > live {
		live = 2 * n
	}
	if m.DecodeWidth > live {
		live = m.DecodeWidth
	}
	if m.RetireWidth > live {
		live = m.RetireWidth
	}
	live += 2
	s.liveInstr = live
	ringLen := nextPow2(live + (confirmPeriods+1)*maxPeriod*n + n + 4)
	s.fetch = growF(s.fetch, ringLen)
	s.ready = growF(s.ready, ringLen)
	s.started = growF(s.started, ringLen)
	s.retire = growF(s.retire, ringLen)
	s.imask = ringLen - 1

	liveU := m.SchedSize
	if issueWidth > liveU {
		liveU = issueWidth
	}
	liveU += p.maxUopSlots + 2
	s.liveU = liveU
	uLen := nextPow2(liveU + (confirmPeriods+1)*maxPeriod*p.slotsPerIter + p.slotsPerIter + 4)
	s.uopDispatch = growF(s.uopDispatch, uLen)
	s.uopIssued = growF(s.uopIssued, uLen)
	s.umask = uLen - 1
	s.uopCount = 0

	s.producer = growI(s.producer, p.nRegs)
	fillNeg(s.producer)
	s.lastReader = growI(s.lastReader, p.nRegs)
	fillNeg(s.lastReader)
	s.lastStoreDyn = growI(s.lastStoreDyn, n)
	fillNeg(s.lastStoreDyn)
	s.prevStoreDyn = growI(s.prevStoreDyn, n)
	fillNeg(s.prevStoreDyn)

	s.ports.ResetTo(len(m.Ports))
	s.portBusy = growF(s.portBusy, len(m.Ports))
	for i := range s.portBusy {
		s.portBusy[i] = 0
	}

	s.slotsPerIter = p.slotsPerIter
	s.schedSize = m.SchedSize
	s.buildOccSeq(p, cfg)
	s.canDetect = !cfg.DisableSteadyState && cfg.Trace == nil &&
		p.slotsPerIter > 0 && occsDyadic(s.occSeq)
	if rn := maxPeriod * len(s.occSeq); cap(s.portRec) < rn {
		s.portRec = make([]uint8, rn)
	} else {
		s.portRec = s.portRec[:rn]
	}
	s.recBase = 0
}

// buildOccSeq precomputes the per-iteration sequence of port-busy charges
// in engine issue order (per instruction: load µ-ops first, then the
// rest; µ-ops without candidate ports are never scheduled or charged).
func (s *simState) buildOccSeq(p *Program, cfg *Config) {
	s.occSeq = s.occSeq[:0]
	scaleOn := cfg.DivEarlyExitFactor > 0 && cfg.DivEarlyExitFactor < 1
	for i := range p.instrs {
		pi := &p.instrs[i]
		scale := scaleOn && pi.divScaled
		for pass := 0; pass < 2; pass++ {
			for ui := pi.uopOff; ui < pi.uopEnd; ui++ {
				u := &p.uops[ui]
				if (u.kind == uarch.UopLoad) != (pass == 0) || len(u.cand) == 0 {
					continue
				}
				occ := u.cycles
				if scale {
					occ *= cfg.DivEarlyExitFactor
				}
				s.occSeq = append(s.occSeq, occ)
			}
		}
	}
}

// run is the engine hot loop. It mirrors the original O(iterations)
// implementation statement for statement — every arithmetic operation
// happens in the same order on the same values, so results are
// bit-identical — with ring indexing in place of flat arrays and dense
// interned-ID slices in place of maps.
func (s *simState) run(p *Program, cfg *Config, issueWidth int) (*Result, error) {
	m := p.model
	nStatic := p.nStatic
	iters := cfg.WarmupIters + cfg.MeasureIters
	nDyn := nStatic * iters
	imask, umask := s.imask, s.umask
	accPerIter := len(s.occSeq)

	divScale := 0.0
	if cfg.DivEarlyExitFactor > 0 && cfg.DivEarlyExitFactor < 1 {
		divScale = cfg.DivEarlyExitFactor
	}

	measureStart := 0.0
	measureStartSet := false
	detIter, detP := 0, 0
	var detD float64
	detected := false

	for dyn := 0; dyn < nDyn; dyn++ {
		si := dyn % nStatic
		iter := dyn / nStatic

		if si == 0 {
			// Iteration boundary: open the measurement window, then give
			// the steady-state detector a chance to finish the run early.
			if iter == cfg.WarmupIters && dyn > 0 {
				measureStart = s.retire[(dyn-1)&imask]
				measureStartSet = true
			}
			if s.canDetect && iter >= 1 {
				s.bRetire[iter%bRetireLen] = s.retire[(dyn-1)&imask]
				s.snapshotTails(iter, s.futureIssueFloor())
				if P, D, ok := s.tryDetect(p, iter, dyn); ok {
					detIter, detP, detD, detected = iter, P, D, true
					break
				}
				s.recBase = (iter % maxPeriod) * accPerIter
			}
		}

		st := &p.instrs[si]

		// --- fetch/decode: DecodeWidth instructions per cycle; a taken
		// branch terminates the fetch group, so the loop's first
		// instruction always starts a fresh fetch cycle.
		f := 0.0
		if dyn >= m.DecodeWidth {
			f = s.fetch[(dyn-m.DecodeWidth)&imask] + 1
		}
		if dyn > 0 && s.fetch[(dyn-1)&imask] > f {
			f = s.fetch[(dyn-1)&imask]
		}
		if dyn > 0 && p.instrs[(dyn-1)%nStatic].isBranch {
			if t := s.fetch[(dyn-1)&imask] + 1; t > f {
				f = t
			}
		}
		s.fetch[dyn&imask] = f

		// --- dispatch constraints: issue width, ROB, scheduler.
		disp := f + 1
		if dyn >= m.ROBSize {
			if t := s.retire[(dyn-m.ROBSize)&imask]; t > disp {
				disp = t
			}
		}
		// Issue width applies per µ-op slot: the group dispatches when the
		// slot of its *last* µ-op frees up.
		uopBase := s.uopCount
		if lastSlot := uopBase + int(st.nUopsWidth) - 1; lastSlot >= issueWidth {
			ref := lastSlot - issueWidth
			if ref < uopBase { // previous instructions' slots only
				if t := s.uopDispatch[ref&umask] + 1; t > disp {
					disp = t
				}
			}
		}
		if uopBase >= m.SchedSize {
			if t := s.uopIssued[(uopBase-m.SchedSize)&umask]; t > disp {
				disp = t
			}
		}

		// --- address-stage readiness.
		addrReady := disp
		for _, id := range st.addrIDs {
			if pd := s.producer[id]; pd >= 0 {
				if t := s.ready[pd&imask]; t > addrReady {
					addrReady = t
				}
			}
		}
		// Memory dependencies: loads wait for forwarded stores.
		loadDepReady := addrReady
		if st.isLoad {
			for _, md := range p.loadDeps[si] {
				var sd int
				var ok bool
				switch {
				case md.carried && md.store > md.load:
					// Store later in program order (e.g. Gauss-Seidel:
					// store phi[i], reload phi[i-1] next iteration): the
					// most recent completed store is last iteration's.
					sd = s.lastStoreDyn[md.store]
					ok = sd >= 0
				case md.carried:
					// Store earlier in program order: this iteration's
					// store already ran; the dependency is on the
					// previous iteration's.
					sd = s.prevStoreDyn[md.store]
					ok = sd >= 0
				default:
					sd = s.lastStoreDyn[md.store]
					ok = sd >= 0 && sd/nStatic == iter && md.store < si
				}
				if ok {
					if t := s.started[sd&imask] + isa.StoreForwardDelay; t > loadDepReady {
						loadDepReady = t
					}
				}
			}
		}

		// --- data-stage readiness.
		dataReady := disp
		for _, id := range st.dataIDs {
			if pd := s.producer[id]; pd >= 0 {
				if t := s.readyFor(p, cfg, pd, st, id); t > dataReady {
					dataReady = t
				}
			}
		}
		if cfg.DisableRenaming {
			for _, w := range st.writeIDs {
				if pd := s.producer[w]; pd >= 0 && s.ready[pd&imask] > dataReady {
					dataReady = s.ready[pd&imask]
				}
				if pr := s.lastReader[w]; pr >= 0 && s.started[pr&imask] > dataReady {
					dataReady = s.started[pr&imask]
				}
			}
		}

		accounting := iter >= cfg.WarmupIters
		scale := 0.0
		if st.divScaled {
			scale = divScale
		}

		// --- issue µ-ops: earliest free gap on the best candidate port
		// (equivalent to an oldest-first picker; see portsched). Load
		// µ-ops first, then compute/store once the load stage is known.
		loadDone := 0.0
		haveLoads := false
		computeStart := dataReady
		for ui := st.uopOff; ui < st.uopEnd; ui++ {
			u := &p.uops[ui]
			if u.kind != uarch.UopLoad {
				continue
			}
			t := s.issueUop(u, loadDepReady, disp, scale, accounting)
			haveLoads = true
			var done float64
			if st.hasLoadStage {
				done = t + st.loadLat
			} else {
				// AArch64 loads: entry latency is inclusive.
				done = t
			}
			if done > loadDone {
				loadDone = done
			}
			if !st.hasLoadStage && t > computeStart {
				computeStart = t
			}
		}
		if haveLoads && st.hasLoadStage && loadDone > computeStart {
			computeStart = loadDone
		}
		lastComputeIssue := computeStart
		nCompute := 0
		for ui := st.uopOff; ui < st.uopEnd; ui++ {
			u := &p.uops[ui]
			if u.kind == uarch.UopLoad {
				continue
			}
			earliest := computeStart
			if u.kind == uarch.UopStoreAddr {
				earliest = addrReady
			}
			t := s.issueUop(u, earliest, disp, scale, accounting)
			if t > lastComputeIssue {
				lastComputeIssue = t
			}
			nCompute++
		}
		if st.uopOff == st.uopEnd {
			s.pushSlot(disp, disp)
		}

		// --- result timing.
		var res float64
		switch {
		case nCompute > 0 && haveLoads && st.hasLoadStage:
			res = lastComputeIssue + st.lat
			if st.latZero {
				res = lastComputeIssue + 1
			}
		case haveLoads && nCompute == 0:
			// Pure load.
			if st.hasLoadStage {
				res = loadDone
			} else {
				// AArch64 load: computeStart tracked the load issue time
				// and the entry latency is load-to-use inclusive.
				res = computeStart + st.totalLat
			}
		default:
			res = lastComputeIssue + st.totalLat
		}
		s.started[dyn&imask] = lastComputeIssue
		s.ready[dyn&imask] = res

		// --- retire in order.
		ret := res
		if st.isStore || st.isBranch {
			ret = lastComputeIssue + 1
		}
		if dyn > 0 && s.retire[(dyn-1)&imask] > ret {
			ret = s.retire[(dyn-1)&imask]
		}
		if dyn >= m.RetireWidth {
			if t := s.retire[(dyn-m.RetireWidth)&imask] + 1; t > ret {
				ret = t
			}
		}
		s.retire[dyn&imask] = ret

		// --- architectural state updates.
		for _, id := range st.readIDs {
			s.lastReader[id] = dyn
		}
		for _, id := range st.writeIDs {
			s.producer[id] = dyn
		}
		if st.isStore {
			if prev := s.lastStoreDyn[si]; prev >= 0 {
				s.prevStoreDyn[si] = prev
			}
			s.lastStoreDyn[si] = dyn
		}

		if cfg.Trace != nil {
			cfg.Trace(dyn, p.instrName(si), f, disp, lastComputeIssue, res, ret)
		}
	}

	var lastRetire float64
	ssIter := 0
	if detected {
		lastRetire = s.extrapolateBoundary(iters, detIter, detP, detD)
		if !measureStartSet {
			measureStart = s.extrapolateBoundary(cfg.WarmupIters, detIter, detP, detD)
			measureStartSet = true
		}
		s.replayPortBusy(cfg, detIter, detP, iters)
		ssIter = detIter
	} else {
		lastRetire = s.retire[(nDyn-1)&imask]
	}

	if !measureStartSet {
		return nil, errNoWindow(p.block)
	}
	total := lastRetire - measureStart
	if total <= 0 {
		total = 1
	}
	portCycles := make([]float64, len(s.portBusy))
	copy(portCycles, s.portBusy)
	return &Result{
		CyclesPerIter:   total / float64(cfg.MeasureIters),
		TotalCycles:     total,
		Iters:           cfg.MeasureIters,
		PortCycles:      portCycles,
		SteadyStateIter: ssIter,
	}, nil
}

// readyFor returns when producer pd's result is usable by consumer cur
// through register id, applying the forwarding-network model.
func (s *simState) readyFor(p *Program, cfg *Config, pd int, cur *pInstr, id int32) float64 {
	t := s.ready[pd&s.imask]
	ps := &p.instrs[pd%p.nStatic]
	if cfg.FMAAccForwardLat > 0 && cur.isFMA && id == cur.accID && ps.isFMA {
		if ft := s.started[pd&s.imask] + float64(cfg.FMAAccForwardLat); ft < t {
			t = ft
		}
	}
	if cfg.CrossOpForwardSave > 0 && ps.fpClass != isa.FPNone && cur.fpClass != isa.FPNone &&
		ps.fpClass != cur.fpClass {
		if ft := t - float64(cfg.CrossOpForwardSave); ft > s.started[pd&s.imask] {
			t = ft
		}
	}
	return t
}

// issueUop schedules one µ-op on the earliest-available candidate port,
// charges the measured-window port accounting, and appends its dispatch
// slot. µ-ops with no candidate ports take no slot and issue at their
// earliest time (mirroring the original engine).
func (s *simState) issueUop(u *pUop, earliest, disp, scale float64, accounting bool) float64 {
	occ := u.cycles
	if scale > 0 {
		occ *= scale
	}
	if len(u.cand) == 0 {
		return earliest
	}
	bestPort, bestTime := s.ports.ScheduleBest(u.cand, earliest, occ)
	if accounting {
		s.portBusy[bestPort] += occ
	}
	if s.canDetect {
		s.portRec[s.recBase] = uint8(bestPort)
		s.recBase++
	}
	s.pushSlot(disp, bestTime)
	return bestTime
}

func (s *simState) pushSlot(disp, issued float64) {
	i := s.uopCount & s.umask
	s.uopDispatch[i] = disp
	s.uopIssued[i] = issued
	s.uopCount++
}
