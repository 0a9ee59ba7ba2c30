package memsim

import "slices"

// Replayed runs.
//
// In a run whose layout check passes (linesNeverRepeat), no line is
// touched twice, and three facts hold:
//
//  1. No lookup can hit.
//  2. A core's L1 and L2 receive only that core's inserts, in cursor
//     order: controller state, ticks and other cores cannot change it.
//  3. L2 and L3 only ever receive dirty lines, so every L2 or L3
//     eviction is a writeback, and nothing reads an L3 victim's address.
//
// A core's private-cache behaviour is therefore a pure function of its
// stream bases. Cores whose streams are all shifted by one common amount
// that is a multiple of both the L1 and the L2 set count behave the same
// up to that shift: they form a layout class. schedule runs each class
// representative's L1 and L2 once over the whole workload and records
// which line, if any, each access hands to L3. The tick loop then
// replays that schedule on every core of the class; ticks, controllers,
// SpecI2M, the claim detector and the NT residual are still simulated
// per core. The L3 needs no addresses: a set's state is how many of its
// ways have filled.

// replayClass is one layout class of a replayed run.
type replayClass struct {
	rep *simCore
	// handoff holds, per access (iteration*streams + stream), 1 + the L3
	// set of the line the representative's L2 evicts, or 0 for none.
	handoff []uint32
	// dirty counts the dirty L1 and L2 lines left at the end of the run.
	dirty int
}

// l3Fill is an L3 slice in a replayed run. Only dirty lines arrive and
// none repeats, so a set fills its ways and, once full, evicts a dirty
// line on every insert.
type l3Fill struct {
	filled    []uint8 // per set: ways filled
	ways      uint8
	lines     int // filled ways over all sets
	evictions int64
}

func (f *l3Fill) reset() {
	clear(f.filled)
	f.lines, f.evictions = 0, 0
}

// insert fills a dirty line into set s, which may be up to one set count
// past the last set, and reports whether it evicted one.
func (f *l3Fill) insert(s uint32) bool {
	if n := uint32(len(f.filled)); s >= n {
		s -= n
	}
	if f.filled[s] == f.ways {
		f.evictions++
		return true
	}
	f.filled[s]++
	f.lines++
	return false
}

// schedule groups the active cores into layout classes and records each
// class's schedule on its representative's L1 and L2, then gives every
// core its class's private-cache counters.
func (s *System) schedule(act []*simCore, linesPerCore int) {
	l1, l2, l3 := int64(s.cfg.L1.Sets()), int64(s.cfg.L2.Sets()), int64(s.cfg.L3.Sets())
	s.classes = s.classes[:0]
	for _, c := range act {
		c.class = -1
		for k := range s.classes {
			if d, ok := shiftOf(c, s.classes[k].rep); ok && d%l1 == 0 && d%l2 == 0 {
				c.class = k
				c.l3shift = uint32((d%l3 + l3) % l3)
				break
			}
		}
		if c.class < 0 {
			c.class, c.l3shift = len(s.classes), 0
			// A slot from an earlier run keeps its schedule buffer.
			if len(s.classes) < cap(s.classes) {
				s.classes = s.classes[:len(s.classes)+1]
			} else {
				s.classes = append(s.classes, replayClass{})
			}
			s.classes[c.class].rep = c
		}
	}
	for k := range s.classes {
		s.record(&s.classes[k], linesPerCore)
	}
	for _, c := range act {
		cl := &s.classes[c.class]
		c.handoff = cl.handoff
		c.l1.CacheStats, c.l2.CacheStats = cl.rep.l1.CacheStats, cl.rep.l2.CacheStats
	}
}

// shiftOf reports whether c's streams are r's, each shifted by one common
// amount, and returns the amount.
func shiftOf(c, r *simCore) (int64, bool) {
	if len(c.strides) != len(r.strides) {
		return 0, false
	}
	d := c.strides[0].base - r.strides[0].base
	for j, st := range c.strides {
		rs := r.strides[j]
		if st.base-rs.base != d || st.write != rs.write || st.nt != rs.nt {
			return 0, false
		}
	}
	return int64(d), true
}

// record runs the class representative's L1 and L2 over the workload,
// inserting only: every lookup would miss, so the misses are counted
// here in bulk.
func (s *System) record(cl *replayClass, linesPerCore int) {
	r := cl.rep
	n := linesPerCore * len(r.strides)
	cl.handoff = slices.Grow(cl.handoff[:0], n)[:n]
	misses, i := 0, 0
	for k := 0; k < linesPerCore; k++ {
		for _, st := range r.strides {
			cl.handoff[i] = 0
			if !st.nt {
				misses++
				if v, evicted, dirty := r.l1.Insert(st.base+LineAddr(k), st.write); evicted && dirty {
					if v2, e2, d2 := r.l2.Insert(v, true); e2 && d2 {
						cl.handoff[i] = 1 + uint32(s.l3[0].setOf(v2))
					}
				}
			}
			i++
		}
	}
	r.l1.Misses, r.l2.Misses = int64(misses), int64(misses)
	cl.dirty = 0
	count := func(LineAddr) { cl.dirty++ }
	r.l1.FlushDirty(count)
	r.l2.FlushDirty(count)
}

// settleL3Stats gives each L3 the counters its slice of a replayed run
// would have: one miss per cached access of its cores, and a dirty
// eviction per fill into a full set.
func (s *System) settleL3Stats(act []*simCore) {
	for _, c := range act {
		s.l3[c.domain].Misses += c.l1.Misses
	}
	for d, f := range s.fills {
		s.l3[d].Evictions, s.l3[d].DirtyEvictions = f.evictions, f.evictions
	}
}
