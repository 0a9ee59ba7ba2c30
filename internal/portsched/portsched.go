// Package portsched implements per-port busy-interval schedules with gap
// filling. An out-of-order scheduler picks, every cycle, the oldest ready
// µ-op for each free port; in an event-driven timing model the equivalent
// behaviour is achieved by letting each µ-op occupy the earliest free gap
// at or after its ready time. Without gap filling, program-order
// reservation suffers head-of-line blocking: a dependent µ-op scheduled
// far in the future would block older-but-later-ready work from using the
// idle port time before it, which real hardware happily uses.
package portsched

// Interval is a half-open busy span [Start, End).
type Interval struct {
	Start, End float64
}

// Port is one execution port's schedule: a sorted, non-overlapping list of
// busy intervals. The zero value is an idle port.
type Port struct {
	busy []Interval
}

// Reset clears the schedule.
func (p *Port) Reset() { p.busy = p.busy[:0] }

// AppendTail appends the start and end times of every busy interval
// ending after the given time to the two destination slices (schedule
// order, i.e. ascending), with starts clamped up to the given time.
// Consumers compare schedule tails across loop iterations to prove a
// simulation periodic, and the clamp is what makes that comparison both
// sound and able to converge: a saturated port's schedule merges into one
// interval whose start recedes into the transient, but for any µ-op whose
// earliest issue time lies beyond `after`, everything at or before that
// point is unusable — only the interval's end constrains it. (Intervals
// after the first necessarily start beyond `after`, since the list is
// sorted and non-overlapping, so the clamp can only touch the first.)
func (p *Port) AppendTail(starts, ends []float64, after float64) ([]float64, []float64) {
	for _, iv := range p.busy[p.firstEndAfter(after):] {
		s := iv.Start
		if s < after {
			s = after
		}
		starts = append(starts, s)
		ends = append(ends, iv.End)
	}
	return starts, ends
}

// EarliestSlot returns the earliest start time t >= earliest at which a
// µ-op of duration dur fits, along with the insertion position.
func (p *Port) EarliestSlot(earliest, dur float64) (float64, int) {
	t := earliest
	i := p.firstEndAfter(earliest)
	for i < len(p.busy) {
		if t+dur <= p.busy[i].Start {
			return t, i
		}
		if p.busy[i].End > t {
			t = p.busy[i].End
		}
		i++
	}
	return t, i
}

// firstEndAfter returns the index of the first busy interval that ends
// after t, or len(busy) for none. Requests almost always land at the
// schedule's tail, so it gallops back from the end by doubling steps,
// then bisects the last step.
func (p *Port) firstEndAfter(t float64) int {
	lo, hi := 0, len(p.busy)
	// Every interval from hi on ends after t.
	for step := 1; hi > 0; step *= 2 {
		i := max(hi-step, 0)
		if p.busy[i].End <= t {
			lo = i + 1
			break
		}
		hi = i
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.busy[mid].End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Reserve books [t, t+dur) at insertion position pos (as returned by
// EarliestSlot with the same arguments). Adjacent intervals are merged to
// keep the schedule compact in steady state.
func (p *Port) Reserve(t, dur float64, pos int) {
	const eps = 1e-9
	end := t + dur
	// Merge with predecessor when contiguous.
	if pos > 0 && t-p.busy[pos-1].End <= eps {
		p.busy[pos-1].End = end
		// Merge with successor too if now contiguous.
		if pos < len(p.busy) && p.busy[pos].Start-end <= eps {
			p.busy[pos-1].End = p.busy[pos].End
			p.busy = append(p.busy[:pos], p.busy[pos+1:]...)
		}
		return
	}
	// Merge with successor when contiguous.
	if pos < len(p.busy) && p.busy[pos].Start-end <= eps {
		p.busy[pos].Start = t
		return
	}
	p.busy = append(p.busy, Interval{})
	copy(p.busy[pos+1:], p.busy[pos:])
	p.busy[pos] = Interval{Start: t, End: end}
}

// Schedule books the earliest feasible slot at or after earliest and
// returns its start time.
func (p *Port) Schedule(earliest, dur float64) float64 {
	t, pos := p.EarliestSlot(earliest, dur)
	p.Reserve(t, dur, pos)
	return t
}

// Group is a set of ports addressed by index.
type Group struct {
	Ports []Port
}

// ResetTo clears the group and resizes it to n ports, reusing each
// retained port's interval capacity so pooled simulator states do not
// reallocate schedules between runs.
func (g *Group) ResetTo(n int) {
	if cap(g.Ports) < n {
		grown := make([]Port, n)
		copy(grown, g.Ports)
		g.Ports = grown
	}
	g.Ports = g.Ports[:n]
	for i := range g.Ports {
		g.Ports[i].Reset()
	}
}

// ScheduleBest books the port (among candidates) with the earliest
// feasible slot and returns (port index, start time). Ties break toward
// the lowest port index. candidates must be non-empty.
func (g *Group) ScheduleBest(candidates []int, earliest, dur float64) (int, float64) {
	bestPort, bestT, bestPos := -1, 0.0, 0
	for _, c := range candidates {
		t, pos := g.Ports[c].EarliestSlot(earliest, dur)
		if bestPort < 0 || t < bestT {
			bestPort, bestT, bestPos = c, t, pos
		}
	}
	g.Ports[bestPort].Reserve(bestT, dur, bestPos)
	return bestPort, bestT
}

// ScheduleOn books the earliest slot on one specific port.
func (g *Group) ScheduleOn(port int, earliest, dur float64) float64 {
	return g.Ports[port].Schedule(earliest, dur)
}
