package portsched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleSequential(t *testing.T) {
	var p Port
	if got := p.Schedule(0, 1); got != 0 {
		t.Errorf("first slot = %f, want 0", got)
	}
	if got := p.Schedule(0, 1); got != 1 {
		t.Errorf("second slot = %f, want 1", got)
	}
	if got := p.Schedule(5, 1); got != 5 {
		t.Errorf("later slot = %f, want 5", got)
	}
}

func TestGapFilling(t *testing.T) {
	var p Port
	p.Schedule(0, 1)  // [0,1)
	p.Schedule(10, 2) // [10,12)
	// A µ-op ready at 2 must use the gap, not queue behind 12.
	if got := p.Schedule(2, 3); got != 2 {
		t.Errorf("gap fill start = %f, want 2", got)
	}
	// A µ-op that does not fit in the remaining gap goes after.
	if got := p.Schedule(2, 6); got != 12 {
		t.Errorf("oversized op start = %f, want 12", got)
	}
}

func TestMergeKeepsScheduleCompact(t *testing.T) {
	var p Port
	for i := 0; i < 100; i++ {
		p.Schedule(0, 1) // all contiguous
	}
	if len(p.busy) != 1 {
		t.Errorf("contiguous reservations should merge: %d spans", len(p.busy))
	}
}

func TestReset(t *testing.T) {
	var p Port
	p.Schedule(0, 5)
	p.Reset()
	if got := p.Schedule(0, 1); got != 0 {
		t.Errorf("after reset, slot = %f, want 0", got)
	}
}

// TestNoOverlapProperty schedules random µ-ops and verifies no two
// reservations overlap and each starts at/after its ready time.
func TestNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var p Port
		type span struct{ s, e float64 }
		var spans []span
		for i := 0; i < 200; i++ {
			earliest := float64(rng.Intn(300))
			dur := float64(1+rng.Intn(5)) / 2
			start := p.Schedule(earliest, dur)
			if start < earliest {
				t.Fatalf("start %f before ready %f", start, earliest)
			}
			spans = append(spans, span{start, start + dur})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
		for i := 1; i < len(spans); i++ {
			if spans[i].s < spans[i-1].e-1e-9 {
				t.Fatalf("overlap: %+v then %+v", spans[i-1], spans[i])
			}
		}
	}
}

// TestEarliestFitProperty: the returned slot must be the first feasible
// position (no earlier feasible start exists).
func TestEarliestFitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		var p Port
		var booked [][2]float64
		for i := 0; i < 100; i++ {
			earliest := float64(rng.Intn(100))
			dur := float64(1 + rng.Intn(4))
			start, _ := p.EarliestSlot(earliest, dur)
			// Verify no feasible slot in [earliest, start): check a few
			// candidate positions.
			for probe := earliest; probe < start-1e-9; probe += 0.5 {
				if fits(booked, probe, dur) {
					t.Fatalf("missed earlier slot at %f (returned %f)", probe, start)
				}
			}
			p.Reserve(start, dur, reservePos(&p, start, dur))
			booked = append(booked, [2]float64{start, start + dur})
		}
	}
}

// reservePos recomputes the insertion position for a known-feasible start.
func reservePos(p *Port, start, dur float64) int {
	t, pos := p.EarliestSlot(start, dur)
	if t != start {
		panic("slot no longer available")
	}
	return pos
}

func fits(booked [][2]float64, start, dur float64) bool {
	end := start + dur
	for _, b := range booked {
		if start < b[1]-1e-9 && b[0] < end-1e-9 {
			return false
		}
	}
	return true
}

func TestGroupScheduleBest(t *testing.T) {
	g := &Group{Ports: make([]Port, 3)}
	g.Ports[0].Schedule(0, 10) // port 0 busy until 10
	port, start := g.ScheduleBest([]int{0, 1, 2}, 0, 1)
	if port == 0 || start != 0 {
		t.Errorf("best port = %d at %f, want a free port at 0", port, start)
	}
}

func TestGroupScheduleOn(t *testing.T) {
	g := &Group{Ports: make([]Port, 2)}
	if got := g.ScheduleOn(1, 3, 2); got != 3 {
		t.Errorf("ScheduleOn = %f, want 3", got)
	}
	if got := g.ScheduleOn(1, 3, 2); got != 5 {
		t.Errorf("second ScheduleOn = %f, want 5", got)
	}
}

// TestQuickTotalOccupancy: total booked time equals the sum of durations.
func TestQuickTotalOccupancy(t *testing.T) {
	f := func(durs []uint8) bool {
		var p Port
		var total float64
		for _, d := range durs {
			dur := float64(d%7) + 1
			p.Schedule(0, dur)
			total += dur
		}
		// All reservations are contiguous from 0 (always feasible at the
		// end), so the single merged span must end at total.
		end, _ := p.EarliestSlot(0, 0.5)
		return end == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGroupResetTo(t *testing.T) {
	g := &Group{Ports: make([]Port, 2)}
	g.ScheduleOn(0, 0, 3)
	g.ScheduleOn(1, 1, 2)
	g.ResetTo(3)
	if len(g.Ports) != 3 {
		t.Fatalf("ResetTo(3) left %d ports", len(g.Ports))
	}
	for i := range g.Ports {
		if len(g.Ports[i].busy) != 0 {
			t.Errorf("port %d not cleared", i)
		}
	}
	// Shrinking reuses the prefix.
	g.ScheduleOn(2, 0, 1)
	g.ResetTo(1)
	if len(g.Ports) != 1 || len(g.Ports[0].busy) != 0 {
		t.Error("ResetTo(1) did not clear/resize")
	}
}

func TestPortAppendTail(t *testing.T) {
	var p Port
	p.Schedule(0, 2) // [0,2)
	p.Schedule(4, 1) // [4,5)
	p.Schedule(8, 2) // [8,10)
	starts, ends := p.AppendTail(nil, nil, 4.5)
	// [4,5) ends after 4.5 (start clamped to 4.5), [8,10) follows.
	if len(starts) != 2 || len(ends) != 2 {
		t.Fatalf("tail = %v/%v, want 2 intervals", starts, ends)
	}
	if starts[0] != 4.5 || ends[0] != 5 {
		t.Errorf("first tail interval = [%v,%v), want clamped [4.5,5)", starts[0], ends[0])
	}
	if starts[1] != 8 || ends[1] != 10 {
		t.Errorf("second tail interval = [%v,%v), want [8,10)", starts[1], ends[1])
	}
	// A cut beyond every interval yields nothing.
	if s2, _ := p.AppendTail(nil, nil, 10); len(s2) != 0 {
		t.Errorf("tail past end = %v, want empty", s2)
	}
	// Appends to the destination without clobbering.
	s3, e3 := p.AppendTail(starts, ends, 9)
	if len(s3) != 3 || len(e3) != 3 || s3[2] != 9 || e3[2] != 10 {
		t.Errorf("append-to-dst tail = %v/%v", s3, e3)
	}
}

// TestFirstEndAfterMatchesBisection checks the galloping search against
// plain bisection over random sorted schedules, including the empty
// schedule and times before every end, on an end, and after every end.
func TestFirstEndAfterMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var p Port
		at := 0.0
		for n := rng.Intn(70); len(p.busy) < n; {
			at += float64(rng.Intn(4))
			end := at + 1 + float64(rng.Intn(3))
			p.busy = append(p.busy, Interval{Start: at, End: end})
			at = end
		}
		times := []float64{-1, 0, at, at + 1, rng.Float64() * (at + 2)}
		if len(p.busy) > 0 {
			times = append(times, p.busy[rng.Intn(len(p.busy))].End)
		}
		for _, x := range times {
			want := sort.Search(len(p.busy), func(i int) bool { return p.busy[i].End > x })
			if got := p.firstEndAfter(x); got != want {
				t.Fatalf("%d intervals, t=%v: firstEndAfter = %d, bisection %d", len(p.busy), x, got, want)
			}
		}
	}
}
