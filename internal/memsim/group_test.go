package memsim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// groupWorkloads are the workloads the group tests run, at any length.
var groupWorkloads = []struct {
	name string
	run  func(s *System, active, lines int) (TrafficResult, error)
}{
	{"store", func(s *System, n, l int) (TrafficResult, error) { return s.RunStoreStream(n, l, false) }},
	{"store-nt", func(s *System, n, l int) (TrafficResult, error) { return s.RunStoreStream(n, l, true) }},
	{"triad", func(s *System, n, l int) (TrafficResult, error) { return s.RunTriad(n, l, false) }},
	{"triad-nt", func(s *System, n, l int) (TrafficResult, error) { return s.RunTriad(n, l, true) }},
	{"copy", func(s *System, n, l int) (TrafficResult, error) { return s.RunCopy(n, l, false) }},
}

// TestGroupsMatchSingles runs every golden workload at 1 core, half the
// socket and the full socket of each config (zen4's full-socket store
// stream among them), goldencove's store stream at the counts where
// SpecI2M engages and groups dissolve, repro's triad of each config at a
// DefaultCounts count, then seeded random core and line counts, once
// with groups and once with every group kept at one member. Both must
// give the same TrafficResult and per-cache counters, and both must be
// replayed.
func TestGroupsMatchSingles(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		grouped, single := sys(t, key), sys(t, key)
		single.forceSingle = true
		cores := grouped.cfg.Cores
		type run struct{ active, lines, w int }
		var runs []run
		for _, n := range []int{1, cores / 2, cores} {
			for w := range groupWorkloads {
				runs = append(runs, run{n, goldenLines, w})
			}
		}
		if key == "goldencove" {
			for _, n := range []int{19, 26, 32, 39, 45} {
				runs = append(runs, run{n, goldenLines, 0})
			}
		}
		triad := 3 // NT stores where the policy claims no lines, as repro runs it
		if key == "neoversev2" {
			triad = 2
		}
		runs = append(runs, run{cores * 3 / 4, goldenLines, triad})
		for range 10 {
			runs = append(runs, run{1 + rng.IntN(cores), 1 + rng.IntN(3000), rng.IntN(len(groupWorkloads))})
		}
		for _, r := range runs {
			w := groupWorkloads[r.w]
			name := fmt.Sprintf("%s/%s/%d/%d", key, w.name, r.active, r.lines)
			got, err := w.run(grouped, r.active, r.lines)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := w.run(single, r.active, r.lines)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !grouped.replay || !single.replay {
				t.Fatalf("%s: replayed %t grouped, %t single; want both", name, grouped.replay, single.replay)
			}
			if got != want {
				t.Errorf("%s: grouped %+v, single %+v", name, got, want)
			}
			if g, s := counters(grouped), counters(single); !slices.Equal(g, s) {
				t.Errorf("%s: grouped counters %v, single %v", name, g, s)
			}
		}
	}
}

// TestGroupsEngage checks that full-socket store streams whose cores run
// in lockstep are issued in groups: the tick loop issues members one at a
// time for at most a quarter of the ticks they take part in, and a run
// forced to groups of one issues every member that does, each on the
// single-member path. Where SpecI2M tells the members of goldencove's
// full-socket store stream apart, groups dissolve into singles that stay
// apart: at most 1% of its visits issue a group of more than one member.
func TestGroupsEngage(t *testing.T) {
	for _, c := range []struct {
		key string
		nt  bool
	}{{"zen4", true}, {"neoversev2", false}} {
		grouped, single := sys(t, c.key), sys(t, c.key)
		single.forceSingle = true
		for _, s := range []*System{grouped, single} {
			if _, err := s.RunStoreStream(s.cfg.Cores, testLines, c.nt); err != nil {
				t.Fatal(err)
			}
		}
		if g := grouped; g.issues*4 > g.memberTicks {
			t.Errorf("%s nt=%t: %d single issues over %d member-ticks, want at most a quarter",
				c.key, c.nt, g.issues, g.memberTicks)
		}
		if g, s := grouped, single; s.memberTicks != g.memberTicks || s.issues <= g.issues {
			t.Errorf("%s nt=%t: groups of one issued %d over %d member-ticks, groups %d over %d",
				c.key, c.nt, s.issues, s.memberTicks, g.issues, g.memberTicks)
		}
		if single.groupSteps != 0 {
			t.Errorf("%s nt=%t: groups of one took %d group steps, want 0", c.key, c.nt, single.groupSteps)
		}
	}
	s := sys(t, "goldencove")
	if _, err := s.RunStoreStream(s.cfg.Cores, testLines, false); err != nil {
		t.Fatal(err)
	}
	if s.groupSteps*100 > s.issues {
		t.Errorf("goldencove std: %d group steps over %d single issues, want at most 1%%", s.groupSteps, s.issues)
	}
}
