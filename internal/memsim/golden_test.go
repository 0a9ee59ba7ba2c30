package memsim

// Golden traffic results for the memory-hierarchy simulator, captured
// from the scan-LRU cache and slice-queue controllers. Every field of
// every TrafficResult must match exactly: the cache and queue data
// structures may change, the simulated events may not.
//
// Every golden case touches each line at most once, so it runs on the
// caches' first-touch path (no lookup scans, round-robin victims).
// TestGoldenFirstTouchMatchesLRU reruns each case forced onto the LRU
// path and requires the same results and per-cache counters.
//
// Regenerate (only when the simulator's *intended* semantics change):
//
//	go test ./internal/memsim -run TestGoldenTraffic -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the memsim golden file")

const goldenPath = "testdata/golden_memsim.json"

// goldenLines keeps the full-socket runs cheap under -race.
const goldenLines = 1024

// goldenWorkloads are the runs pinned per (config, core count).
var goldenWorkloads = []struct {
	name string
	run  func(s *System, active int) (TrafficResult, error)
}{
	{"store", func(s *System, n int) (TrafficResult, error) { return s.RunStoreStream(n, goldenLines, false) }},
	{"store-nt", func(s *System, n int) (TrafficResult, error) { return s.RunStoreStream(n, goldenLines, true) }},
	{"triad", func(s *System, n int) (TrafficResult, error) { return s.RunTriad(n, goldenLines, false) }},
	{"triad-nt", func(s *System, n int) (TrafficResult, error) { return s.RunTriad(n, goldenLines, true) }},
	{"copy", func(s *System, n int) (TrafficResult, error) { return s.RunCopy(n, goldenLines, false) }},
}

// goldenRun is one golden case's outcome: its result, the counters of
// every cache of the system, and whether the run took the first-touch
// path.
type goldenRun struct {
	result     TrafficResult
	counts     []cacheCounts
	firstTouch bool
}

// goldenRuns runs every workload at 1 core, half the socket and the full
// socket of each config, in a fixed order on one System per config, so
// the golden also pins that reset leaves no state behind. forceLRU keeps
// every cache on the LRU path.
func goldenRuns(t *testing.T, forceLRU bool) map[string]goldenRun {
	t.Helper()
	got := map[string]goldenRun{}
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		s := sys(t, key)
		s.forceLRU = forceLRU
		cores := MustConfigFor(key).Cores
		for _, n := range []int{1, cores / 2, cores} {
			for _, w := range goldenWorkloads {
				r, err := w.run(s, n)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", key, w.name, n, err)
				}
				got[fmt.Sprintf("%s/%s/%d", key, w.name, n)] = goldenRun{r, counters(s), s.l3[0].firstTouch}
			}
		}
	}
	return got
}

// TestGoldenFirstTouchMatchesLRU runs every golden case on the default
// path, which the layout check sends to first-touch mode, and again
// forced onto the LRU path. Both must give the same TrafficResult and
// the same per-cache counters.
func TestGoldenFirstTouchMatchesLRU(t *testing.T) {
	ft, lru := goldenRuns(t, false), goldenRuns(t, true)
	for name, f := range ft {
		l := lru[name]
		if !f.firstTouch || l.firstTouch {
			t.Fatalf("%s: first-touch mode %t on the default path, %t forced LRU; want true, false",
				name, f.firstTouch, l.firstTouch)
		}
		if f.result != l.result {
			t.Errorf("%s: first-touch %+v, LRU %+v", name, f.result, l.result)
		}
		if !slices.Equal(f.counts, l.counts) {
			t.Errorf("%s: first-touch counters %v, LRU %v", name, f.counts, l.counts)
		}
	}
}

func TestGoldenTraffic(t *testing.T) {
	runs := goldenRuns(t, false)
	got := make(map[string]TrafficResult, len(runs))
	for name, r := range runs {
		got[name] = r.result
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden results to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want map[string]TrafficResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, test generated %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case no longer generated", name)
			continue
		}
		if g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}
