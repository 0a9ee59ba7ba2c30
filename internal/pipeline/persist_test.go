package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/kernels"
	"incore/internal/sim"
	"incore/internal/store"
	"incore/internal/uarch"
)

// withFreshTiers swaps in an empty memo cache and a store over dir —
// modeling a new process reusing a cache directory — and restores the
// package state on cleanup.
func withFreshTiers(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Schema: StoreSchema()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	oldShared, oldPersistent := shared, persistent
	shared, persistent = NewCache(), st
	t.Cleanup(func() { shared, persistent = oldShared, oldPersistent })
	return st
}

func genBlock(t *testing.T, arch, kernel string) (*uarch.Model, *core.Analyzer, *kernels.TestBlock) {
	t.Helper()
	m := uarch.MustGet(arch)
	k, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: kernels.TargetOf(uarch.MustGet(arch)).Compilers()[0], Opt: kernels.Ofast}
	b, err := kernels.Generate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, core.New(), &kernels.TestBlock{Block: b}
}

// TestAnalyzeSurvivesProcesses is the contract the warm-cache CI job
// enforces end to end: a second process over the same cache directory
// serves every analysis from the store (zero cold lookups) and renders
// the same report bytes. Each process analyzes the block twice, and the
// store still sees one lookup per process: the memo answers the repeat,
// which is why the store keeps no payload in memory.
func TestAnalyzeSurvivesProcesses(t *testing.T) {
	dir := t.TempDir()
	m, an, tb := genBlock(t, "goldencove", "striad")

	// process analyzes the block twice under fresh tiers over dir and
	// checks that both calls return the memo's one result.
	process := func() (*core.Result, store.Stats) {
		t.Helper()
		st := withFreshTiers(t, dir)
		first, err := Analyze(an, tb.Block, m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Analyze(an, tb.Block, m)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatal("repeated Analyze in one process was not answered by the memo")
		}
		return first, st.Stats()
	}

	cold, got := process()
	if got.Misses != 1 || got.Warm() != 0 {
		t.Fatalf("cold run store stats = %+v; want 1 miss, 0 warm", got)
	}

	warm, got := process()
	if got.Misses != 0 || got.DiskHits != 1 || got.Warm() != 1 {
		t.Fatalf("warm run store stats = %+v; want 0 misses, 1 disk hit", got)
	}
	if warm.Report() != cold.Report() {
		t.Errorf("warm report differs from cold:\n%s\nvs\n%s", warm.Report(), cold.Report())
	}
	if warm.Block != tb.Block || warm.Model != m {
		t.Error("warm result must reattach the requester's block and model")
	}
}

func TestSimulateAndWACurveSurviveProcesses(t *testing.T) {
	dir := t.TempDir()
	m, _, tb := genBlock(t, "zen4", "sum")
	cfg := sim.DefaultConfig(m)

	withFreshTiers(t, dir)
	cold, err := Simulate(tb.Block, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldWA, err := WACurve(m, false, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}

	st := withFreshTiers(t, dir)
	warm, err := Simulate(tb.Block, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmWA, err := WACurve(m, false, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Misses != 0 || got.DiskHits != 2 {
		t.Fatalf("warm run store stats = %+v; want 0 misses, 2 disk hits", got)
	}
	if warm.CyclesPerIter != cold.CyclesPerIter || warm.TotalCycles != cold.TotalCycles {
		t.Errorf("warm sim %.6f/%.6f differs from cold %.6f/%.6f",
			warm.CyclesPerIter, warm.TotalCycles, cold.CyclesPerIter, cold.TotalCycles)
	}
	for c, v := range coldWA {
		if warmWA[c] != v {
			t.Errorf("warm WA ratio at %d cores = %v; want %v", c, warmWA[c], v)
		}
	}
}

// TestStoredDecodeFailureRecomputes plants an undecodable payload at a
// live key: the pipeline must fall through to computing and then repair
// the entry.
func TestStoredDecodeFailureRecomputes(t *testing.T) {
	dir := t.TempDir()
	m, an, tb := genBlock(t, "goldencove", "striad")
	st := withFreshTiers(t, dir)

	key := "analyze\x00" + an.Fingerprint() + "\x00" + m.Key + "\x00" + BlockKey(tb.Block)
	st.Put(key, []byte("{not a result"))

	r, err := Analyze(an, tb.Block, m)
	if err != nil {
		t.Fatalf("Analyze over poisoned entry: %v", err)
	}
	if r.Prediction <= 0 {
		t.Fatalf("implausible prediction %v", r.Prediction)
	}
	// The undecodable payload must count as an evicted cold lookup, not
	// a warm hit — otherwise a payload drift without a schema bump would
	// report 100% warm while recomputing everything.
	if got := st.Stats(); got.Warm() != 0 || got.Misses != 1 || got.Evictions != 1 {
		t.Fatalf("stats after poisoned lookup = %+v; want 0 warm, 1 miss, 1 eviction", got)
	}
	// The poisoned entry was overwritten with a decodable one.
	data, ok := st.GetValidated(key, nil)
	if !ok {
		t.Fatal("entry missing after recompute")
	}
	if _, err := core.UnmarshalStable(data, tb.Block, m); err != nil {
		t.Fatalf("entry still undecodable after recompute: %v", err)
	}
}

// TestNoStoreIsPureMemo pins the nil-store fast path: detached, the
// wrappers behave exactly as the process-local memo cache.
func TestNoStoreIsPureMemo(t *testing.T) {
	m, an, tb := genBlock(t, "goldencove", "striad")
	oldShared, oldPersistent := shared, persistent
	shared, persistent = NewCache(), nil
	t.Cleanup(func() { shared, persistent = oldShared, oldPersistent })

	if PersistentStore() != nil {
		t.Fatal("PersistentStore() non-nil after detach")
	}
	r1, err := Analyze(an, tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(an, tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("memo tier must share the identical result pointer")
	}
}

// TestReportTiersShowsPutErrors: a store that cannot write counts the
// failure without returning it, so the stderr store line must show it.
// A regular file in place of every shard directory makes each write
// fail.
func TestReportTiersShowsPutErrors(t *testing.T) {
	dir := t.TempDir()
	m, an, tb := genBlock(t, "goldencove", "striad")
	withFreshTiers(t, dir)
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Analyze(an, tb.Block, m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ReportTiers(&buf, "test", 1)
	if want := "test: store 0 warm / 1 cold (disk 0, evictions 0, put errors 1)\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("ReportTiers wrote\n%s\nwant the line %q", buf.String(), want)
	}
}
