package pipeline

import (
	"bytes"
	"testing"

	"incore/internal/sim"
	"incore/internal/uarch"
)

// editedVariant clones a built-in through its machine-file wire form and
// applies the ISSUE-style what-if edit — an extra store-data port — while
// keeping the built-in's key, exactly the exported-then-edited workflow
// of `modelinfo -export` + `osaca -machine`.
func editedVariant(t *testing.T, key string) *uarch.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := uarch.MustGet(key).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := uarch.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v.Ports = append(v.Ports, "SD2")
	v.StoreDataPorts |= 1 << uint(len(v.Ports)-1)
	v.StoreAGUPorts |= v.PortsByName("AGU1")
	if err := v.Reindex(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVariantModelsShareStoreWithoutCollisions is the cache-poisoning
// acceptance test: a built-in model and an edited variant reusing its key
// run through pipeline.Analyze against the same persistent store. The
// variant's fingerprinted CacheKey keeps the entries apart — the store
// fills with two distinct results, and a second process warm-reads each
// under its own identity.
func TestVariantModelsShareStoreWithoutCollisions(t *testing.T) {
	dir := t.TempDir()
	base, an, tb := genBlock(t, "zen4", "init")
	variant := editedVariant(t, "zen4")
	if variant.CacheKey() == base.CacheKey() {
		t.Fatalf("edited variant must not share the built-in cache key %q", base.CacheKey())
	}

	st1 := withFreshTiers(t, dir)
	baseRes, err := Analyze(an, tb.Block, base)
	if err != nil {
		t.Fatal(err)
	}
	varRes, err := Analyze(an, tb.Block, variant)
	if err != nil {
		t.Fatal(err)
	}
	if got := st1.Stats(); got.Misses != 2 {
		t.Fatalf("store stats = %+v; want 2 cold entries (one per scenario)", got)
	}
	// The edit widens the store bottleneck, so the store-stream (init)
	// prediction must actually move — proof the variant was analyzed as
	// itself, not served the built-in's cached result.
	if varRes.Prediction >= baseRes.Prediction {
		t.Errorf("extra store-data port did not help: %f vs %f", varRes.Prediction, baseRes.Prediction)
	}

	// A fresh process over the same store: both scenarios warm-hit, and
	// each gets its own result back — the built-in's entry was not
	// poisoned by the variant (or vice versa).
	st2 := withFreshTiers(t, dir)
	baseWarm, err := Analyze(an, tb.Block, base)
	if err != nil {
		t.Fatal(err)
	}
	varWarm, err := Analyze(an, tb.Block, variant)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.Misses != 0 || got.Warm() != 2 {
		t.Fatalf("warm run store stats = %+v; want 2 warm / 0 cold", got)
	}
	if baseWarm.Prediction != baseRes.Prediction || baseWarm.Report() != baseRes.Report() {
		t.Error("built-in result changed across processes")
	}
	if varWarm.Prediction != varRes.Prediction || varWarm.Report() != varRes.Report() {
		t.Error("variant result changed across processes")
	}
	if baseWarm.Model != base || varWarm.Model != variant {
		t.Error("warm results must reattach the requesting model")
	}
}

// TestSimulateKeysSeparateVariants extends the no-collision rule to the
// simulator path (Simulate keys on CacheKey too).
func TestSimulateKeysSeparateVariants(t *testing.T) {
	dir := t.TempDir()
	base, _, tb := genBlock(t, "zen4", "init")
	variant := editedVariant(t, "zen4")

	st := withFreshTiers(t, dir)
	cfgBase := sim.DefaultConfig(base)
	cfgVar := sim.DefaultConfig(variant)
	baseRes, err := Simulate(tb.Block, base, cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	varRes, err := Simulate(tb.Block, variant, cfgVar)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Misses != 2 {
		t.Fatalf("store stats = %+v; want 2 cold entries", got)
	}
	if varRes.CyclesPerIter >= baseRes.CyclesPerIter {
		t.Errorf("extra store-data port did not help the simulator: %f vs %f",
			varRes.CyclesPerIter, baseRes.CyclesPerIter)
	}
}

// TestTriadKeysByModel: memsim samples are memoized and stored under the
// model's CacheKey, so a model that reuses a built-in's key with another
// socket bandwidth gets its own triad sample, while the built-in keeps
// its bare-key entry.
func TestTriadKeysByModel(t *testing.T) {
	st := withFreshTiers(t, t.TempDir())
	base := uarch.MustGet("goldencove")
	slow, err := uarch.NewDeriver(base).Derive(func(m *uarch.Model) error { m.Node.MemBWGBs /= 4; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if base.CacheKey() != "goldencove" || slow.CacheKey() == base.CacheKey() {
		t.Fatalf("cache keys %q and %q: want the bare built-in key and a distinct variant key", base.CacheKey(), slow.CacheKey())
	}
	fast, err := Triad(base, 16, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	starved, err := Triad(slow, 16, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Misses != 2 {
		t.Errorf("store stats = %+v; want 2 cold entries (one per model)", got)
	}
	if !(starved.UsefulGBs() < fast.UsefulGBs()) {
		t.Errorf("a quarter of the bandwidth must slow the saturated triad: %.1f vs %.1f GB/s", starved.UsefulGBs(), fast.UsefulGBs())
	}
}
