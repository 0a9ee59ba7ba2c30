package pipeline

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// loadedVariant round-trips a built-in through its machine-file wire form
// — a runtime-loaded model keeping the built-in's key and (initially) its
// exact content.
func loadedVariant(t *testing.T, key string) *uarch.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := uarch.MustGet(key).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := uarch.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestProgramCacheInvalidation pins the compiled tier's identity rules:
// mutating a model in place and reindexing must miss the program cache
// (new fingerprint, new key), and a what-if variant must never share a
// Program with the built-in it shadows — even when its Key string is the
// built-in's. Runs under -race in CI like everything else here.
func TestProgramCacheInvalidation(t *testing.T) {
	_, _, tb := genBlock(t, "zen4", "init")
	builtin := uarch.MustGet("zen4")

	pBuiltin, err := CompileProgram(tb.Block, builtin)
	if err != nil {
		t.Fatal(err)
	}

	// A byte-identical loaded model shares the built-in's bare cache key
	// by design (warm-store compatibility), hence also its Program.
	v := loadedVariant(t, "zen4")
	if v.CacheKey() != builtin.CacheKey() {
		t.Fatalf("byte-identical loaded model has key %q, want %q", v.CacheKey(), builtin.CacheKey())
	}
	pSame, err := CompileProgram(tb.Block, v)
	if err != nil {
		t.Fatal(err)
	}
	if pSame != pBuiltin {
		t.Error("byte-identical loaded model must share the built-in's Program")
	}

	// In-place mutation + Reindex: the fingerprint moves, so the next
	// compile must miss and produce a fresh Program.
	v.LoadLat++
	if err := v.Reindex(); err != nil {
		t.Fatal(err)
	}
	if v.CacheKey() == builtin.CacheKey() {
		t.Fatal("mutated model must not keep the built-in cache key")
	}
	pMut, err := CompileProgram(tb.Block, v)
	if err != nil {
		t.Fatal(err)
	}
	if pMut == pBuiltin {
		t.Error("mutated+reindexed model was served the built-in's Program")
	}

	// Same rule through a registered what-if model shadowing the built-in
	// Key (registered under its own key to avoid a registry conflict).
	w := loadedVariant(t, "zen4")
	w.Key = "zen4-whatif-artifact-test"
	w.LoadLat += 2
	if err := w.Reindex(); err != nil {
		t.Fatal(err)
	}
	if _, err := uarch.NewRegistry().Register(w); err != nil {
		t.Fatal(err)
	}
	pReg, err := CompileProgram(tb.Block, w)
	if err != nil {
		t.Fatal(err)
	}
	if pReg == pBuiltin || pReg == pMut {
		t.Error("registered what-if model must compile its own Program")
	}
}

// TestConcurrentSimulateCompilesOnce is the singleflight observability
// test: N goroutines issue cold Simulate calls with N *distinct* sim
// configs (distinct memo keys, so the memo tier cannot collapse them) for
// one (block, model) — and the program artifact still compiles exactly
// once, with every other requester recorded as a hit or an in-flight
// attach.
func TestConcurrentSimulateCompilesOnce(t *testing.T) {
	withFreshTiers(t, t.TempDir())
	m, _, tb := genBlock(t, "goldencove", "striad")

	// A fresh block copy: the shared artifact cache may already hold this
	// content under (arch, model) from another test, so rename-and-reparse
	// is not enough — vary the content key via a distinct instruction
	// count? No: content is what we must keep. Instead measure deltas.
	before := CompiledArtifacts().Stats()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := sim.DefaultConfig(m)
			cfg.MeasureIters += i // distinct memo key per goroutine
			_, errs[i] = Simulate(tb.Block, m, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}

	after := CompiledArtifacts().Stats()
	// The program entry for this (block, model) existed at most once
	// before; all n requests resolve to one entry regardless.
	if grew := after.Programs - before.Programs; grew > 1 {
		t.Errorf("programs grew by %d; want at most 1 (singleflight)", grew)
	}
	if served := (after.Hits - before.Hits) + (after.Attaches - before.Attaches) +
		(after.Compiles - before.Compiles); served < n {
		t.Errorf("accounted %d artifact requests; want >= %d", served, n)
	}
	// All runs share one Program pointer.
	p1, err := CompileProgram(tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileProgram(tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("repeated CompileProgram returned distinct Programs")
	}
}

// TestTracedSharesCompile pins that a traced run bypasses the result memo
// but not the compile: it draws the same Program the untraced run cached.
func TestTracedSharesCompile(t *testing.T) {
	withFreshTiers(t, t.TempDir())
	m, _, tb := genBlock(t, "zen4", "update")

	cfg := sim.DefaultConfig(m)
	untraced, err := Simulate(tb.Block, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := CompiledArtifacts().Stats()

	traces := 0
	cfg.Trace = func(dyn int, instr string, fetch, dispatch, start, ready, retire float64) { traces++ }
	traced, err := Simulate(tb.Block, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traces == 0 {
		t.Fatal("trace callback never fired")
	}
	if traced.CyclesPerIter != untraced.CyclesPerIter {
		t.Errorf("traced run diverged: %f vs %f", traced.CyclesPerIter, untraced.CyclesPerIter)
	}

	after := CompiledArtifacts().Stats()
	if after.Programs != before.Programs {
		t.Errorf("traced run compiled a new Program (%d -> %d); must reuse the cached one",
			before.Programs, after.Programs)
	}
	if after.Hits+after.Attaches <= before.Hits+before.Attaches {
		t.Error("traced run did not register as a warm artifact request")
	}
}

// TestParseRequestBlockSharesInstrs pins the parse cache's naming rule:
// two requests with identical text under different names share one parsed
// instruction slice, each seeing its own name.
func TestParseRequestBlockSharesInstrs(t *testing.T) {
	asm := ".L0:\n\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n"
	b1, err := ParseRequestBlock("alpha", "zen4", uarch.MustGet("zen4").Dialect, asm)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ParseRequestBlock("beta", "zen4", uarch.MustGet("zen4").Dialect, asm)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Name != "alpha" || b2.Name != "beta" {
		t.Fatalf("names = %q, %q; want alpha, beta", b1.Name, b2.Name)
	}
	if len(b1.Instrs) == 0 || &b1.Instrs[0] != &b2.Instrs[0] {
		t.Error("identical request text must share one parsed instruction slice")
	}
	// Same text, same name: the cached pointer itself comes back.
	b3, err := ParseRequestBlock("alpha", "zen4", uarch.MustGet("zen4").Dialect, asm)
	if err != nil {
		t.Fatal(err)
	}
	if b3 != b1 && &b3.Instrs[0] != &b1.Instrs[0] {
		t.Error("re-request under the original name must hit the cache")
	}
}

// TestAnalyzeInternalMatchesAnalyze pins the internal path's equivalence
// contract (same report bytes as the escaping path) and its headline
// property: zero heap allocations per call once warm.
func TestAnalyzeInternalMatchesAnalyze(t *testing.T) {
	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		for _, kernel := range []string{"striad", "sum", "init"} {
			m, an, tb := genBlock(t, arch, kernel)
			want, err := an.Analyze(tb.Block, m)
			if err != nil {
				t.Fatal(err)
			}
			ar := &InternalArena{}
			got, err := AnalyzeInternal(an, tb.Block, m, ar)
			if err != nil {
				t.Fatal(err)
			}
			if got.Report() != want.Report() {
				t.Errorf("%s/%s: internal path report diverges from Analyze", arch, kernel)
			}
			if got.Prediction != want.Prediction || got.Bound != want.Bound {
				t.Errorf("%s/%s: prediction %f (%s) vs %f (%s)", arch, kernel,
					got.Prediction, got.Bound, want.Prediction, want.Bound)
			}
		}
	}
}

func TestAnalyzeInternalZeroAllocs(t *testing.T) {
	m, an, tb := genBlock(t, "goldencove", "striad")
	ar := &InternalArena{}
	if _, err := AnalyzeInternal(an, tb.Block, m, ar); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AnalyzeInternal(an, tb.Block, m, ar); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm AnalyzeInternal allocates %v/op; want 0", allocs)
	}
}

// TestArtifactErrorsCached pins that failed builds are cached like
// successes (determinism over optimism, matching the memo tier) and do
// not count as cached entries or bytes, and that a cached parse error
// names the block it was asked for, not the block that first failed.
func TestArtifactErrorsCached(t *testing.T) {
	m := uarch.MustGet("zen4")
	for _, asm := range []string{
		"\tmov $notanumber, %rax\n", // fails on a line
		"# comment only\n",          // fails validation
		"\tmov %rax, %rbx\xff\n",    // not UTF-8
	} {
		before := CompiledArtifacts().Stats()
		for i := 0; i < 3; i++ {
			name := "bad" + strconv.Itoa(i)
			_, err := ParseRequestBlock(name, m.Key, m.Dialect, asm)
			if err == nil {
				t.Fatalf("%q parsed successfully", asm)
			}
			_, want := isa.ParseMarkedBlock(name, m.Key, m.Dialect, asm)
			if err.Error() != want.Error() {
				t.Errorf("%q as %s: cached error %q, want %q", asm, name, err, want)
			}
		}
		after := CompiledArtifacts().Stats()
		if after.Compiles != before.Compiles+1 {
			t.Errorf("%q: %d compiles for 3 requests, want 1", asm, after.Compiles-before.Compiles)
		}
		if after.Blocks != before.Blocks {
			t.Error("failed parses must not count as cached blocks")
		}
		if after.BytesEstimated != before.BytesEstimated {
			t.Error("failed parses must not count bytes")
		}
	}
}

// TestArtifactResetDropsInflightBuild pins that a build still in flight
// when the tier is reset never reappears in its per-kind entry counts or
// byte estimate: those describe what the tier holds, and the reset tier
// holds nothing.
func TestArtifactResetDropsInflightBuild(t *testing.T) {
	a := CompiledArtifacts()
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		Do(a.c, "prog\x00reset-drift-test", func(int) int { return 4096 }, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	a.Reset()
	close(release)
	<-done
	s := a.Stats()
	if s.Programs != 0 || s.Blocks != 0 || s.Skeletons != 0 || s.Descs != 0 || s.MCA != 0 || s.BytesEstimated != 0 {
		t.Errorf("after reset, an in-flight build is still counted: %+v", s)
	}
}

func BenchmarkAnalyzeInternal(b *testing.B) {
	m := uarch.MustGet("goldencove")
	an := core.New()
	k, err := kernels.ByName("striad")
	if err != nil {
		b.Fatal(err)
	}
	blk, err := kernels.Generate(k, kernels.Config{
		Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.TargetOf(uarch.MustGet("goldencove")).Compilers()[0], Opt: kernels.Ofast,
	})
	if err != nil {
		b.Fatal(err)
	}
	ar := &InternalArena{}
	if _, err := AnalyzeInternal(an, blk, m, ar); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeInternal(an, blk, m, ar); err != nil {
			b.Fatal(err)
		}
	}
}
