package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"testing"

	"incore/internal/core"
	"incore/internal/kernels"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// TestMemoKeysByContentNotName verifies that two blocks with identical
// bodies but different names share one cached analysis — the property
// that collapses the suite's 416 test blocks onto its 229 unique bodies.
func TestMemoKeysByContentNotName(t *testing.T) {
	m := uarch.MustGet("goldencove")
	k, err := kernels.ByName("striad")
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.TargetOf(uarch.MustGet("goldencove")).Compilers()[0], Opt: kernels.Ofast}
	b1, err := kernels.Generate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := kernels.Generate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2.Name = b1.Name + "-alias"

	c := NewCache()
	old := shared
	shared = c
	defer func() { shared = old }()

	an := core.New()
	r1, err := Analyze(an, b1, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(an, b2, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical block content must share one cached analysis")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit", st)
	}

	// A different analyzer configuration must not share the entry.
	an2 := core.New()
	an2.Opt.IncludeFalseDeps = true
	if _, err := Analyze(an2, b1, m); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("distinct analyzer options must miss: %+v", st)
	}
}

// TestMemoSimulateMatchesDirect verifies the cached simulator result is
// the direct result, and that a traced run bypasses the cache.
func TestMemoSimulateMatchesDirect(t *testing.T) {
	m := uarch.MustGet("zen4")
	k, err := kernels.ByName("sum")
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernels.Config{Target: kernels.TargetOf(uarch.MustGet("zen4")), Compiler: kernels.TargetOf(uarch.MustGet("zen4")).Compilers()[0], Opt: kernels.Ofast}
	b, err := kernels.Generate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.DefaultConfig(m)
	direct, err := sim.Run(b, m, sc)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	old := shared
	shared = c
	defer func() { shared = old }()

	cached, err := Simulate(b, m, sc)
	if err != nil {
		t.Fatal(err)
	}
	if cached.CyclesPerIter != direct.CyclesPerIter {
		t.Errorf("cached %.4f vs direct %.4f cycles/iter", cached.CyclesPerIter, direct.CyclesPerIter)
	}

	traced := sc
	traces := 0
	traced.Trace = func(int, string, float64, float64, float64, float64, float64) { traces++ }
	if _, err := Simulate(b, m, traced); err != nil {
		t.Fatal(err)
	}
	if traces == 0 {
		t.Error("traced run must execute, not hit the cache")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("traced run must bypass the cache: %+v", st)
	}
}

// TestBlockKeyBytesAndAllocs pins BlockKey to its spelled-out definition —
// arch, NUL, decimal dialect, NUL, then each label line and each
// tab-indented instruction — over the whole suite, and to one allocation.
// Store keys embed BlockKey, so a changed byte would turn every stored
// entry cold.
func TestBlockKeyBytesAndAllocs(t *testing.T) {
	full, err := kernels.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range full {
		b := tb.Block
		want := b.Arch + "\x00" + strconv.Itoa(int(b.Dialect)) + "\x00"
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Label != "" {
				want += in.Label + ":\n"
			}
			want += "\t" + in.String() + "\n"
		}
		if got := BlockKey(b); got != want {
			t.Fatalf("%s: BlockKey = %q, want %q", b.Name, got, want)
		}
	}
	b := full[len(full)-1].Block
	if allocs := testing.AllocsPerRun(100, func() { _ = BlockKey(b) }); allocs != 1 {
		t.Errorf("BlockKey allocated %v times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = b.Text() }); allocs != 1 {
		t.Errorf("Text allocated %v times, want 1", allocs)
	}
}

// cellDigest is the sha256 over json.Marshal(CellOf(res)), one line per
// block, of all 416 suite blocks each analyzed under its own model.
const cellDigest = "5c5b1cab6889a3fe4dc70bc0a91f52e00e9785aaf281191589aa2d2aca836ace"

// TestCellOfDigest pins the bytes of persisted sweep cells: a change to
// CellOf, to the analysis it projects, or to the Cell encoding moves the
// digest, and would leave every stored sweepcell entry stale.
func TestCellOfDigest(t *testing.T) {
	full, err := kernels.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 416 {
		t.Fatalf("suite has %d blocks, want 416", len(full))
	}
	an := core.New()
	h := sha256.New()
	for _, tb := range full {
		res, err := an.Analyze(tb.Block, uarch.MustGet(tb.Block.Arch))
		if err != nil {
			t.Fatalf("%s: %v", tb.Block.Name, err)
		}
		data, err := json.Marshal(CellOf(res))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(data, '\n'))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cellDigest {
		t.Errorf("sha256 over the suite's cells = %s, want %s", got, cellDigest)
	}
}
