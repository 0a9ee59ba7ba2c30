package depgraph_test

import (
	"testing"

	"incore/internal/core"
	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/uarch"
)

// TestSkeletonSharedAcrossModels pins the skeleton's model independence:
// one skeleton, instantiated for both x86 models (same dialect), gives
// each model exactly the report its own Analyze gives.
func TestSkeletonSharedAcrossModels(t *testing.T) {
	src := ".L0:\n\tvmovapd (%rax,%rcx,8), %ymm0\n\tvfmadd231pd %ymm1, %ymm2, %ymm0\n\tvmovapd %ymm0, (%rbx,%rcx,8)\n\taddq $4, %rcx\n\tcmpq %rdx, %rcx\n\tjb .L0\n"
	an := core.New()
	b, err := isa.ParseBlock("shared", "goldencove", isa.DialectX86, src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := depgraph.NewSkeleton(b, an.Opt)
	if err != nil {
		t.Fatal(err)
	}
	ar := &core.ResultArena{}
	for _, arch := range []string{"goldencove", "zen4"} {
		m := uarch.MustGet(arch)
		descs, err := sk.ResolveDescs(m, an.Opt.DegradeUnknown)
		if err != nil {
			t.Fatal(err)
		}
		got, err := an.AnalyzeArena(b, m, sk, descs, ar)
		if err != nil {
			t.Fatal(err)
		}
		want, err := an.Analyze(b, m)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report() != want.Report() {
			t.Errorf("%s: shared-skeleton report diverges from Analyze:\n%s\nwant:\n%s", arch, got.Report(), want.Report())
		}
	}
}

// TestSkeletonSizeEstimatePositive sanity-checks the cache accounting
// hook: non-trivial skeletons report a plausible non-zero footprint.
func TestSkeletonSizeEstimatePositive(t *testing.T) {
	m := uarch.MustGet("zen4")
	b, err := isa.ParseBlock("t", "zen4", m.Dialect,
		".L0:\n\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := depgraph.NewSkeleton(b, depgraph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.SizeEstimate(); got < 128 {
		t.Errorf("SizeEstimate() = %d; want a plausible positive footprint", got)
	}
}
