package core

import (
	"testing"

	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

// TestAnalyzeCompiledMatchesAnalyze pins the copy-out step every escaping
// entry point ends in: the copied Result renders the same stable bytes as
// the arena Result it was copied from, and keeps rendering them after the
// arena has been reused for every other suite block and model.
func TestAnalyzeCompiledMatchesAnalyze(t *testing.T) {
	an := New()
	ar := &ResultArena{}
	var copies []*Result
	var want [][]byte
	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		m := uarch.MustGet(arch)
		for ki := range kernels.Kernels {
			k := &kernels.Kernels[ki]
			b, err := kernels.Generate(k, kernels.Config{
				Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: kernels.TargetOf(uarch.MustGet(arch)).Compilers()[0], Opt: kernels.Ofast,
			})
			if err != nil {
				t.Fatal(err)
			}
			sk, err := depgraph.NewSkeleton(b, an.Opt)
			if err != nil {
				t.Fatal(err)
			}
			arRes, err := an.AnalyzeArena(b, m, sk, nil, ar)
			if err != nil {
				t.Fatal(err)
			}
			bytes, err := arRes.MarshalStable()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := copyOut(arRes, nil)
			if err != nil {
				t.Fatal(err)
			}
			copies = append(copies, cp)
			want = append(want, bytes)
		}
	}
	for i, cp := range copies {
		got, err := cp.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[i]) {
			t.Errorf("%s/%s: copy-out bytes differ from its arena Result's", cp.Model.Key, cp.Block.Name)
		}
	}
}

// TestArenaResultInvalidatedByReuse documents (positively) the arena
// contract: the next analysis overwrites the previous arena Result in
// place — same pointer, new content.
func TestArenaResultInvalidatedByReuse(t *testing.T) {
	an := New()
	m := uarch.MustGet("zen4")
	mk := func(name string) (*isa.Block, *depgraph.Skeleton, []uarch.Desc, *Result) {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("zen4")), Compiler: kernels.TargetOf(uarch.MustGet("zen4")).Compilers()[0], Opt: kernels.O3})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := depgraph.NewSkeleton(b, an.Opt)
		if err != nil {
			t.Fatal(err)
		}
		descs, err := sk.ResolveDescs(m, an.Opt.DegradeUnknown)
		if err != nil {
			t.Fatal(err)
		}
		want, err := an.Analyze(b, m)
		if err != nil {
			t.Fatal(err)
		}
		return b, sk, descs, want
	}
	b1, sk1, d1, want1 := mk("striad")
	b2, sk2, d2, want2 := mk("sum")

	ar := &ResultArena{}
	r1, err := an.AnalyzeArena(b1, m, sk1, d1, ar)
	if err != nil {
		t.Fatal(err)
	}
	p1 := r1.Prediction
	r2, err := an.AnalyzeArena(b2, m, sk2, d2, ar)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("arena must return its own Result struct every call")
	}
	if r2.Prediction != want2.Prediction {
		t.Errorf("second analysis prediction %f; want %f", r2.Prediction, want2.Prediction)
	}
	if p1 != want1.Prediction {
		t.Errorf("first analysis prediction %f; want %f", p1, want1.Prediction)
	}
}
