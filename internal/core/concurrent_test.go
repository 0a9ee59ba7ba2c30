package core_test

// Race coverage for the pooled analyzer arenas: many goroutines
// analyzing different blocks at once must each get exactly the result a
// serial run produces — pooled arenas may never leak one analysis's
// state into another, and a returned Result may never alias the arena it
// was copied out of. Run under -race by the CI test job.

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

// hammerCases builds one block per (arch, kernel) pair.
func hammerCases(t testing.TB) ([]*isa.Block, []*uarch.Model) {
	t.Helper()
	var blocks []*isa.Block
	var models []*uarch.Model
	for _, arch := range []string{"goldencove", "neoversev2", "zen4"} {
		m := uarch.MustGet(arch)
		for i := range kernels.Kernels {
			k := &kernels.Kernels[i]
			b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: kernels.GCC, Opt: kernels.O3})
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
			models = append(models, m)
		}
	}
	return blocks, models
}

func TestConcurrentAnalyzeMatchesSerial(t *testing.T) {
	blocks, models := hammerCases(t)
	an := core.New()

	want := make([]*core.Result, len(blocks))
	wantBytes := make([][]byte, len(blocks))
	for i := range blocks {
		r, err := an.Analyze(blocks[i], models[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
		// Record the bytes now: if a Result aliased pooled arena memory,
		// DeepEqual below could pass with both sides pointing at the
		// same rewritten buffers, but these bytes would no longer match.
		if wantBytes[i], err = r.MarshalStable(); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Stagger start offsets so goroutines collide on
				// different blocks most of the time.
				for off := 0; off < len(blocks); off++ {
					i := (off + w*3) % len(blocks)
					got, err := an.Analyze(blocks[i], models[i])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Errorf("block %s/%s: concurrent result differs from serial",
							models[i].Key, blocks[i].Name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, r := range want {
		got, err := r.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes[i]) {
			t.Errorf("block %s/%s: serial result changed after the hammer (aliases arena memory)",
				models[i].Key, blocks[i].Name)
		}
	}
}
