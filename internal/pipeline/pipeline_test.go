package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 32} {
		p := NewPool(workers)
		in := make([]int, 100)
		for i := range in {
			in[i] = i
		}
		out, err := Map(p, in, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicError(t *testing.T) {
	in := []int{0, 1, 2, 3, 4, 5, 6, 7}
	fn := func(i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 8} {
		_, err := Map(NewPool(workers), in, fn)
		if err == nil || err.Error() != "fail 1" {
			t.Errorf("workers=%d: err = %v, want fail 1 (lowest index)", workers, err)
		}
	}
}

func TestMapN(t *testing.T) {
	out, err := MapN(NewPool(4), 5, func(i int) (string, error) {
		return strings.Repeat("x", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[4] != "xxxx" || len(out) != 5 {
		t.Fatalf("out = %v", out)
	}
}

func TestPoolWidths(t *testing.T) {
	if NewPool(0).Workers() < 1 || NewPool(-3).Workers() < 1 {
		t.Error("non-positive widths must clamp to at least 1")
	}
	old := Default().Workers()
	defer SetDefaultWorkers(old)
	if got := SetDefaultWorkers(7); got != 7 || Default().Workers() != 7 {
		t.Errorf("SetDefaultWorkers: got %d / %d", got, Default().Workers())
	}
}

// TestCacheHitMissAccounting pins the singleflight contract of the one
// cache type both tiers use: one execution per key, the executor counted
// as the miss, every other caller as a settled hit or an in-flight
// attach, the memo view folding both into Hits (schedule-independent),
// and the size estimate of the successful value recorded once.
func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache()
	var executions atomic.Int64
	const callers = 64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Do(c, "k", func(v int) int { return v * 10 }, func() (int, error) {
				executions.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1 (singleflight)", n)
	}
	if m, h, a := c.misses.Load(), c.hits.Load(), c.attaches.Load(); m != 1 || h+a != callers-1 {
		t.Errorf("misses %d, hits %d + attaches %d; want 1 miss and %d hits+attaches", m, h, a, callers-1)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits / 1 entry", st, callers-1)
	}
	if as := (&Artifacts{c}).Stats(); as.BytesEstimated != 420 || as.Compiles != 1 {
		t.Errorf("artifact view = %+v, want 1 compile and 420 bytes", as)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	calls := 0
	fn := func() (int, error) { calls++; return 0, errors.New("boom") }
	for i := 0; i < 3; i++ {
		if _, err := Do(c, "k", nil, fn); err == nil {
			t.Fatal("want error")
		}
	}
	if calls != 1 {
		t.Errorf("failing compute ran %d times, want 1", calls)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache()
	if _, err := Do(c, "k", nil, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("after reset: %+v", st)
	}
}

// TestGraphFailurePropagates: every job runs, each keeps its own result,
// and Run reports the earliest-added failing job's error even when a
// later-added job fails too.
func TestGraphFailurePropagates(t *testing.T) {
	g := NewGraph(NewPool(4))
	boom, bang := errors.New("boom"), errors.New("bang")
	g.Add("ok", func() (any, error) { return "ok-done", nil })
	g.Add("a", func() (any, error) { return nil, boom })
	g.Add("b", func() (any, error) { return nil, bang })
	if err := g.Run(); !errors.Is(err, boom) {
		t.Errorf("Run err = %v, want boom", err)
	}
	if v, err := g.Result("ok"); err != nil || v != "ok-done" {
		t.Errorf("Result(ok) = %v, %v", v, err)
	}
	if _, err := g.Result("b"); !errors.Is(err, bang) {
		t.Errorf("Result(b) err = %v, want bang", err)
	}
}

func TestGraphRejectsDuplicateAndRerun(t *testing.T) {
	g := NewGraph(NewPool(1))
	g.Add("a", func() (any, error) { return nil, nil })
	if err := g.Add("a", func() (any, error) { return nil, nil }); err == nil {
		t.Error("duplicate id not rejected")
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err == nil {
		t.Error("second Run not rejected")
	}
}

// ExampleMap lowers a serial loop onto the pool: results come back in
// input order no matter how many workers race, so rendered output is
// byte-identical at any -j.
func ExampleMap() {
	pool := NewPool(4)
	kernels := []string{"triad", "daxpy", "sum"}
	rows, err := Map(pool, kernels, func(k string) (string, error) {
		return fmt.Sprintf("%s: ok", k), nil
	})
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	// Output:
	// triad: ok
	// daxpy: ok
	// sum: ok
}

// ExampleCache shows content-keyed memoization with singleflight
// semantics and hit/miss accounting.
func ExampleCache() {
	c := NewCache()
	expensive := func() (int, error) {
		fmt.Println("computing once")
		return 416, nil
	}
	for i := 0; i < 3; i++ {
		v, _ := Do(c, "fig3/goldencove/triad", nil, expensive)
		fmt.Println(v)
	}
	st := c.Stats()
	fmt.Printf("hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// computing once
	// 416
	// 416
	// 416
	// hits=2 misses=1
}
