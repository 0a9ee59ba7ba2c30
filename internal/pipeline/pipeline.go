// Package pipeline is the shared concurrent substrate for every
// experiment runner: a bounded worker pool with an order-preserving
// parallel map, a dependency-aware job graph, and one content-keyed,
// concurrency-safe singleflight cache type (cache.go) behind two process
// tiers: the memo tier, which memoizes in-core analyses and simulator
// runs (memo.go, with the persistent store beneath it in persist.go),
// and the compiled-artifact tier, which holds parsed blocks, skeletons,
// descriptor tables and compiled programs (artifact.go).
// ReportTiers prints both tiers' accounting in the CLIs' shared format.
//
// Design constraints, in order of priority:
//
//  1. Determinism. Map returns results in input order and Graph exposes
//     results by job id, so rendered experiment output is byte-identical
//     regardless of the worker count. Errors are reported deterministically
//     too: the error of the lowest-indexed failing job wins.
//  2. Memoization. Identical work — same kernel block content, same
//     machine model, same parameters — is executed once per process and
//     shared, with singleflight semantics under concurrency (concurrent
//     requesters of a key block for the one executor instead of
//     duplicating work).
//  3. Bounded concurrency. A Pool is a width, not a queue: every Map or
//     Graph run schedules at most Workers() jobs at once. The default
//     pool width is set once at startup (cmd/repro -j N) via
//     SetDefaultWorkers.
//
// Typical use:
//
//	rows, err := pipeline.Map(pipeline.Default(), specs, runOneSpec)
//
// lowers a serial per-spec loop onto the pool while keeping the result
// slice, and therefore everything rendered from it, in spec order.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of concurrently executing jobs. The bound is
// process-wide per pool: every Map and Graph run on the same Pool draws
// worker slots from one shared semaphore, so nested submissions (an
// experiment job whose bandwidth sweep fans out again) cannot multiply
// the requested width. The zero Pool is not usable; construct with
// NewPool.
type Pool struct {
	workers int
	sem     chan struct{}
}

// NewPool returns a pool running at most workers jobs at once. A
// non-positive width selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// defaultPool is the process-wide pool used by the experiment runners.
// It starts serial so library consumers opt in to parallelism explicitly
// (cmd/repro -j N); tests override it per scenario.
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(NewPool(1))
}

// Default returns the process-wide pool.
func Default() *Pool { return defaultPool.Load() }

// SetDefaultWorkers replaces the process-wide pool with one of the given
// width (non-positive: GOMAXPROCS) and returns the resulting width.
func SetDefaultWorkers(n int) int {
	p := NewPool(n)
	defaultPool.Store(p)
	return p.workers
}

// Map applies fn to every item on pool p and returns the results in input
// order. If any application fails, Map returns the error of the
// lowest-indexed failure (deterministic under any schedule) and no
// results; every item still runs — stopping early would make the reported
// failure depend on scheduling. A width-1 pool runs the items inline in
// order — the serial reference path that parallel runs must match byte
// for byte.
//
// Slot acquisition never blocks: when the pool's shared semaphore is
// full, the submitting goroutine runs the item inline instead of
// spawning. That keeps -j an honest process-wide cap under nesting (a
// slot-holding job whose own Map finds no free slots degrades to serial
// on its own goroutine) and makes nested Map calls deadlock-free by
// construction.
func Map[In, Out any](p *Pool, items []In, fn func(In) (Out, error)) ([]Out, error) {
	out := make([]Out, len(items))
	if p.Workers() == 1 || len(items) <= 1 {
		for i := range items {
			r, err := fn(items[i])
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i := range items {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				out[i], errs[i] = fn(items[i])
			}(i)
		default:
			out[i], errs[i] = fn(items[i])
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MapN is Map over the index range [0, n): convenient when the "items"
// are (arch, kind) style cross products flattened by arithmetic.
func MapN[Out any](p *Pool, n int, fn func(i int) (Out, error)) ([]Out, error) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return Map(p, idx, fn)
}
