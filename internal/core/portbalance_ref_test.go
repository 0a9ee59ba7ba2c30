package core

// The pre-arena port-balancing implementations, kept verbatim as
// unexported references: the flat-scratch, fixed-point-exiting rewrites
// must reproduce them bit for bit on arbitrary job sets, not just on the
// kernels the golden file pins. The references allocate per call and run
// all 64 balancer passes unconditionally — that is the point: the
// fixed-point early exit is only sound if stopping at an unchanged pass
// yields the exact bits of running every remaining pass.

import (
	"math"
	"math/rand"
	"testing"

	"incore/internal/uarch"
)

// referenceOptimalPortBound is the pre-rewrite OptimalPortBound
// (map-based scratch; the >20-mask fallback kept its hardcoded 32-port
// cap, see TestOptimalFallbackUsesModelPortCount for why that was a bug).
func referenceOptimalPortBound(jobs []balanceJob) float64 {
	work := map[uarch.PortMask]float64{}
	for _, j := range jobs {
		if j.Mask == 0 || j.Cycles <= 0 {
			continue
		}
		work[j.Mask] += j.Cycles
	}
	if len(work) == 0 {
		return 0
	}
	masks := make([]uarch.PortMask, 0, len(work))
	for m := range work {
		masks = append(masks, m)
	}
	seen := map[uarch.PortMask]bool{}
	best := 0.0
	n := len(masks)
	if n > 20 {
		loads := referenceHeuristicAssignment(jobs, 32)
		for _, l := range loads {
			best = math.Max(best, l)
		}
		return best
	}
	for bits := 1; bits < 1<<uint(n); bits++ {
		var s uarch.PortMask
		for i := 0; i < n; i++ {
			if bits&(1<<uint(i)) != 0 {
				s |= masks[i]
			}
		}
		if seen[s] {
			continue
		}
		seen[s] = true
		demand := 0.0
		for m, c := range work {
			if m&^s == 0 {
				demand += c
			}
		}
		if v := demand / float64(s.Count()); v > best {
			best = v
		}
	}
	return best
}

// referenceHeuristicAssignment is the pre-rewrite HeuristicAssignment
// (jagged shares matrix, fresh allocations, fixed 64 passes).
func referenceHeuristicAssignment(jobs []balanceJob, nPorts int) []float64 {
	loads := make([]float64, nPorts)
	shares := make([][]float64, len(jobs))
	for j, job := range jobs {
		ports := job.Mask.Indices()
		shares[j] = make([]float64, len(ports))
		for k := range ports {
			shares[j][k] = job.Cycles / float64(len(ports))
		}
	}
	const iters = 64
	for it := 0; it < iters; it++ {
		for i := range loads {
			loads[i] = 0
		}
		for j, job := range jobs {
			for k, p := range job.Mask.Indices() {
				loads[p] += shares[j][k]
			}
		}
		for j, job := range jobs {
			ports := job.Mask.Indices()
			if len(ports) <= 1 {
				continue
			}
			for k, p := range ports {
				loads[p] -= shares[j][k]
			}
			weights := make([]float64, len(ports))
			sum := 0.0
			for k, p := range ports {
				w := 1.0 / (loads[p] + 0.05)
				weights[k] = w
				sum += w
			}
			for k, p := range ports {
				shares[j][k] = job.Cycles * weights[k] / sum
				loads[p] += shares[j][k]
			}
		}
	}
	return loads
}

// randomJobs draws a job set over nPorts ports. With dyadicOnly, cycle
// counts are small dyadic fractions like the machine models use — sums
// of those are exact, which matters because referenceOptimalPortBound
// accumulates demand in random map-iteration order and is only
// bit-deterministic when addition cannot round. Without it, awkward
// values (1/3) are mixed in.
func randomJobs(rng *rand.Rand, nPorts int, dyadicOnly bool) []balanceJob {
	nJobs := rng.Intn(24)
	jobs := make([]balanceJob, nJobs)
	full := uarch.PortMask(1<<uint(nPorts) - 1)
	for i := range jobs {
		mask := uarch.PortMask(rng.Intn(int(full) + 1)) // may be 0
		var cycles float64
		switch rng.Intn(6) {
		case 0:
			cycles = 0 // degenerate
		case 1:
			if dyadicOnly {
				cycles = 0.5
			} else {
				cycles = 1.0 / 3.0 // non-dyadic
			}
		default:
			cycles = float64(1+rng.Intn(12)) / 4.0 // dyadic
		}
		jobs[i] = balanceJob{Mask: mask, Cycles: cycles}
	}
	return jobs
}

// TestHeuristicBitIdenticalToReference: the flat fixed-point balancer
// must match the 64-pass jagged reference bit for bit.
func TestHeuristicBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240719))
	for trial := 0; trial < 1200; trial++ {
		nPorts := 1 + rng.Intn(12)
		// The heuristic reference iterates in job order (deterministic),
		// so bit-identity must hold even for non-dyadic cycle counts.
		jobs := randomJobs(rng, nPorts, false)
		got := new(ResultArena).heuristicInto(jobs, nPorts)
		want := referenceHeuristicAssignment(jobs, nPorts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for p := range want {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("trial %d: port %d load %x differs from reference %x (jobs %+v)",
					trial, p, got[p], want[p], jobs)
			}
		}
	}
}

// TestOptimalBitIdenticalToReference: the linear-scan/epoch-table bound
// must match the map-based reference bit for bit on exactly-summable
// (dyadic) inputs — all any real machine model produces. The reference
// sums demand in random map order, so it is itself only deterministic
// when addition cannot round; the rewrite's first-seen order makes the
// bound deterministic for every input.
func TestOptimalBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240720))
	for trial := 0; trial < 1200; trial++ {
		nPorts := 1 + rng.Intn(12)
		jobs := randomJobs(rng, nPorts, true)
		got := new(ResultArena).optimalBound(jobs, nPorts)
		want := referenceOptimalPortBound(jobs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: bound %x differs from reference %x (jobs %+v)",
				trial, got, want, jobs)
		}
	}
}

// TestOptimalCloseToReferenceNonDyadic: for cycle counts whose sums can
// round (not produced by the real models), the rewrite must still agree
// with the reference to within summation-order noise.
func TestOptimalCloseToReferenceNonDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(20240721))
	for trial := 0; trial < 600; trial++ {
		nPorts := 1 + rng.Intn(12)
		jobs := randomJobs(rng, nPorts, false)
		got := new(ResultArena).optimalBound(jobs, nPorts)
		want := referenceOptimalPortBound(jobs)
		if diff := math.Abs(got - want); diff > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: bound %g vs reference %g (diff %g)", trial, got, want, diff)
		}
	}
}

// TestScratchReuseIsStateless: results must not depend on what a pooled
// arena previously computed.
func TestScratchReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := &ResultArena{}
	for trial := 0; trial < 500; trial++ {
		nPorts := 1 + rng.Intn(10)
		jobs := randomJobs(rng, nPorts, false)
		fresh := &ResultArena{}
		a := append([]float64(nil), s.heuristicInto(jobs, nPorts)...)
		b := fresh.heuristicInto(jobs, nPorts)
		for p := range b {
			if math.Float64bits(a[p]) != math.Float64bits(b[p]) {
				t.Fatalf("trial %d: reused arena diverges from fresh arena at port %d", trial, p)
			}
		}
		if ab, bb := s.optimalBound(jobs, nPorts), fresh.optimalBound(jobs, nPorts); math.Float64bits(ab) != math.Float64bits(bb) {
			t.Fatalf("trial %d: reused arena bound %x != fresh %x", trial, ab, bb)
		}
		if ag, bg := s.greedyBound(jobs, nPorts), fresh.greedyBound(jobs, nPorts); math.Float64bits(ag) != math.Float64bits(bg) {
			t.Fatalf("trial %d: reused arena greedy %x != fresh %x", trial, ag, bg)
		}
	}
}

// TestOptimalFallbackUsesModelPortCount pins the satellite fix: with more
// than 20 distinct masks the defensive fallback must cap the heuristic at
// the model's real port count instead of the historical hardcoded 32.
// The max-load outcome is unchanged (ports beyond the model never carry
// load), so this guards the contract, not a numeric delta.
func TestOptimalFallbackUsesModelPortCount(t *testing.T) {
	// 21 distinct masks over 5 ports forces the fallback.
	var jobs []balanceJob
	for m := uarch.PortMask(1); m <= 21; m++ {
		jobs = append(jobs, balanceJob{Mask: m, Cycles: 1})
	}
	got := new(ResultArena).optimalBound(jobs, 5)
	want := referenceOptimalPortBound(jobs)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fallback bound %x differs from reference %x", got, want)
	}
	// A 5-port heuristic must also agree with the historical 32-port cap.
	a, b := new(ResultArena).heuristicInto(jobs, 5), referenceHeuristicAssignment(jobs, 32)
	for p := range a {
		if math.Float64bits(a[p]) != math.Float64bits(b[p]) {
			t.Fatalf("port %d: 5-port load differs from 32-port reference", p)
		}
	}
	for _, l := range b[5:] {
		if l != 0 {
			t.Fatal("reference put load on a port the model does not have")
		}
	}
}
