package ibench

import (
	"strings"
	"testing"

	"incore/internal/isa"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"gather": Gather, "vecadd": VecAdd, "VecFMA": VecFMA,
		"vec-div": VecDiv, "scalardiv": ScalarDiv, "ScalarAdd": ScalarAdd,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("unknown class must error")
	}
}

func TestAllKindsHaveNames(t *testing.T) {
	if len(AllKinds()) != 9 {
		t.Fatalf("want 9 classes, got %d", len(AllKinds()))
	}
	for _, k := range AllKinds() {
		if strings.Contains(k.String(), "Kind(") {
			t.Errorf("class %d has no name", k)
		}
	}
}

func TestBuildAllCombinations(t *testing.T) {
	for _, key := range uarch.Keys() {
		m := uarch.MustGet(key)
		for _, k := range AllKinds() {
			for _, lat := range []bool{false, true} {
				b, err := Build(m, k, lat)
				if err != nil {
					t.Fatalf("%s/%s lat=%v: %v", m.Key, k, lat, err)
				}
				want := TputInstances
				if lat {
					want = LatInstances
				}
				// loop body = instances + 2 loop-control instructions.
				if b.Len() != want+2 {
					t.Errorf("%s/%s lat=%v: %d instructions, want %d",
						m.Key, k, lat, b.Len(), want+2)
				}
				// Every instruction must resolve against the model.
				for i := range b.Instrs {
					eff := isa.InstrEffects(&b.Instrs[i], m.Dialect)
					if _, err := m.LookupEff(&b.Instrs[i], &eff); err != nil {
						t.Errorf("%s: %v", m.Key, err)
					}
				}
			}
		}
	}
}

func TestLanes(t *testing.T) {
	glc := uarch.MustGet("goldencove")
	if Lanes(glc, VecAdd) != 8 || Lanes(glc, ScalarAdd) != 1 {
		t.Error("GLC lanes wrong")
	}
	v2 := uarch.MustGet("neoversev2")
	if Lanes(v2, VecFMA) != 2 {
		t.Error("V2 lanes wrong")
	}
}

func TestMeasureLatencyVsThroughputConsistency(t *testing.T) {
	// For every class: measured chain latency >= 1/ipc (a dependent
	// chain can never be faster than the pipelined rate).
	for _, key := range uarch.Keys() {
		m := uarch.MustGet(key)
		cfg := sim.DefaultConfig(m)
		for _, k := range AllKinds() {
			r, err := Measure(m, k, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Key, k, err)
			}
			if r.ThroughputInstr <= 0 || r.LatencyCy <= 0 {
				t.Errorf("%s/%s: non-positive measurement %+v", m.Key, k, r)
			}
			if r.LatencyCy+1e-9 < 1/r.ThroughputInstr {
				t.Errorf("%s/%s: latency %.2f below reciprocal throughput %.2f",
					m.Key, k, r.LatencyCy, 1/r.ThroughputInstr)
			}
		}
	}
}
