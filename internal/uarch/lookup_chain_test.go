package uarch

import (
	"bytes"
	"reflect"
	"testing"

	"incore/internal/isa"
)

// Table-driven coverage of the whole LookupEff resolution chain
// across all three built-in models: exact (mnemonic, signature, width)
// hits, the folded signature/width fallback chain, and the synthesized
// unknown-instruction path that strict lookup rejects and degraded
// lookup serves.
func TestLookupChainAcrossModels(t *testing.T) {
	cases := []struct {
		model string
		src   string
		want  MatchKind
	}{
		// neoversev2 carries fully keyed (mn, sig, width) entries.
		{"neoversev2", "\tfdiv v0.2d, v1.2d, v2.2d\n", MatchExact},
		{"neoversev2", "\tfadd d0, d0, d1\n", MatchFallback},
		{"neoversev2", "\tsha256h q0, q1, v2.4s\n", MatchUnknown},
		// goldencove keys entries by signature or width, never both, so
		// real instructions (which always carry both) resolve by fallback.
		{"goldencove", "\tvaddpd %zmm1, %zmm2, %zmm3\n", MatchFallback},
		{"goldencove", "\tvmovupd (%rsi,%rax,8), %zmm0\n", MatchFallback},
		{"goldencove", "\tvpmaddubsw %ymm1, %ymm2, %ymm3\n", MatchUnknown},
		{"zen4", "\tvfmadd231pd %ymm2, %ymm15, %ymm0\n", MatchFallback},
		{"zen4", "\taddq $8, %rax\n", MatchFallback},
		{"zen4", "\tcrc32q %rax, %rbx\n", MatchUnknown},
	}
	for _, tc := range cases {
		t.Run(tc.model+"/"+tc.want.String(), func(t *testing.T) {
			m := MustGet(tc.model)
			in := parse1(t, m, tc.src)

			d := lookupDegraded(m, in)
			if d.Match != tc.want {
				t.Fatalf("lookupDegraded(%q).Match = %s, want %s", in.Mnemonic, d.Match, tc.want)
			}
			assertDescValid(t, m, &d)

			// Strict lookup must agree on everything but existence:
			// matched kinds return the same descriptor, unknown errors.
			ds, err := lookup(m, in)
			if tc.want == MatchUnknown {
				if err == nil {
					t.Fatalf("strict lookup(%q) succeeded, want ErrNoEntry", in.Mnemonic)
				}
				if _, ok := err.(*ErrNoEntry); !ok {
					t.Fatalf("strict lookup(%q) error = %T, want *ErrNoEntry", in.Mnemonic, err)
				}
				if d.Entry != nil {
					t.Fatalf("unknown descriptor points at a table entry")
				}
				if len(d.Uops) != 1 {
					t.Fatalf("unknown descriptor has %d µ-ops, want the conservative single µ-op", len(d.Uops))
				}
			} else {
				if err != nil {
					t.Fatalf("strict lookup(%q): %v", in.Mnemonic, err)
				}
				if !reflect.DeepEqual(d, ds) {
					t.Fatalf("strict and degraded descriptors disagree on a table hit:\n%+v\n%+v", ds, d)
				}
				if d.Entry == nil {
					t.Fatalf("table hit carries no entry pointer")
				}
			}

			// Determinism: repeated lookups are bit-identical.
			if d2 := lookupDegraded(m, in); !reflect.DeepEqual(d, d2) {
				t.Fatalf("repeated lookupDegraded(%q) differs:\n%+v\n%+v", in.Mnemonic, d, d2)
			}
		})
	}
}

// assertDescValid pins the structural invariants every resolved
// descriptor must satisfy: at least one µ-op, every µ-op's port mask
// non-empty and within the model's port set, positive occupancy, and
// non-negative latency.
func assertDescValid(t *testing.T, m *Model, d *Desc) {
	t.Helper()
	if len(d.Uops) == 0 {
		t.Fatalf("descriptor has no µ-ops")
	}
	all := PortMask(1<<uint(len(m.Ports))) - 1
	for i, u := range d.Uops {
		if u.Ports == 0 {
			t.Fatalf("µ-op %d has an empty port mask", i)
		}
		if u.Ports&^all != 0 {
			t.Fatalf("µ-op %d port mask %b exceeds the model's %d ports", i, u.Ports, len(m.Ports))
		}
		if u.Cycles <= 0 {
			t.Fatalf("µ-op %d has non-positive occupancy %v", i, u.Cycles)
		}
	}
	if d.Lat < 0 || d.TotalLat < d.Lat {
		t.Fatalf("inconsistent latency lat=%d total=%d", d.Lat, d.TotalLat)
	}
}

// The synthesized descriptor must follow the model's unknown policy:
// all ports / lat 1 / one cycle by default, and the machine file's
// "unknown" section when present.
func TestUnknownPolicyDefaultsAndOverride(t *testing.T) {
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		m := MustGet(key)
		var in *isa.Instruction
		if m.Dialect == isa.DialectX86 {
			in = parse1(t, m, "\ttotallymadeup %xmm0, %xmm1\n")
		} else {
			in = parse1(t, m, "\ttotallymadeup v0.2d, v1.2d\n")
		}
		d := lookupDegraded(m, in)
		if d.Match != MatchUnknown {
			t.Fatalf("%s: match = %s, want unknown", key, d.Match)
		}
		all := PortMask(1<<uint(len(m.Ports))) - 1
		if len(d.Uops) != 1 || d.Uops[0].Ports != all || d.Uops[0].Cycles != 1.0 {
			t.Fatalf("%s: default unknown descriptor = %+v, want 1 µ-op on all ports for 1 cycle", key, d.Uops)
		}
		if d.Lat != 1 {
			t.Fatalf("%s: default unknown latency = %d, want 1", key, d.Lat)
		}
	}

	// Override: restrict unknowns to two ports with higher latency.
	m := MustGet("goldencove")
	clone := *m
	clone.Entries = append([]Entry(nil), m.Entries...)
	clone.Unknown = &UnknownPolicy{Ports: clone.PortsByName("0", "1"), Lat: 3, Cycles: 2}
	if err := clone.Reindex(); err != nil {
		t.Fatal(err)
	}
	in := parse1(t, &clone, "\ttotallymadeup %xmm0, %xmm1\n")
	d := clone.LookupEffDegraded(in, &isa.Effects{})
	if d.Match != MatchUnknown {
		t.Fatalf("match = %s, want unknown", d.Match)
	}
	if want := clone.PortsByName("0", "1"); len(d.Uops) != 1 || d.Uops[0].Ports != want || d.Uops[0].Cycles != 2 || d.Lat != 3 {
		t.Fatalf("policy override ignored: %+v (lat %d)", d.Uops, d.Lat)
	}
	// The policy is part of the model's content identity.
	if clone.Fingerprint() == m.Fingerprint() {
		t.Fatalf("unknown policy did not change the fingerprint")
	}
}

// The machine-file "unknown" section must survive a WriteJSON →
// ReadJSON round trip with the policy (and hence fingerprint) intact —
// and built-ins, which carry no section, must keep emitting byte-stable
// files so their bare cache keys survive.
func TestMachineFileUnknownSectionRoundTrip(t *testing.T) {
	m := MustGet("zen4")
	clone := *m
	clone.Entries = append([]Entry(nil), m.Entries...)
	clone.Unknown = &UnknownPolicy{Ports: clone.PortsByName("ALU0", "FP0"), Lat: 2, Cycles: 1.5}
	if err := clone.Reindex(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clone.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Unknown == nil {
		t.Fatalf("unknown section lost in round trip")
	}
	if got.Fingerprint() != clone.Fingerprint() {
		t.Fatalf("round trip changed fingerprint: %s != %s", got.Fingerprint(), clone.Fingerprint())
	}
	gp, gl, gc := got.unknownPolicy()
	cp, cl, cc := clone.unknownPolicy()
	if gp != cp || gl != cl || gc != cc {
		t.Fatalf("round trip changed unknown policy: (%v,%d,%v) != (%v,%d,%v)", gp, gl, gc, cp, cl, cc)
	}
}

// Degraded lookup of an unknown load/store must still charge the memory
// pipeline so the port model keeps its load/store structure.
func TestUnknownMemoryChargesPipeline(t *testing.T) {
	m := MustGet("goldencove")
	in := parse1(t, m, "\tmadeupload (%rsi), %xmm7\n")
	d := lookupDegraded(m, in)
	if d.Match != MatchUnknown {
		t.Fatalf("match = %s, want unknown", d.Match)
	}
	if !d.IsLoad {
		t.Fatalf("unknown instruction with a memory source not classified as load")
	}
	if len(d.Uops) < 2 {
		t.Fatalf("unknown load got %d µ-ops, want compute + load µ-op", len(d.Uops))
	}
}
