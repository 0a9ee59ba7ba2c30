// Cross-component integration and property tests: random (but valid)
// instruction blocks are generated for each architecture and pushed
// through the analyzer, the baseline, and the simulator, asserting the
// library-wide invariants:
//
//  1. every generated block parses, analyses, and simulates without error,
//  2. the analyzer's prediction is a lower bound on the quirk-free
//     simulated measurement,
//  3. all three tools are deterministic.
package incore_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/mca"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// randomBlock builds a random loop body of nInstr instructions for the
// given architecture using a mix of FP arithmetic, moves, loads, and
// stores, closed by a standard loop end.
func randomBlock(t *testing.T, rng *rand.Rand, arch string, nInstr int) *isa.Block {
	t.Helper()
	m := uarch.MustGet(arch)
	var sb strings.Builder
	sb.WriteString(".L0:\n")
	if m.Dialect == isa.DialectX86 {
		pfx := "zmm"
		if m.VecWidth == 256 {
			pfx = "ymm"
		}
		bases := []string{"rsi", "rdx", "rcx"}
		ops := []string{"vaddpd", "vmulpd", "vsubpd", "vfmadd231pd", "vmaxpd"}
		for i := 0; i < nInstr; i++ {
			d := rng.Intn(8)
			a := 8 + rng.Intn(4)
			b := 12 + rng.Intn(4)
			switch rng.Intn(5) {
			case 0: // load
				fmt.Fprintf(&sb, "\tvmovupd (%%%s,%%rax,8), %%%s%d\n", bases[rng.Intn(len(bases))], pfx, d)
			case 1: // store
				fmt.Fprintf(&sb, "\tvmovupd %%%s%d, (%%rdi,%%rax,8)\n", pfx, rng.Intn(8))
			case 2: // folded-load arithmetic
				fmt.Fprintf(&sb, "\t%s (%%%s,%%rax,8), %%%s%d, %%%s%d\n",
					ops[rng.Intn(3)], bases[rng.Intn(len(bases))], pfx, a, pfx, d)
			default: // register arithmetic
				fmt.Fprintf(&sb, "\t%s %%%s%d, %%%s%d, %%%s%d\n", ops[rng.Intn(len(ops))], pfx, a, pfx, b, pfx, d)
			}
		}
		sb.WriteString("\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjne .L0\n")
	} else {
		ops := []string{"fadd", "fmul", "fsub", "fmax"}
		for i := 0; i < nInstr; i++ {
			d := rng.Intn(8)
			a := 8 + rng.Intn(4)
			b := 12 + rng.Intn(4)
			switch rng.Intn(5) {
			case 0:
				fmt.Fprintf(&sb, "\tldr q%d, [x%d, x3]\n", d, 1+rng.Intn(2))
			case 1:
				fmt.Fprintf(&sb, "\tstr q%d, [x0, x3]\n", rng.Intn(8))
			case 2:
				fmt.Fprintf(&sb, "\tfmla v%d.2d, v%d.2d, v%d.2d\n", d, a, b)
			default:
				fmt.Fprintf(&sb, "\t%s v%d.2d, v%d.2d, v%d.2d\n", ops[rng.Intn(len(ops))], d, a, b)
			}
		}
		sb.WriteString("\tadd x3, x3, #16\n\tcmp x3, x4\n\tb.ne .L0\n")
	}
	b, err := isa.ParseBlock(fmt.Sprintf("rand-%s", arch), arch, m.Dialect, sb.String())
	if err != nil {
		t.Fatalf("random block does not parse: %v\n%s", err, sb.String())
	}
	return b
}

// quirkFreeConfig disables the hardware-beats-model mechanisms so the
// lower-bound property holds unconditionally.
func quirkFreeConfig(m *uarch.Model) sim.Config {
	cfg := sim.DefaultConfig(m)
	cfg.FMAAccForwardLat = 0
	cfg.CrossOpForwardSave = 0
	cfg.DivEarlyExitFactor = 1
	return cfg
}

func TestRandomBlocksLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	an := core.New()
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
			m := uarch.MustGet(arch)
			b := randomBlock(t, rng, arch, 2+rng.Intn(12))
			res, err := an.Analyze(b, m)
			if err != nil {
				t.Fatalf("%s trial %d: analyze: %v\n%s", arch, trial, err, b.Text())
			}
			meas, err := sim.Run(b, m, quirkFreeConfig(m))
			if err != nil {
				t.Fatalf("%s trial %d: sim: %v", arch, trial, err)
			}
			if res.Prediction > meas.CyclesPerIter*1.02+0.05 {
				t.Errorf("%s trial %d: prediction %.2f exceeds quirk-free measurement %.2f\n%s",
					arch, trial, res.Prediction, meas.CyclesPerIter, b.Text())
			}
			if _, err := mca.PredictDefault(b, m); err != nil {
				t.Fatalf("%s trial %d: mca: %v", arch, trial, err)
			}
		}
	}
}

func TestRandomBlocksDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		b := randomBlock(t, rng, "zen4", 8)
		m := uarch.MustGet("zen4")
		r1, err := sim.Run(b, m, sim.DefaultConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sim.Run(b, m, sim.DefaultConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		if r1.CyclesPerIter != r2.CyclesPerIter {
			t.Errorf("simulation not deterministic on random block")
		}
		p1, err := core.New().Analyze(b, m)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := core.New().Analyze(b, m)
		if err != nil {
			t.Fatal(err)
		}
		if p1.Prediction != p2.Prediction {
			t.Error("analyzer not deterministic on random block")
		}
	}
}

// TestQuirkyMeasurementNeverSlower: enabling the hardware quirks can only
// make the simulated machine faster, never slower.
func TestQuirkyMeasurementNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		for _, arch := range []string{"neoversev2", "zen4"} {
			m := uarch.MustGet(arch)
			b := randomBlock(t, rng, arch, 2+rng.Intn(10))
			quirky, err := sim.Run(b, m, sim.DefaultConfig(m))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sim.Run(b, m, quirkFreeConfig(m))
			if err != nil {
				t.Fatal(err)
			}
			if quirky.CyclesPerIter > plain.CyclesPerIter*1.02+0.05 {
				t.Errorf("%s trial %d: quirks slowed the machine: %.2f vs %.2f\n%s",
					arch, trial, quirky.CyclesPerIter, plain.CyclesPerIter, b.Text())
			}
		}
	}
}
