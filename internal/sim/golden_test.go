package sim_test

// Golden results for the simulator, captured from the pre-ring-buffer,
// pre-steady-state implementation (map-based, O(iterations) arrays). The
// compiled/pooled/extrapolating engine must reproduce every value
// bit-for-bit: floats are serialized in hex ('x') form, so any rounding
// difference — not just a modeling difference — fails the test.
//
// Regenerate (only when the simulator's *intended* semantics change):
//
//	go test ./internal/sim -run TestGoldenKernels -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/sim"
	"incore/internal/uarch"
)

var update = flag.Bool("update", false, "rewrite the simulator golden file")

var goldenArchs = []string{"goldencove", "neoversev2", "zen4"}

// goldenCase is one (block, model, config) simulation pinned by the file.
type goldenCase struct {
	name string
	arch string
	blk  *isa.Block
	cfg  sim.Config
}

// cfgVariants are the edge-case configurations of ISSUE 3: warmup
// coercion, a single measured iteration, and an issue width smaller than
// one instruction's µ-op count. The zero-valued fields double as quirk
// ablations (no forwarding, no divider early exit).
func cfgVariants(m *uarch.Model) map[string]sim.Config {
	issue1 := sim.DefaultConfig(m)
	issue1.IssueWidthOverride = 1
	norename := sim.DefaultConfig(m)
	norename.DisableRenaming = true
	return map[string]sim.Config{
		"default":  sim.DefaultConfig(m),
		"warmup0":  {WarmupIters: 0, MeasureIters: 5},
		"measure1": {WarmupIters: 8, MeasureIters: 1},
		"issue1":   issue1,
		"norename": norename,
	}
}

// edgeKernels get the full config-variant treatment; every kernel gets at
// least the default config. pi carries divides (the Zen 4 early-exit
// path), gs2d5 store-forwarding chains.
var edgeKernels = map[string]bool{"striad": true, "pi": true, "j2d5": true, "gs2d5": true}

func goldenBlock(t testing.TB, name, arch string, c kernels.Compiler, o kernels.OptLevel) *isa.Block {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: c, Opt: o})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oversizeBlock builds a block with more instructions than any model's ROB
// (and scheduler) by concatenating copies of a kernel body.
func oversizeBlock(t testing.TB, arch string, copies int) *isa.Block {
	t.Helper()
	m := uarch.MustGet(arch)
	base := goldenBlock(t, "striad", arch, kernels.GCC, kernels.O3)
	text := strings.Repeat(base.Text(), copies)
	b, err := isa.ParseBlock(fmt.Sprintf("oversize-%s-x%d", arch, copies), arch, m.Dialect, text)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() <= m.ROBSize {
		t.Fatalf("oversize block has %d instrs, want > ROB %d", b.Len(), m.ROBSize)
	}
	return b
}

func goldenCases(t testing.TB) []goldenCase {
	var cases []goldenCase
	for _, arch := range goldenArchs {
		m := uarch.MustGet(arch)
		second := kernels.Clang
		if arch == "neoversev2" {
			second = kernels.ArmClang
		}
		for i := range kernels.Kernels {
			kn := kernels.Kernels[i].Name
			for _, v := range []struct {
				c kernels.Compiler
				o kernels.OptLevel
			}{{kernels.GCC, kernels.O3}, {second, kernels.Ofast}} {
				blk := goldenBlock(t, kn, arch, v.c, v.o)
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/%s/default", arch, blk.Name),
					arch: arch, blk: blk, cfg: sim.DefaultConfig(m),
				})
			}
			if edgeKernels[kn] {
				blk := goldenBlock(t, kn, arch, kernels.GCC, kernels.O3)
				variants := cfgVariants(m)
				for _, vn := range []string{"warmup0", "measure1", "issue1", "norename"} {
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("%s/%s/%s", arch, blk.Name, vn),
						arch: arch, blk: blk, cfg: variants[vn],
					})
				}
			}
		}
		// Block larger than ROB and scheduler: the live window must wrap
		// correctly even when a single iteration overflows every
		// structural resource.
		big := oversizeBlock(t, arch, 80)
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("%s/%s/bigblock", arch, big.Name),
			arch: arch, blk: big,
			cfg: sim.Config{WarmupIters: 2, MeasureIters: 3},
		})
	}
	return cases
}

// goldenResult is the exact-bits serialization of a sim.Result.
type goldenResult struct {
	CyclesPerIter string   `json:"cycles_per_iter"`
	TotalCycles   string   `json:"total_cycles"`
	Iters         int      `json:"iters"`
	PortCycles    []string `json:"port_cycles"`
}

func hexF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func toGolden(r *sim.Result) goldenResult {
	g := goldenResult{
		CyclesPerIter: hexF(r.CyclesPerIter),
		TotalCycles:   hexF(r.TotalCycles),
		Iters:         r.Iters,
		PortCycles:    make([]string, len(r.PortCycles)),
	}
	for i, c := range r.PortCycles {
		g.PortCycles[i] = hexF(c)
	}
	return g
}

const goldenPath = "testdata/golden_sim.json"

func TestGoldenKernels(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string]goldenResult, len(cases))
	for _, c := range cases {
		m := uarch.MustGet(c.arch)
		r, err := sim.Run(c.blk, m, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = toGolden(r)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden results to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want map[string]goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, test generated %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case no longer generated", name)
			continue
		}
		if g.CyclesPerIter != w.CyclesPerIter || g.TotalCycles != w.TotalCycles || g.Iters != w.Iters {
			t.Errorf("%s: got (%s cy/iter, %s total, %d iters), want (%s, %s, %d)",
				name, g.CyclesPerIter, g.TotalCycles, g.Iters, w.CyclesPerIter, w.TotalCycles, w.Iters)
			continue
		}
		for i := range w.PortCycles {
			if i >= len(g.PortCycles) || g.PortCycles[i] != w.PortCycles[i] {
				t.Errorf("%s: port %d cycles differ from golden", name, i)
				break
			}
		}
	}
}
