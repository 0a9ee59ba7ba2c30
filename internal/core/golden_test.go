package core_test

// Golden results for the analyzer front-end, captured from the
// pre-arena implementation (per-call maps and jagged slices, fixed
// 64-iteration balancer). The pooled-scratch/fixed-point rewrite must
// reproduce every value bit-for-bit: floats are serialized in hex ('x')
// form, so any rounding difference — not just a modeling difference —
// fails the test. The full text report is pinned too, which keeps
// cmd/osaca and /v1/analyze output byte-identical by transitivity.
//
// Regenerate (only when the analyzer's *intended* semantics change):
//
//	go test ./internal/core -run TestGoldenAnalyzer -update

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"incore/internal/core"
	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

var update = flag.Bool("update", false, "rewrite the analyzer golden file")

var goldenArchs = []string{"goldencove", "neoversev2", "zen4"}

// optVariants are the analyzer-option corners: the default (ideal
// renaming, one-cache-line memory window), false dependencies on (WAW/WAR
// edges), and memory-carried detection off.
func optVariants() map[string]depgraph.Options {
	falsedeps := depgraph.DefaultOptions()
	falsedeps.IncludeFalseDeps = true
	nomem := depgraph.DefaultOptions()
	nomem.MemCarriedWindow = 0
	return map[string]depgraph.Options{
		"default":   depgraph.DefaultOptions(),
		"falsedeps": falsedeps,
		"nomem":     nomem,
	}
}

// edgeKernels get the full option-variant treatment; every kernel gets at
// least the default options. gs2d5 carries store-forwarding chains (the
// memory-edge paths), j3d27 the widest dependency fan-in.
var edgeKernels = map[string]bool{"striad": true, "gs2d5": true, "j3d27": true}

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

type goldenCase struct {
	name string
	arch string
	blk  *isa.Block
	opt  depgraph.Options
}

func goldenCases(t testing.TB) []goldenCase {
	var cases []goldenCase
	for _, arch := range goldenArchs {
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
					arch: arch, blk: blk, opt: depgraph.DefaultOptions(),
				})
			}
			if edgeKernels[kn] {
				blk := goldenBlock(t, kn, arch, kernels.GCC, kernels.O3)
				variants := optVariants()
				for _, vn := range []string{"falsedeps", "nomem"} {
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("%s/%s/%s", arch, blk.Name, vn),
						arch: arch, blk: blk, opt: variants[vn],
					})
				}
			}
		}
	}
	return cases
}

// goldenResult is the exact-bits serialization of a core.Result.
type goldenResult struct {
	TPBound       string   `json:"tp_bound"`
	GreedyTPBound string   `json:"greedy_tp_bound"`
	IssueBound    string   `json:"issue_bound"`
	CriticalPath  string   `json:"critical_path"`
	LCDCycles     string   `json:"lcd_cycles"`
	Prediction    string   `json:"prediction"`
	Bound         string   `json:"bound"`
	TotalUops     int      `json:"total_uops"`
	CPPath        []int    `json:"cp_path"`
	LCDPath       []int    `json:"lcd_path"`
	PortPressure  []string `json:"port_pressure"`
	// InstrLoadsSHA256 pins every instruction's per-port load vector
	// bit-for-bit (sha256 over the hex-float serialization) without
	// storing the full matrix; ReportSHA256 does the same for the
	// rendered text report, which cmd/osaca and /v1/analyze serve
	// verbatim.
	InstrLoadsSHA256 string `json:"instr_loads_sha256"`
	ReportSHA256     string `json:"report_sha256"`
}

func hexF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func hexAll(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = hexF(v)
	}
	return out
}

func toGolden(r *core.Result) goldenResult {
	g := goldenResult{
		TPBound:       hexF(r.TPBound),
		GreedyTPBound: hexF(r.GreedyTPBound),
		IssueBound:    hexF(r.IssueBound),
		CriticalPath:  hexF(r.CriticalPath),
		LCDCycles:     hexF(r.LCD.Cycles),
		Prediction:    hexF(r.Prediction),
		Bound:         r.Bound,
		TotalUops:     r.TotalUops,
		CPPath:        r.CPPath,
		LCDPath:       r.LCD.Path,
		PortPressure:  hexAll(r.PortPressure),
		ReportSHA256:  fmt.Sprintf("%x", sha256.Sum256([]byte(r.Report()))),
	}
	h := sha256.New()
	for i := range r.Instrs {
		for _, v := range r.Instrs[i].PortLoads {
			fmt.Fprintf(h, "%s,", hexF(v))
		}
		fmt.Fprint(h, ";")
	}
	g.InstrLoadsSHA256 = fmt.Sprintf("%x", h.Sum(nil))
	return g
}

const goldenPath = "testdata/golden_core.json"

func TestGoldenAnalyzer(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string]goldenResult, len(cases))
	for _, c := range cases {
		m := uarch.MustGet(c.arch)
		an := core.New()
		an.Opt = c.opt
		r, err := an.Analyze(c.blk, m)
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
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(g)
		if string(wj) != string(gj) {
			t.Errorf("%s: analysis differs from golden\n got: %s\nwant: %s", name, gj, wj)
		}
	}
}
