package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"incore/internal/depgraph"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

// fmtReport is the fmt rendering that specifies the report's bytes;
// AppendReport must reproduce it exactly.
func fmtReport(r *Result, name string) string {
	var sb strings.Builder
	m := r.Model
	fmt.Fprintf(&sb, "In-core analysis: %s on %s (%s)\n", name, m.Name, m.CPU)
	onCP := map[int]bool{}
	for _, i := range r.CPPath {
		onCP[i] = true
	}
	onLCD := map[int]bool{}
	for _, i := range r.LCD.Path {
		onLCD[i] = true
	}
	fmt.Fprintf(&sb, "%-4s %-2s %-2s %-38s %5s %4s %5s", "idx", "CP", "LC", "instruction", "uops", "lat", "tp")
	for _, p := range m.Ports {
		fmt.Fprintf(&sb, " %5s", p)
	}
	sb.WriteByte('\n')
	for _, ir := range r.Instrs {
		text := ir.Text
		if len(text) > 38 {
			text = text[:35] + "..."
		}
		cp, lc := "", ""
		if onCP[ir.Index] {
			cp = "X"
		}
		if onLCD[ir.Index] {
			lc = "X"
		}
		fmt.Fprintf(&sb, "%-4d %-2s %-2s %-38s %5d %4d %5.2f", ir.Index, cp, lc, text, ir.Uops, ir.TotalLat, ir.Throughput)
		for p := range m.Ports {
			v := 0.0
			if p < len(ir.PortLoads) {
				v = ir.PortLoads[p]
			}
			if v < 0.005 {
				fmt.Fprintf(&sb, " %5s", "")
			} else {
				fmt.Fprintf(&sb, " %5.2f", v)
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-60s", "port pressure (cycles/iteration):")
	for p := range m.Ports {
		fmt.Fprintf(&sb, " %5.2f", r.PortPressure[p])
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "throughput bound : %7.2f cy/it (optimal balancing; greedy would give %.2f)\n", r.TPBound, r.GreedyTPBound)
	fmt.Fprintf(&sb, "issue bound      : %7.2f cy/it (%d µ-ops / issue width %d)\n", r.IssueBound, r.TotalUops, m.IssueWidth)
	fmt.Fprintf(&sb, "critical path    : %7.2f cy\n", r.CriticalPath)
	fmt.Fprintf(&sb, "loop-carried dep : %7.2f cy/it", r.LCD.Cycles)
	if len(r.LCD.Path) > 0 {
		fmt.Fprintf(&sb, " (via instrs %v)", r.LCD.Path)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "prediction       : %7.2f cy/it  [%s bound]\n", r.Prediction, r.Bound)
	if !r.Coverage.Full() {
		c := r.Coverage
		fmt.Fprintf(&sb, "coverage         : %7.1f%% of %d instrs (%d exact, %d fallback, %d unknown)\n",
			100*c.Fraction(), c.Total(), c.Exact, c.Fallback, c.Unknown)
		fmt.Fprintf(&sb, "unknown          : %s  [conservative default descriptors; bounds are degraded]\n",
			strings.Join(c.UnknownMnemonics, ", "))
	}
	return sb.String()
}

// TestAppendReportMatchesFmt renders every suite block, plus degraded
// blocks with long non-ASCII instruction texts (one truncated inside a
// rune), under names that stress padding-free splicing, and requires
// the fmt reference's bytes.
func TestAppendReportMatchesFmt(t *testing.T) {
	suite, err := kernels.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for _, tb := range suite {
		res, err := New().Analyze(tb.Block, uarch.MustGet(tb.Config.Arch))
		if err != nil {
			t.Fatalf("%s: %v", tb.Block.Name, err)
		}
		results = append(results, res)
	}
	for _, src := range []string{
		"\tvmovupd (%rsi), %ymm1\n\tvpmaddubsw %ymm1, %ymm2, %ymm3\n\taddq $4, %rax\n",
		"\tvfmadd231pé 0x12345678(%rax,%rbx,8), %ymm1, %ymm2\n",
		"\txx" + strings.Repeat("é", 17) + " 0x12(%rax), %rbx\n\taddq $1, %rax\n",
	} {
		results = append(results, analyze(t, "goldencove", src))
	}
	names := []string{"", "block", "名前 <>&\"\\\x00\xff", strings.Repeat("n", 100)}
	for _, res := range results {
		for _, name := range append(names, res.Block.Name) {
			want := fmtReport(res, name)
			if got := string(res.AppendReport([]byte("prefix"), name)); got != "prefix"+want {
				t.Fatalf("%s named %q: AppendReport differs from the fmt rendering\n got: %q\nwant: %q",
					res.Block.Name, name, got, "prefix"+want)
			}
		}
		if got, want := res.Report(), fmtReport(res, res.Block.Name); got != want {
			t.Fatalf("%s: Report differs from the fmt rendering", res.Block.Name)
		}
	}
}

// TestAppendFixedMatchesStrconv compares the report's fixed-point
// formatter with strconv on special values, exact halves (where rounding
// goes to even), values next to them, and random bit patterns.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 0.005, 0.015, 0.125, 0.375, 2.675, 9.995, 99.995, 1e-300,
		5e-324, -5e-324, 1 << 39, 1 << 40, 1e15, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for n := int64(-1024); n <= 1024; n++ {
		for _, den := range []float64{8, 16, 64, 1024, 3, 7, 100, 1000} {
			v := float64(n) / den
			vals = append(vals, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 20000; i++ {
		vals = append(vals, (rng.Float64()-0.5)*math.Pow(2, float64(rng.Intn(90)-45)))
	}
	for _, v := range vals {
		for prec := 0; prec <= 2; prec++ {
			want := strconv.FormatFloat(v, 'f', prec, 64)
			if got := string(appendFixedDigits(nil, v, prec)); got != want {
				t.Fatalf("appendFixedDigits(%v [%#x], %d) = %q, want %q", v, math.Float64bits(v), prec, got, want)
			}
		}
	}
}

// TestFingerprintFormat pins Fingerprint to the format persisted store
// keys were written with, over every option combination.
func TestFingerprintFormat(t *testing.T) {
	if got, want := New().Fingerprint(), "falsedeps=false|memwin=64|stfwd=0|degrade=true"; got != want {
		t.Fatalf("New().Fingerprint() = %q, want %q", got, want)
	}
	// stfwd stays 0: the forward delay is a constant now, and the
	// literal keeps keys written before it was one.
	for _, fd := range []bool{false, true} {
		for _, mw := range []int64{0, 64, -1, math.MaxInt64, math.MinInt64} {
			for _, du := range []bool{false, true} {
				a := &Analyzer{Opt: depgraph.Options{IncludeFalseDeps: fd, MemCarriedWindow: mw, DegradeUnknown: du}}
				want := fmt.Sprintf("falsedeps=%t|memwin=%d|stfwd=0|degrade=%t", fd, mw, du)
				if got := a.Fingerprint(); got != want {
					t.Errorf("Fingerprint() = %q, want %q", got, want)
				}
			}
		}
	}
}
