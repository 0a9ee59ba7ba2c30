package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"incore/internal/sweep"
)

const sweepAsm = "\tvmovapd (%rdi,%rax,8), %ymm0\n\tvaddpd (%rsi,%rax,8), %ymm0, %ymm0\n\tvmovapd %ymm0, (%rdx,%rax,8)\n\taddq $4, %rax\n\tcmpq %rcx, %rax\n\tjb .L1\n"

// TestSweepEndpoint pins POST /v1/sweep: explicit blocks, a node-only
// axis pair, the full result shape, and the artifact-sharing observable
// (one distinct port signature across all variants).
func TestSweepEndpoint(t *testing.T) {
	ts := newTestServer(t)
	req := SweepRequest{
		Arch: "zen4",
		Axes: []sweep.Axis{
			{Param: "mem_bandwidth_gbs", Values: []float64{60, 120}},
			{Param: "tdp_watts", Values: []float64{200, 280}},
		},
		Blocks: []SweepBlock{{Name: "vadd", Asm: sweepAsm}},
	}
	resp, body := post(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var res sweep.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v\n%s", err, body)
	}
	if res.Base != "zen4" || res.BaseCacheKey != "zen4" {
		t.Errorf("base = %s (%s), want zen4", res.Base, res.BaseCacheKey)
	}
	if len(res.Variants) != 4 {
		t.Fatalf("%d variants, want 4", len(res.Variants))
	}
	if res.DistinctSignatures != 1 {
		t.Errorf("node-only sweep: %d distinct signatures, want 1", res.DistinctSignatures)
	}
	for _, v := range res.Variants {
		if v.TotalCycles <= 0 || len(v.Predictions) != 1 {
			t.Errorf("variant %d: implausible row %+v", v.Index, v)
		}
		if !strings.HasPrefix(v.CacheKey, "zen4@") {
			t.Errorf("variant %d: cache key %q does not carry a fingerprint", v.Index, v.CacheKey)
		}
	}
	if len(res.Fronts) == 0 {
		t.Error("no Pareto fronts in response")
	}

	// An identical sweep re-served is all-warm: the rows were stored.
	resp, body = post(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second sweep status = %d: %s", resp.StatusCode, body)
	}
	var res2 sweep.Result
	if err := json.Unmarshal(body, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Cold != 0 || res2.Warm != res.Warm+res.Cold {
		t.Errorf("second sweep: %d warm / %d cold, want %d warm / 0 cold",
			res2.Warm, res2.Cold, res.Warm+res.Cold)
	}
}

// TestSweepEndpointDefaultsToSuite: omitting blocks sweeps the kernel
// validation suite of the model's architecture.
func TestSweepEndpointDefaultsToSuite(t *testing.T) {
	ts := newTestServer(t)
	req := SweepRequest{
		Arch: "goldencove",
		Axes: []sweep.Axis{{Param: "mem_bandwidth_gbs", Values: []float64{100, 200}}},
	}
	resp, body := post(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var res sweep.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) < 13 {
		t.Errorf("suite sweep covered %d blocks, want the full suite", len(res.Blocks))
	}
	if len(res.Variants) != 2 {
		t.Errorf("%d variants, want 2", len(res.Variants))
	}
}

// TestSweepEndpointCustomModelNeedsBlocks: a custom machine needs no
// blocks. A block-less sweep of an inline zen4 clone under another key
// covers the full x86 suite generated from the clone itself.
func TestSweepEndpointCustomModelNeedsBlocks(t *testing.T) {
	ts := newTestServer(t)
	m := customModel(t, "sweep-custom")
	resp, body := post(t, ts, "/v1/sweep", map[string]any{
		"machine": json.RawMessage(machineJSON(t, m)),
		"axes":    []sweep.Axis{{Param: "rob_size", Values: []float64{64, 128}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var res sweep.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 156 || len(res.Variants) != 2 {
		t.Fatalf("swept %d blocks in %d variants, want the 156-block x86 suite in 2", len(res.Blocks), len(res.Variants))
	}
	for _, name := range res.Blocks {
		if !strings.HasSuffix(name, "-sweep-custom") {
			t.Errorf("block %q is not generated for the custom model", name)
		}
	}
	for _, v := range res.Variants {
		if len(v.Predictions) != 156 {
			t.Errorf("variant %d has %d predictions, want 156", v.Index, len(v.Predictions))
		}
	}
}

// TestHealthzSweepMatchesMetrics pins that /healthz and /metrics report
// the same sweep counters, and that they count this server's sweeps
// only: one two-variant sweep of one fresh block and one refused sweep.
func TestHealthzSweepMatchesMetrics(t *testing.T) {
	ts := newTestServer(t)
	asm := fmt.Sprintf("\tvaddpd %%ymm1, %%ymm0, %%ymm0\n\taddq $%d, %%rax\n\tcmpq %%rcx, %%rax\n\tjb .L1\n", freshImm())
	req := SweepRequest{
		Arch:   "zen4",
		Axes:   []sweep.Axis{{Param: "tdp_watts", Values: []float64{200, 280}}},
		Blocks: []SweepBlock{{Name: "fresh", Asm: asm}},
	}
	if resp, body := post(t, ts, "/v1/sweep", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", resp.StatusCode, body)
	}
	wide := make([]float64, 65)
	for i := range wide {
		wide[i] = float64(100 + i)
	}
	big := SweepRequest{Arch: "zen4", Axes: []sweep.Axis{{Param: "tdp_watts", Values: wide}, {Param: "mem_bandwidth_gbs", Values: wide}}}
	if resp, body := post(t, ts, "/v1/sweep", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep status = %d: %s", resp.StatusCode, body)
	}
	var h HealthResponse
	getJSON(t, ts, "/healthz", &h)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := func(name string) string {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		t.Fatalf("metrics output missing %s", name)
		return ""
	}
	if st := h.Sweep; st.Sweeps != 1 || st.Variants != 2 || st.CellsAnalyzed != 1 || st.RejectedTooLarge != 1 {
		t.Errorf("/healthz sweep = %+v, want 1 sweep, 2 variants, 1 analysis, 1 rejected", st)
	}
	if got, want := strconv.FormatUint(h.Sweep.CellsAnalyzed, 10), series("incore_sweep_cells_analyzed_total"); got != want {
		t.Errorf("/healthz sweep.cells_analyzed = %s, /metrics incore_sweep_cells_analyzed_total = %s", got, want)
	}
	if got, want := strconv.FormatUint(h.Sweep.Sweeps, 10), series("incore_sweep_sweeps_total"); got != want {
		t.Errorf("/healthz sweep.sweeps = %s, /metrics incore_sweep_sweeps_total = %s", got, want)
	}
}
