package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Hostile-input behavior of the serve tier: body caps reject before
// parsing, instruction caps reject before analysis, the analysis
// deadline releases the worker with a 503, and degraded (unknown
// mnemonic) blocks flow through /v1/analyze and /v1/batch with per-item
// isolation intact.

func newServerWith(t *testing.T, opt Options) *httptest.Server {
	t.Helper()
	api, err := NewWithOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Close)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestBodySizeCapRejectsWith413(t *testing.T) {
	ts := newServerWith(t, Options{MaxBodyBytes: 1 << 10})
	// An over-limit body must bounce with 413 without being parsed.
	big := `{"arch":"goldencove","asm":"` + strings.Repeat("A", 1<<12) + `"}`
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	// An in-limit body on the same server still works.
	resp2, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Arch: "goldencove", Asm: "\taddq $8, %rax\n"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("in-limit request failed: %d %s", resp2.StatusCode, body)
	}
}

func TestBodySizeCapAppliesToModelRegistration(t *testing.T) {
	ts := newServerWith(t, Options{MaxBodyBytes: 1 << 10})
	resp, err := http.Post(ts.URL+"/v1/models", "application/json",
		strings.NewReader(`{"key":"`+strings.Repeat("k", 1<<12)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestInstructionCapRejectsWith413(t *testing.T) {
	ts := newServerWith(t, Options{MaxBlockInstrs: 8})
	var sb strings.Builder
	for i := 0; i < 9; i++ {
		sb.WriteString("\taddq $1, %rax\n")
	}
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Arch: "goldencove", Asm: sb.String()})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body: %s", resp.StatusCode, body)
	}
	var eb errorEnvelope
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error.Message, "limit is 8") {
		t.Fatalf("error body = %s", body)
	}
	if eb.Error.Code != CodeBlockTooLarge {
		t.Fatalf("error code = %q, want %q", eb.Error.Code, CodeBlockTooLarge)
	}
	// Exactly at the cap passes.
	resp2, body2 := post(t, ts, "/v1/analyze", AnalyzeRequest{Arch: "goldencove",
		Asm: strings.Repeat("\taddq $1, %rax\n", 8)})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("at-cap request failed: %d %s", resp2.StatusCode, body2)
	}
}

func TestAnalysisDeadlineReturns503(t *testing.T) {
	// A short deadline with a block slow enough that analysis cannot
	// meet it: many instructions aliasing one address make the
	// loop-carried search superlinear — exactly the pathological shape
	// the deadline exists for. Trivial follow-up requests finish far
	// inside the same deadline, which is what proves the worker was
	// released rather than wedged.
	// 1700 aliasing pairs analyze in high hundreds of milliseconds even on
	// a fast machine — far past the 50ms deadline — while the abandoned
	// background computation still drains within ~a second.
	ts := newServerWith(t, Options{AnalysisTimeout: 50 * time.Millisecond})
	var sb strings.Builder
	sb.WriteString(".L0:\n")
	// A unique immediate keeps the block out of the process-wide memo:
	// the abandoned background computation from a previous run (-count>1)
	// would otherwise serve an instant — and legitimate — cache hit.
	fmt.Fprintf(&sb, "\taddq $%d, %%rax\n", time.Now().UnixNano())
	for i := 0; i < 1700; i++ {
		sb.WriteString("\tvmovsd (%rsi), %xmm0\n\tvmovsd %xmm0, (%rsi)\n")
	}
	sb.WriteString("\tjne .L0\n")
	req := AnalyzeRequest{Arch: "goldencove", Asm: sb.String()}
	resp, body := post(t, ts, "/v1/analyze", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body: %.200s", resp.StatusCode, body)
	}
	var eb errorEnvelope
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error.Message, "deadline") {
		t.Fatalf("error body = %s", body)
	}
	if eb.Error.Code != CodeAnalysisTimeout {
		t.Fatalf("error code = %q, want %q", eb.Error.Code, CodeAnalysisTimeout)
	}
	// The worker is released, not wedged: a trivial request on the same
	// server answers inside the same deadline.
	resp2, body2 := post(t, ts, "/v1/analyze", AnalyzeRequest{Arch: "goldencove",
		Asm: "\taddq $1, %rax\n"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("server did not recover after a deadline rejection: %d %s", resp2.StatusCode, body2)
	}
	// Drain the abandoned analysis before returning: it would otherwise
	// add its artifacts to the process-wide tiers while a later test
	// compares two snapshots of them. The same request without a
	// deadline attaches to the in-flight computation and returns once
	// it settles.
	drain := newServerWith(t, Options{AnalysisTimeout: -1})
	if resp3, body3 := post(t, drain, "/v1/analyze", req); resp3.StatusCode != http.StatusOK {
		t.Fatalf("draining the abandoned analysis: %d %.200s", resp3.StatusCode, body3)
	}
}

func TestDegradedCoverageThroughAnalyze(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{
		Arch: "goldencove",
		Asm:  "\tvmovupd (%rsi), %ymm1\n\tvpmaddubsw %ymm1, %ymm2, %ymm3\n\taddq $4, %rax\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	c := ar.Coverage
	if c.Unknown != 1 || c.Exact+c.Fallback != 2 {
		t.Fatalf("coverage = %+v, want 2 covered + 1 unknown", c)
	}
	if len(c.UnknownMnemonics) != 1 || c.UnknownMnemonics[0] != "vpmaddubsw" {
		t.Fatalf("unknown mnemonics = %v", c.UnknownMnemonics)
	}
	if want := 2.0 / 3.0; c.Fraction != want {
		t.Fatalf("fraction = %v, want %v", c.Fraction, want)
	}
	if !strings.Contains(ar.Report, "coverage         :") || !strings.Contains(ar.Report, "vpmaddubsw") {
		t.Fatalf("report missing degradation footer:\n%s", ar.Report)
	}
}

func TestFullCoverageResponseOmitsFooter(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{
		Arch: "goldencove", Asm: "\tvaddpd %ymm1, %ymm2, %ymm3\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Coverage.Unknown != 0 || ar.Coverage.Fraction != 1 {
		t.Fatalf("coverage = %+v, want full", ar.Coverage)
	}
	if strings.Contains(ar.Report, "coverage         :") {
		t.Fatalf("full-coverage report carries the degradation footer:\n%s", ar.Report)
	}
}

// Concurrent hammer: many goroutines push mixed batches (clean blocks,
// degraded blocks, outright garbage) through /v1/batch; every response
// must preserve order and per-item isolation, and degraded items must
// carry their coverage.
func TestConcurrentDegradedBatchHammer(t *testing.T) {
	ts := newTestServer(t)
	reqs := []AnalyzeRequest{
		{Arch: "goldencove", Asm: "\tvaddpd %ymm1, %ymm2, %ymm3\n", Name: "clean"},
		{Arch: "goldencove", Asm: "\tvpmaddubsw %ymm1, %ymm2, %ymm3\n", Name: "degraded"},
		{Arch: "goldencove", Asm: "not assembly ((((", Name: "broken"},
		{Arch: "neoversev2", Asm: "\tsha256h q0, q1, v2.4s\n\tfadd d0, d0, d1\n", Name: "degraded-arm"},
		{Arch: "nosucharch", Asm: "\tnop\n", Name: "badarch"},
	}
	const workers = 16
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				resp, body := post(t, ts, "/v1/batch", BatchRequest{Requests: reqs})
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("batch status %d", resp.StatusCode)
					return
				}
				var br BatchResponse
				if err := json.Unmarshal(body, &br); err != nil {
					errc <- err
					return
				}
				if len(br.Results) != len(reqs) {
					errc <- fmt.Errorf("got %d results, want %d", len(br.Results), len(reqs))
					return
				}
				for i, item := range br.Results {
					name := reqs[i].Name
					wantErr := name == "broken" || name == "badarch"
					if wantErr {
						if item.Error == "" || item.Result != nil {
							errc <- fmt.Errorf("item %s: expected isolated error, got %+v", name, item)
							return
						}
						continue
					}
					if item.Error != "" || item.Result == nil {
						errc <- fmt.Errorf("item %s: unexpected error %q", name, item.Error)
						return
					}
					wantUnknown := strings.HasPrefix(name, "degraded")
					if got := item.Result.Coverage.Unknown > 0; got != wantUnknown {
						errc <- fmt.Errorf("item %s: unknown>0 = %v, want %v", name, got, wantUnknown)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
