package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	api, err := NewWithOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Close)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestAnalyzeMatchesOsaca round-trips a suite kernel through the HTTP API
// and checks the service returns exactly what cmd/osaca computes for the
// same input: core.New().Analyze on the parsed block — same prediction,
// same bounds, same rendered report.
func TestAnalyzeMatchesOsaca(t *testing.T) {
	m := uarch.MustGet("goldencove")
	k, err := kernels.ByName("striad")
	if err != nil {
		t.Fatal(err)
	}
	tg := kernels.TargetOf(m)
	b, err := kernels.Generate(k, kernels.Config{Target: tg, Compiler: tg.Compilers()[0], Opt: kernels.Ofast})
	if err != nil {
		t.Fatal(err)
	}
	asm := b.Text()

	// What cmd/osaca prints: parse the source, analyze directly.
	direct, err := isa.ParseMarkedBlock(b.Name, m.Key, m.Dialect, asm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.New().Analyze(direct, m)
	if err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Arch: m.Key, Asm: asm, Name: b.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var got AnalyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if got.Prediction != want.Prediction || got.Bound != want.Bound {
		t.Errorf("prediction = %.4f [%s]; osaca gives %.4f [%s]",
			got.Prediction, got.Bound, want.Prediction, want.Bound)
	}
	if got.TPBound != want.TPBound || got.IssueBound != want.IssueBound || got.LCDCycles != want.LCD.Cycles {
		t.Errorf("bounds = tp %.4f issue %.4f lcd %.4f; want tp %.4f issue %.4f lcd %.4f",
			got.TPBound, got.IssueBound, got.LCDCycles, want.TPBound, want.IssueBound, want.LCD.Cycles)
	}
	if got.Report != want.Report() {
		t.Errorf("report differs from osaca's:\n--- serve:\n%s\n--- osaca:\n%s", got.Report, want.Report())
	}
}

// TestAnalyzeHonorsMarkers sends a listing with surrounding boilerplate
// and OSACA markers: only the marked region is analyzed.
func TestAnalyzeHonorsMarkers(t *testing.T) {
	asm := `
	pushq %rbp
	# OSACA-BEGIN
.L0:
	addq $8, %rax
	cmpq %rbx, %rax
	jb .L0
	# OSACA-END
	popq %rbp
`
	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Arch: "goldencove", Asm: asm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var got AnalyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got.Report, "pushq") || !strings.Contains(got.Report, "addq") {
		t.Errorf("marked region not honored; report:\n%s", got.Report)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ts := newTestServer(t)
	for name, tc := range map[string]struct {
		req  AnalyzeRequest
		code ErrorCode
	}{
		"unknownArch": {AnalyzeRequest{Arch: "m1", Asm: "\taddq $8, %rax\n"}, CodeModelNotFound},
		"missingArch": {AnalyzeRequest{Asm: "\taddq $8, %rax\n"}, CodeInvalidRequest},
		"missingAsm":  {AnalyzeRequest{Arch: "zen4"}, CodeInvalidRequest},
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := post(t, ts, "/v1/analyze", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
			var e errorEnvelope
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
				t.Fatalf("error body %s (err %v)", body, err)
			}
			if e.Error.Code != tc.code {
				t.Fatalf("error code = %q, want %q (body %s)", e.Error.Code, tc.code, body)
			}
			if e.Error.RequestID == "" {
				t.Fatalf("error envelope missing request_id: %s", body)
			}
		})
	}

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
}

// TestBatchMixedResults checks order preservation and per-item failure
// isolation: a bad item reports its error without vetoing the good ones.
func TestBatchMixedResults(t *testing.T) {
	loop := "\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n"
	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/batch", BatchRequest{Requests: []AnalyzeRequest{
		{Arch: "goldencove", Asm: ".L0:\n" + loop, Name: "good-1"},
		{Arch: "not-a-uarch", Asm: loop},
		{Arch: "goldencove", Asm: ".L0:\n" + loop, Name: "good-2"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(got.Results))
	}
	if got.Results[0].Result == nil || got.Results[0].Result.Name != "good-1" ||
		got.Results[2].Result == nil || got.Results[2].Result.Name != "good-2" {
		t.Errorf("good items missing or misordered: %+v", got.Results)
	}
	if got.Results[1].Error == "" || got.Results[1].Result != nil {
		t.Errorf("bad item must carry an error: %+v", got.Results[1])
	}
	// Identical content under different names: same analysis.
	if a, b := got.Results[0].Result, got.Results[2].Result; a.Prediction != b.Prediction || a.Bound != b.Bound {
		t.Errorf("identical blocks diverged: %+v vs %+v", a, b)
	}
}

func TestModels(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list ModelList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != len(uarch.Keys()) || list.Total != len(uarch.Keys()) {
		t.Fatalf("got %d models (total %d), want %d", len(list.Models), list.Total, len(uarch.Keys()))
	}
	seen := map[string]ModelInfo{}
	for _, mi := range list.Models {
		seen[mi.Key] = mi
	}
	if mi, ok := seen["neoversev2"]; !ok || mi.Dialect != "aarch64" || mi.IssueWidth <= 0 || len(mi.Ports) == 0 {
		t.Errorf("neoversev2 entry wrong or missing: %+v", mi)
	}
	if mi, ok := seen["goldencove"]; !ok || mi.Dialect != "x86" {
		t.Errorf("goldencove entry wrong or missing: %+v", mi)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Models != len(uarch.Keys()) {
		t.Errorf("health = %+v", h)
	}
}

// TestMethodNotAllowed pins the route table: wrong-method requests are
// rejected, not silently routed.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze status = %d, want 405", resp.StatusCode)
	}
}
