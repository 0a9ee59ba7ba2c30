package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"incore/internal/uarch"
)

// TestErrorEnvelopeTable pins the full code⇄status contract with live
// requests: every machine code is produced by a real handler path and
// must arrive with exactly its documented HTTP status, inside the
// unified envelope, carrying a request ID. analysis_timeout is pinned
// by TestAnalysisDeadlineReturns503 (it needs a pathological block), so
// its mapping is pinned statically below.
func TestErrorEnvelopeTable(t *testing.T) {
	// The body cap must admit a full machine file (the conflict case
	// posts one) while staying cheap to overflow with a plain string.
	models := uarch.NewRegistry()
	ts := newServerWith(t, Options{MaxBodyBytes: 4 << 20, MaxBlockInstrs: 4, JobWorkers: -1, MaxJobs: 1, MaxSweepVariants: 4, Models: models})

	do := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Occupy the single job slot so a second distinct job trips the cap.
	if resp, body := do("POST", "/v1/jobs", `{"requests":[{"arch":"zen4","asm":"\taddq $1, %rax\n"}]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("priming job submit = %d %s", resp.StatusCode, body)
	}
	// Occupy a registry key with known content so conflicting content 409s.
	wire := machineJSON(t, customModel(t, "envelope-conflict"))
	if resp, body := do("POST", "/v1/models", string(wire)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("priming model registration = %d %s", resp.StatusCode, body)
	}
	conflict := customModel(t, "envelope-conflict")
	conflict.ROBSize++
	if err := conflict.Reindex(); err != nil {
		t.Fatal(err)
	}
	// Fill the server's registry to its cap so one more key is refused.
	for i := len(models.Keys()); i < maxRegisteredModels; i++ {
		if _, err := models.Register(tinyMachine(fmt.Sprintf("envelope-fill-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		code         ErrorCode
	}{
		{"malformed body", "POST", "/v1/analyze", `{garbage`, 400, CodeInvalidRequest},
		{"missing asm", "POST", "/v1/analyze", `{"arch":"zen4"}`, 400, CodeInvalidRequest},
		{"bad limit param", "GET", "/v1/models?limit=-1", "", 400, CodeInvalidRequest},
		{"unknown arch on analyze", "POST", "/v1/analyze", `{"arch":"m99","asm":"\tnop\n"}`, 400, CodeModelNotFound},
		{"unknown model export", "GET", "/v1/models/m99", "", 404, CodeModelNotFound},
		{"oversized body", "POST", "/v1/analyze", `{"arch":"zen4","asm":"` + strings.Repeat("A", 4<<20) + `"}`, 413, CodeBodyTooLarge},
		{"oversized block", "POST", "/v1/analyze", `{"arch":"zen4","asm":"` + strings.Repeat(`\taddq $1, %rax\n`, 5) + `"}`, 413, CodeBlockTooLarge},
		{"model conflict", "POST", "/v1/models", string(machineJSON(t, conflict)), 409, CodeModelConflict},
		{"registry full", "POST", "/v1/models", string(machineJSON(t, tinyMachine("envelope-one-too-many"))), 507, CodeRegistryFull},
		{"oversized sweep", "POST", "/v1/sweep", `{"arch":"zen4","axes":[{"param":"tdp_watts","values":[1,2,3,4,5]}]}`, 413, CodeSweepTooLarge},
		{"bad sweep param", "POST", "/v1/sweep", `{"arch":"zen4","axes":[{"param":"magic","values":[1]}]}`, 400, CodeInvalidRequest},
		{"unknown job", "GET", "/v1/jobs/feed", "", 404, CodeJobNotFound},
		{"job cap", "POST", "/v1/jobs", `{"requests":[{"arch":"zen4","asm":"\taddq $2, %rax\n"}]}`, 507, CodeQueueFull},
		{"bad store hash", "GET", "/v1/store/not-a-hash", "", 400, CodeInvalidRequest},
		// This test server runs without a persistent store, so a
		// well-formed peer fetch is answered 503 store_unavailable.
		{"store unavailable", "GET", "/v1/store/" + strings.Repeat("a", 64), "", 503, CodeStoreUnavailable},
		{"store unavailable put", "PUT", "/v1/store/" + strings.Repeat("a", 64), "{}", 503, CodeStoreUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.status, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("response is not the unified envelope: %s (%v)", body, err)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q; body %s", env.Error.Code, tc.code, body)
			}
			if env.Error.Message == "" {
				t.Fatalf("empty message: %s", body)
			}
			if env.Error.RequestID == "" || env.Error.RequestID != resp.Header.Get("X-Request-Id") {
				t.Fatalf("request_id %q does not match X-Request-Id %q",
					env.Error.RequestID, resp.Header.Get("X-Request-Id"))
			}
		})
	}
	// On a full registry the unknown-arch message lists a bounded number
	// of the keys.
	if _, body := do("POST", "/v1/analyze", `{"arch":"m99","asm":"\tnop\n"}`); len(body) >= 1<<10 {
		t.Errorf("unknown-arch body on a full registry is %d bytes, want under 1 KiB: %.300s", len(body), body)
	}
	// A full registry still answers re-registrations of the keys it holds.
	for _, body := range []string{string(wire), string(machineJSON(t, tinyMachine(fmt.Sprintf("envelope-fill-%d", maxRegisteredModels-1))))} {
		if resp, got := do("POST", "/v1/models", body); resp.StatusCode != http.StatusOK {
			t.Errorf("re-registration on a full registry = %d %s, want 200", resp.StatusCode, got)
		}
	}

	// Codes no cheap live request against this server can produce keep
	// their pinned statuses via classify — the same mapping writeError
	// uses. (store_entry_not_found is exercised live with an attached
	// store by TestPeerStoreGetEnvelope, internal by
	// TestRecoverMiddleware.)
	for _, tc := range []struct {
		err    error
		status int
		code   ErrorCode
	}{
		{apiErrorf(CodeAnalysisTimeout, http.StatusServiceUnavailable, "x"), 503, CodeAnalysisTimeout},
		{apiErrorf(CodeStoreEntryNotFound, http.StatusNotFound, "x"), 404, CodeStoreEntryNotFound},
		{apiErrorf(CodeInternal, http.StatusInternalServerError, "x"), 500, CodeInternal},
	} {
		if status, code := classify(tc.err); status != tc.status || code != tc.code {
			t.Errorf("classify(%s) = %d/%s, want %d/%s", tc.code, status, code, tc.status, tc.code)
		}
	}
}

// TestRequestIDEcho pins the middleware: a well-formed client ID is
// echoed verbatim, a hostile one is replaced, and an absent one is
// generated — on success responses too, not only errors.
func TestRequestIDEcho(t *testing.T) {
	ts := newTestServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-42.alpha_7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-42.alpha_7" {
		t.Errorf("well-formed ID not echoed: %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "evil\tid with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" || strings.ContainsAny(got, " \t") {
		t.Errorf("hostile ID echoed or missing: %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("no generated ID on a bare request")
	}
}

// TestModelsPagination pins limit/offset/arch behavior of GET /v1/models.
func TestModelsPagination(t *testing.T) {
	ts := newTestServer(t)
	get := func(path string) ModelList {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		var list ModelList
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list
	}

	all := get("/v1/models")
	if all.Total < 2 || len(all.Models) != all.Total {
		t.Fatalf("unpaginated listing = %d models, total %d", len(all.Models), all.Total)
	}

	page := get("/v1/models?limit=1&offset=1")
	if len(page.Models) != 1 || page.Total != all.Total {
		t.Fatalf("page = %d models, total %d (want 1, %d)", len(page.Models), page.Total, all.Total)
	}
	if page.Models[0].Key != all.Models[1].Key {
		t.Errorf("offset=1 returned %s, want %s", page.Models[0].Key, all.Models[1].Key)
	}

	// Offset past the end: empty page, total intact.
	tail := get("/v1/models?offset=10000")
	if len(tail.Models) != 0 || tail.Total != all.Total {
		t.Fatalf("past-the-end page = %+v", tail)
	}

	// Dialect-family filter and exact-key filter.
	x86 := get("/v1/models?arch=x86")
	if x86.Total == 0 || x86.Total == all.Total {
		t.Fatalf("x86 filter total = %d of %d", x86.Total, all.Total)
	}
	for _, m := range x86.Models {
		if m.Dialect != "x86" {
			t.Errorf("x86 filter leaked %s (%s)", m.Key, m.Dialect)
		}
	}
	one := get("/v1/models?arch=goldencove")
	if one.Total != 1 || one.Models[0].Key != "goldencove" {
		t.Fatalf("key filter = %+v", one)
	}

	// Filter + pagination compose: total counts matches, not the page.
	fp := get("/v1/models?arch=x86&limit=1")
	if len(fp.Models) != 1 || fp.Total != x86.Total {
		t.Fatalf("filtered page = %d models, total %d (want 1, %d)", len(fp.Models), fp.Total, x86.Total)
	}
}
