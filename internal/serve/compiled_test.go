package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	"incore/internal/pipeline"
)

// freshSeq backs freshImm.
var freshSeq atomic.Int64

// freshImm returns an immediate no earlier call in this process
// returned, for tests whose block text must miss the process-wide tiers.
func freshImm() int64 { return 1000 + freshSeq.Add(1) }

// TestHealthzReportsCompiledTier pins the compiled-artifact accounting on
// /healthz: after two analyze requests with identical text under
// different names, the block parse cache holds one entry and the second
// request registered as a warm artifact lookup.
func TestHealthzReportsCompiledTier(t *testing.T) {
	ts := newServerWith(t, Options{JobWorkers: -1})
	before := pipeline.CompiledArtifacts().Stats()

	// Text no earlier run in this process sent, so the shared
	// process-wide cache is cold for this key under -count=N too.
	asm := fmt.Sprintf(".LHZ0:\n\taddq $%d, %%rax\n\taddq $24, %%rbx\n\tcmpq %%rcx, %%rax\n\tjb .LHZ0\n", freshImm())
	post := func(name string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"arch": "zen4", "name": name, "asm": asm})
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %s: status %d", name, resp.StatusCode)
		}
	}
	post("first")
	post("second")

	var h HealthResponse
	getJSON(t, ts, "/healthz", &h)
	if grew := h.Compiled.Blocks - before.Blocks; grew != 1 {
		t.Errorf("parsed-block entries grew by %d; want 1 (two names, one text)", grew)
	}
	if h.Compiled.Hits+h.Compiled.Attaches <= before.Hits+before.Attaches {
		t.Error("second identical request did not register as a warm artifact lookup")
	}
	if h.Compiled.Compiles <= before.Compiles {
		t.Error("cold request did not register a compile")
	}
	if h.Compiled.BytesEstimated <= before.BytesEstimated {
		t.Error("cached block did not add to the byte estimate")
	}
}

// TestAnalyzeNamesIndependentOfParseCache pins that the parse cache never
// leaks one request's name into another's response.
func TestAnalyzeNamesIndependentOfParseCache(t *testing.T) {
	ts := newServerWith(t, Options{JobWorkers: -1})
	asm := ".LNM0:\n\tsubq $16, %rax\n\tcmpq %rbx, %rax\n\tja .LNM0\n"
	for _, name := range []string{"wanted-one", "wanted-two", "wanted-one"} {
		body, _ := json.Marshal(map[string]string{"arch": "goldencove", "name": name, "asm": asm})
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ar AnalyzeResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %s: status %d", name, resp.StatusCode)
		}
		if ar.Name != name {
			t.Errorf("response name = %q; want %q (parse cache must not leak names)", ar.Name, name)
		}
	}
}
