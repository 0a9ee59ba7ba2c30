package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"incore/internal/uarch"
)

// machineJSON renders a model's machine file.
func machineJSON(t *testing.T, m *uarch.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// customModel clones zen4 under a fresh key with an extra store-data
// port, so it is distinguishable from every built-in by both key and
// content.
func customModel(t *testing.T, key string) *uarch.Model {
	t.Helper()
	m, err := uarch.ReadJSON(bytes.NewReader(machineJSON(t, uarch.MustGet("zen4"))))
	if err != nil {
		t.Fatal(err)
	}
	m.Key = key
	m.Ports = append(m.Ports, "SD2")
	m.StoreDataPorts |= 1 << uint(len(m.Ports)-1)
	m.StoreAGUPorts |= m.PortsByName("AGU1")
	if err := m.Reindex(); err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyMachine is a minimal valid x86 model under key: cheap to
// register in bulk.
func tinyMachine(key string) *uarch.Model {
	m := &uarch.Model{
		Key: key, Name: "Tiny " + key, CPU: "testbed", Vendor: "test",
		Ports:      []string{"p0", "ld", "sa", "sd"},
		IssueWidth: 1, DecodeWidth: 1, RetireWidth: 1,
		ROBSize: 8, SchedSize: 4,
		LoadLat: 4, LoadWidthBits: 64, StoreWidthBits: 64,
		VecWidth: 128, CoresPerChip: 1, BaseFreqGHz: 1, MaxFreqGHz: 1,
		FPVectorUnits: 1, IntUnits: 1,
	}
	m.LoadPorts = m.PortsByName("ld")
	m.StoreAGUPorts = m.PortsByName("sa")
	m.StoreDataPorts = m.PortsByName("sd")
	m.Entries = []uarch.Entry{{Mnemonic: "addq", Lat: 1, Uops: []uarch.Uop{{Ports: m.PortsByName("p0"), Cycles: 1}}}}
	return m
}

func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestRegisterExportRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	m := customModel(t, "serve-custom-rt")
	wire := machineJSON(t, m)

	resp, body := postRaw(t, ts, "/v1/models", wire)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var reg ModelRegistered
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Key != m.Key || reg.Fingerprint != m.Fingerprint() || !reg.Created {
		t.Errorf("registration = %+v, want key %s fp %s created", reg, m.Key, m.Fingerprint())
	}
	if reg.CacheKey != m.Key+"@"+m.Fingerprint() {
		t.Errorf("cache key = %q", reg.CacheKey)
	}

	// Re-posting identical content is idempotent (200, created=false).
	resp, body = postRaw(t, ts, "/v1/models", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Created {
		t.Error("re-registration must report created=false")
	}

	// A different model under the same key is a conflict.
	conflict := customModel(t, "serve-custom-rt")
	conflict.ROBSize++
	if err := conflict.Reindex(); err != nil {
		t.Fatal(err)
	}
	resp, body = postRaw(t, ts, "/v1/models", machineJSON(t, conflict))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflict status = %d, body %s", resp.StatusCode, body)
	}

	// Shadowing a built-in with different content is a conflict too.
	shadow := customModel(t, "zen4")
	resp, _ = postRaw(t, ts, "/v1/models", machineJSON(t, shadow))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("built-in shadow status = %d", resp.StatusCode)
	}

	// Export returns the canonical machine file: re-reading it yields
	// the same fingerprint, and the bytes match WriteJSON exactly.
	resp2, err := http.Get(ts.URL + "/v1/models/serve-custom-rt")
	if err != nil {
		t.Fatal(err)
	}
	exported, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d", resp2.StatusCode)
	}
	if !bytes.Equal(exported, wire) {
		t.Error("exported machine file differs from canonical form")
	}
	resp2, err = http.Get(ts.URL + "/v1/models/no-such-model")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("missing model export status = %d", resp2.StatusCode)
	}

	// The registered model shows up in the listing with its fingerprint.
	resp2, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var list ModelList
	if err := json.Unmarshal(listing, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range list.Models {
		if info.Key == "serve-custom-rt" {
			found = true
			if info.Fingerprint != m.Fingerprint() || !info.HasNodeParams {
				t.Errorf("listing entry = %+v", info)
			}
		}
	}
	if !found {
		t.Error("registered model missing from GET /v1/models")
	}
}

// TestAnalyzeWithRegisteredAndInlineMachine: a custom machine analyzed by
// key (after registration) and inline must agree with analyzing the model
// directly, and must differ from the built-in it was derived from where
// the edit matters.
func TestAnalyzeWithRegisteredAndInlineMachine(t *testing.T) {
	ts := newTestServer(t)
	m := customModel(t, "serve-custom-inline")
	wire := machineJSON(t, m)

	asm := "\tvmovupd %ymm0, (%rdi)\n\tvmovupd %ymm1, 32(%rdi)\n\taddq $64, %rdi\n\tcmpq %rsi, %rdi\n\tjb .L0\n"

	// Inline, without registration.
	req := AnalyzeRequest{Machine: json.RawMessage(wire), Asm: asm, Name: "stores"}
	data, _ := json.Marshal(req)
	resp, body := postRaw(t, ts, "/v1/analyze", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline status = %d, body %s", resp.StatusCode, body)
	}
	var inline AnalyzeResponse
	if err := json.Unmarshal(body, &inline); err != nil {
		t.Fatal(err)
	}
	if inline.Arch != "serve-custom-inline" {
		t.Errorf("inline arch = %q", inline.Arch)
	}

	// Same machine again: must hit the server's inline-model cache and
	// return the identical answer.
	resp, body2 := postRaw(t, ts, "/v1/analyze", data)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Error("repeated inline analysis must be byte-identical")
	}

	// Mismatched arch/machine pair is rejected.
	bad, _ := json.Marshal(AnalyzeRequest{Arch: "zen4", Machine: json.RawMessage(wire), Asm: asm})
	resp, _ = postRaw(t, ts, "/v1/analyze", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("arch/machine mismatch status = %d", resp.StatusCode)
	}

	// Register, then analyze by key: same result as inline.
	if resp, body := postRaw(t, ts, "/v1/models", wire); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d, body %s", resp.StatusCode, body)
	}
	byKey, _ := json.Marshal(AnalyzeRequest{Arch: "serve-custom-inline", Asm: asm, Name: "stores"})
	resp, body = postRaw(t, ts, "/v1/analyze", byKey)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("by-key status = %d, body %s", resp.StatusCode, body)
	}
	var keyed AnalyzeResponse
	if err := json.Unmarshal(body, &keyed); err != nil {
		t.Fatal(err)
	}
	if keyed.Prediction != inline.Prediction || keyed.Report != inline.Report {
		t.Error("by-key and inline analyses disagree")
	}

	// The custom machine (extra store port) must beat the built-in on a
	// pure store stream — proof the variant, not zen4's cache entry,
	// answered.
	zen, _ := json.Marshal(AnalyzeRequest{Arch: "zen4", Asm: asm, Name: "stores"})
	resp, body = postRaw(t, ts, "/v1/analyze", zen)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zen4 status = %d, body %s", resp.StatusCode, body)
	}
	var builtin AnalyzeResponse
	if err := json.Unmarshal(body, &builtin); err != nil {
		t.Fatal(err)
	}
	if !(inline.Prediction < builtin.Prediction) {
		t.Errorf("extra store port must lower the bound: %f vs %f", inline.Prediction, builtin.Prediction)
	}
}

// TestConcurrentModelRegistration hammers POST /v1/models from many
// goroutines — identical content, fresh keys, and conflicting content —
// under -race via the CI test job. Exactly one fingerprint may ever win
// a key.
func TestConcurrentModelRegistration(t *testing.T) {
	ts := newTestServer(t)
	const workers = 8
	const iters = 12

	// All machine files are rendered up front: goroutines must not call
	// t.Fatal, and the registrations should race on the server, not on
	// local JSON rendering.
	shared := machineJSON(t, customModel(t, "serve-conc-shared"))
	conflict := machineJSON(t, func() *uarch.Model {
		m := customModel(t, "serve-conc-shared")
		m.ROBSize++
		if err := m.Reindex(); err != nil {
			t.Fatal(err)
		}
		return m
	}())
	fresh := make([][]byte, workers*iters)
	for i := range fresh {
		fresh[i] = machineJSON(t, customModel(t, fmt.Sprintf("serve-conc-%d", i)))
	}

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("post: %v", err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					// Identical content: every racer wins (201 or 200).
					if code := post(shared); code != http.StatusCreated && code != http.StatusOK {
						t.Errorf("shared registration status = %d", code)
					}
				case 1:
					// Conflicting content on the shared key: either it
					// lost the race (409) or — if it somehow arrived
					// before any identical registration — it won and the
					// identical posts above would conflict instead; the
					// invariant checked after the loop is that exactly
					// one fingerprint holds the key.
					if code := post(conflict); code != http.StatusConflict && code != http.StatusCreated {
						t.Errorf("conflict registration status = %d", code)
					}
				case 2:
					if code := post(fresh[w*iters+i]); code != http.StatusCreated {
						t.Errorf("fresh key status = %d", code)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/v1/models/serve-conc-shared")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shared key not registered: status %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, shared) && !bytes.Equal(got, conflict) {
		t.Error("the shared key exports neither of the two posted machine files")
	}
}

// TestAnalyzeRejectsBadInlineMachine: malformed inline machines fail with
// a 400 and a uarch error, not a panic or a silent fallback to Arch.
func TestAnalyzeRejectsBadInlineMachine(t *testing.T) {
	ts := newTestServer(t)
	req, _ := json.Marshal(AnalyzeRequest{
		Machine: json.RawMessage(`{"key":"broken"}`),
		Asm:     "\taddq $8, %rax\n",
	})
	resp, body := postRaw(t, ts, "/v1/analyze", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "uarch") {
		t.Errorf("error should come from the machine-file loader: %s", body)
	}
}
