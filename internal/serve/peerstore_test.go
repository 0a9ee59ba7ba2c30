package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incore/internal/pipeline"
	"incore/internal/remotestore"
	"incore/internal/store"
)

// withPeerStore swaps in a fresh memo cache and a persistent store over
// dir for the duration of the test, so the peer-store handlers (which
// read the pipeline's process-global store) see an isolated one.
func withPeerStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Schema: pipeline.StoreSchema()})
	if err != nil {
		t.Fatal(err)
	}
	oldC, oldSt := pipeline.SwapTiers(pipeline.NewCache(), st)
	t.Cleanup(func() { pipeline.SwapTiers(oldC, oldSt) })
	return st
}

// TestPeerStoreRoundTrip drives the peer endpoints with the real
// remotestore client: a PUT through the handler lands in the local
// store, a GET serves it back verified, and a GET for an absent hash is
// an authoritative 404 that costs the client no retries.
func TestPeerStoreRoundTrip(t *testing.T) {
	st := withPeerStore(t, t.TempDir())
	ts := newTestServer(t)

	c, err := remotestore.New(remotestore.Options{
		BaseURL: ts.URL, Schema: pipeline.StoreSchema(), Retries: -1, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key, payload := "analyze\x00zen4\x00some-block", []byte(`{"prediction":2.5}`)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty peer")
	}
	c.Put(key, payload)
	c.Close() // drains the write-behind queue; Get keeps working
	// The PUT landed locally on the peer (PutLocal: no re-forwarding).
	if got, ok := st.GetValidated(key, nil); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("peer store after PUT = %q, %v", got, ok)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, %v", got, ok)
	}
	cs := c.Stats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Errors != 0 || cs.Retries != 0 {
		t.Fatalf("client stats = %+v; want one verified hit, one clean miss", cs)
	}
}

// TestPeerStoreGetEnvelope pins GET error shapes: a malformed hash is
// 400, an absent entry is 404 store_entry_not_found — both in the
// unified envelope.
func TestPeerStoreGetEnvelope(t *testing.T) {
	withPeerStore(t, t.TempDir())
	ts := newTestServer(t)

	for _, tc := range []struct {
		path   string
		status int
		code   ErrorCode
	}{
		{"/v1/store/nothex", http.StatusBadRequest, CodeInvalidRequest},
		{"/v1/store/" + strings.Repeat("a", 64), http.StatusNotFound, CodeStoreEntryNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("GET %s status = %d, want %d; body %s", tc.path, resp.StatusCode, tc.status, body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != tc.code {
			t.Fatalf("GET %s envelope = %s (err %v), want code %s", tc.path, body, err, tc.code)
		}
		if env.Error.RequestID == "" {
			t.Fatalf("GET %s envelope missing request_id: %s", tc.path, body)
		}
	}
}

// TestPeerStorePutRejectsDamage: a write whose body fails the verify
// chain — wrong address, corrupted payload, garbage — is a 400 and
// never lands in the store.
func TestPeerStorePutRejectsDamage(t *testing.T) {
	st := withPeerStore(t, t.TempDir())
	ts := newTestServer(t)

	key, payload := "k", []byte("payload bytes")
	good, err := remotestore.EncodeEntry(pipeline.StoreSchema(), key, payload)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Clone(good)
	at := bytes.Index(corrupted, []byte(`"payload":"`)) + len(`"payload":"`)
	corrupted[at] ^= 0x01

	hash := store.KeyHash(key)
	cases := map[string]struct {
		hash string
		body []byte
	}{
		"wrong address":     {store.KeyHash("other"), good},
		"corrupted payload": {hash, corrupted},
		"truncated":         {hash, good[:len(good)/2]},
		"garbage":           {hash, []byte("not an envelope")},
		"wrong schema":      {hash, mustEncodeEntry(t, pipeline.StoreSchema()+1, key, payload)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/store/"+tc.hash, bytes.NewReader(tc.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
		})
	}
	if _, ok := st.GetValidated(key, nil); ok {
		t.Fatal("a damaged PUT landed in the store")
	}
	if _, ok := st.GetValidated("other", nil); ok {
		t.Fatal("a mis-addressed PUT landed in the store")
	}
	// A clean PUT still works after the hostile ones.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/store/"+hash, bytes.NewReader(good))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("clean PUT status = %d, want 204", resp.StatusCode)
	}
	if got, ok := st.GetValidated(key, nil); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("store after clean PUT = %q, %v", got, ok)
	}
}

func mustEncodeEntry(t *testing.T, schema int, key string, payload []byte) []byte {
	t.Helper()
	b, err := remotestore.EncodeEntry(schema, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverMiddleware pins the panic contract: a panicking handler
// yields a 500 internal envelope with the request ID, the stack reaches
// the log, and the server keeps serving.
func TestRecoverMiddleware(t *testing.T) {
	var logBuf bytes.Buffer
	s, err := NewWithOptions(Options{JobWorkers: -1, AccessLog: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	ts := httptest.NewServer(s.withRequestID(s.withRecover(mux)))
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest("GET", ts.URL+"/boom", nil)
	req.Header.Set("X-Request-Id", "trace-boom")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("panic response is not the envelope: %s (%v)", body, err)
	}
	if env.Error.Code != CodeInternal || env.Error.RequestID != "trace-boom" {
		t.Fatalf("envelope = %+v", env.Error)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "handler exploded") || !strings.Contains(logged, "trace-boom") {
		t.Fatalf("panic not logged with request ID: %q", logged)
	}
	if !strings.Contains(logged, "peerstore_test") && !strings.Contains(logged, "goroutine") {
		t.Fatalf("no stack in the panic log: %q", logged)
	}

	// The server is still alive for the next request.
	resp2, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second panic status = %d", resp2.StatusCode)
	}
}

// TestHealthzReportsRemoteTier: with a remotestore client attached to
// the store, /healthz carries the remote block including breaker state.
func TestHealthzReportsRemoteTier(t *testing.T) {
	st := withPeerStore(t, t.TempDir())

	// Peer that is simply another healthy server-less endpoint: a second
	// store would be overkill — an always-404 peer exercises the stats
	// path just as well.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"store_entry_not_found"}}`, http.StatusNotFound)
	}))
	t.Cleanup(peer.Close)
	rc, err := remotestore.New(remotestore.Options{BaseURL: peer.URL, Schema: pipeline.StoreSchema(), Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	st.SetRemote(rc)

	ts := newTestServer(t)
	// One remote-tier miss so the counters are non-trivial.
	st.GetValidated("never-stored", nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Remote == nil {
		t.Fatal("healthz missing remote block with a peer attached")
	}
	if health.Remote.Breaker != remotestore.BreakerClosed || health.Remote.Misses != 1 {
		t.Fatalf("remote block = %+v; want closed breaker, one miss", health.Remote)
	}
	if health.Store == nil || health.Store.Misses != 1 {
		t.Fatalf("store block = %+v", health.Store)
	}
}
