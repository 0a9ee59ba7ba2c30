package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"incore/internal/faultinject"
	"incore/internal/pipeline"
	"incore/internal/remotestore"
	"incore/internal/store"
)

// This file is the fault-tolerance acceptance suite: a peer replica is
// degraded (deterministic fault injection) or killed outright (SIGKILL,
// not graceful shutdown) and the serving replica must keep answering
// every request with byte-identical output — the remote tier may only
// ever change where a result comes from, never what it is.

// TestMain doubles as the peer-replica helper process: when re-executed
// with SERVE_PEER_HELPER=1, the test binary becomes a real serve server
// with its own store (attached in its own process, so the parent's
// pipeline globals are untouched), prints its address, and serves until
// killed — the only honest way to test SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_PEER_HELPER") == "1" {
		runPeerHelper()
		return
	}
	os.Exit(m.Run())
}

func runPeerHelper() {
	dir := os.Getenv("SERVE_PEER_DIR")
	if dir == "" {
		fmt.Fprintln(os.Stderr, "helper: SERVE_PEER_DIR not set")
		os.Exit(1)
	}
	if _, err := pipeline.AttachStore(dir); err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	api, err := NewWithOptions(Options{JobWorkers: -1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("HELPER_ADDR=%s\n", ln.Addr())
	os.Stdout.Sync()
	// Serve until SIGKILLed by the parent; no graceful path exists on
	// purpose.
	http.Serve(ln, api.Handler())
}

// startPeerProcess launches the helper and returns its base URL and the
// process handle (for the SIGKILL).
func startPeerProcess(t *testing.T, dir string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SERVE_PEER_HELPER=1", "SERVE_PEER_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "HELPER_ADDR="); ok {
			return "http://" + addr, cmd
		}
	}
	t.Fatal("helper exited without printing HELPER_ADDR")
	return "", nil
}

// batchBody builds a /v1/batch body over distinct single-block requests.
func batchBody(t *testing.T, asms ...string) []byte {
	t.Helper()
	var req BatchRequest
	for i, asm := range asms {
		req.Requests = append(req.Requests, AnalyzeRequest{
			Arch: "zen4", Asm: asm, Name: fmt.Sprintf("blk%d", i),
		})
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// postBatch posts one batch and returns status + body bytes.
func postBatch(t *testing.T, baseURL string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("batch request failed outright: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading batch response: %v", err)
	}
	return resp.StatusCode, out
}

// asmBlock renders a distinct small loop; different offsets give
// different cache keys, forcing cold lookups on demand.
func asmBlock(off int) string {
	return fmt.Sprintf(".L0:\n\taddq $%d, %%rax\n\tcmpq %%rbx, %%rax\n\tjb .L0\n", off)
}

// TestPeerSIGKILLMidSuite is the PR's acceptance test: the remote peer
// is SIGKILLed (not gracefully stopped) while requests are in flight.
// Every in-flight and subsequent request must succeed with byte-identical
// output, the circuit breaker must open within its configured threshold,
// and /healthz must show the closed→open transition.
func TestPeerSIGKILLMidSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real peer process")
	}
	peerURL, peerCmd := startPeerProcess(t, t.TempDir())

	// The serving replica: fresh local tiers, remote tier pointed at the
	// live peer. Tight client budgets keep the degraded window short.
	st := withPeerStore(t, t.TempDir())
	rc, err := remotestore.New(remotestore.Options{
		BaseURL:          peerURL,
		Schema:           pipeline.StoreSchema(),
		Timeout:          500 * time.Millisecond,
		Retries:          -1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute, // stays open for the assertions
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	st.SetRemote(rc)
	ts := newTestServer(t)

	// Baseline A: computed locally pre-kill (and write-behind replicated
	// to the peer). Re-request must be byte-identical — sanity for the
	// comparisons below.
	bodyA := batchBody(t, asmBlock(1), asmBlock(2), asmBlock(3))
	status, wantA := postBatch(t, ts.URL, bodyA)
	if status != http.StatusOK {
		t.Fatalf("baseline batch status = %d: %s", status, wantA)
	}
	if s2, got := postBatch(t, ts.URL, bodyA); s2 != http.StatusOK || !bytes.Equal(got, wantA) {
		t.Fatalf("pre-kill re-request drifted (status %d)", s2)
	}

	// Expected outputs for the post-kill sets come from the healthy peer
	// replica itself: both replicas run the same code under the same
	// determinism contract, so any byte difference after the kill is a
	// real corruption, not an artifact of asking a different server.
	bodyB := batchBody(t, asmBlock(10), asmBlock(11), asmBlock(12))
	bodyD := batchBody(t, asmBlock(20), asmBlock(21), asmBlock(22), asmBlock(23))
	if s, b := postBatch(t, peerURL, bodyB); s != http.StatusOK {
		t.Fatalf("peer baseline B = %d: %s", s, b)
	}
	_, wantB := postBatch(t, peerURL, bodyB)
	if s, b := postBatch(t, peerURL, bodyD); s != http.StatusOK {
		t.Fatalf("peer baseline D = %d: %s", s, b)
	}
	_, wantD := postBatch(t, peerURL, bodyD)

	// Kill the peer with requests in flight: the D requests race the
	// SIGKILL, so some see a healthy peer, some a dying one, some a dead
	// one — all must succeed with the exact expected bytes.
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, got := postBatch(t, ts.URL, bodyD)
			if s != http.StatusOK {
				errs <- fmt.Sprintf("in-flight batch status %d", s)
			} else if !bytes.Equal(got, wantD) {
				errs <- "in-flight batch bytes differ from healthy baseline"
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := peerCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Subsequent cold requests (set B) force remote consults against the
	// dead peer: every one must still succeed byte-identically while the
	// failures count toward the breaker threshold.
	if s, got := postBatch(t, ts.URL, bodyB); s != http.StatusOK || !bytes.Equal(got, wantB) {
		t.Fatalf("post-kill cold batch: status %d, identical=%v", s, bytes.Equal(got, wantB))
	}

	// The breaker must open within the configured threshold. Keep
	// driving distinct cold lookups until /healthz reports the
	// transition; with threshold 3 and 3 cold items per batch, one or
	// two batches suffice.
	deadline := time.Now().Add(15 * time.Second)
	off := 100
	var health HealthResponse
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if health.Remote == nil {
			t.Fatal("healthz lost the remote block")
		}
		if health.Remote.Breaker == remotestore.BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", health.Remote)
		}
		if s, _ := postBatch(t, ts.URL, batchBody(t, asmBlock(off))); s != http.StatusOK {
			t.Fatalf("request during degradation failed: %d", s)
		}
		off++
	}
	if health.Remote.BreakerTrips == 0 || health.Remote.Errors == 0 {
		t.Fatalf("healthz transition accounting = %+v", health.Remote)
	}

	// With the breaker open, everything keeps working: warm requests are
	// byte-identical, cold requests compute locally, and the dead peer
	// costs nothing (short-circuits, no per-request timeout).
	if s, got := postBatch(t, ts.URL, bodyA); s != http.StatusOK || !bytes.Equal(got, wantA) {
		t.Fatalf("warm batch after breaker open: status %d, identical=%v", s, bytes.Equal(got, wantA))
	}
	start := time.Now()
	if s, _ := postBatch(t, ts.URL, batchBody(t, asmBlock(999))); s != http.StatusOK {
		t.Fatalf("cold batch after breaker open failed: %d", s)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("open breaker did not short-circuit: cold batch took %s", d)
	}
}

// standInPeer backs the real peer handlers with a local store directly —
// same code path as a replica, no pipeline globals — so the fault-rate
// suite can run peer and replica in one process.
func standInPeer(t *testing.T, dir string) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Schema: pipeline.StoreSchema()})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/{hash}", func(w http.ResponseWriter, r *http.Request) {
		servePeerGet(st, w, r)
	})
	mux.HandleFunc("PUT /v1/store/{hash}", func(w http.ResponseWriter, r *http.Request) {
		servePeerPut(st, DefaultMaxBodyBytes, w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, st
}

// TestFaultRatesByteIdentical runs the replica against a peer behind
// deterministic fault injection at 0%, 30%, and 100% fault rates. At
// every rate, every request must return 200 with bytes identical to the
// healthy baseline — fault injection may only move work between tiers.
func TestFaultRatesByteIdentical(t *testing.T) {
	peer, peerStore := standInPeer(t, t.TempDir())
	body := batchBody(t, asmBlock(31), asmBlock(32), asmBlock(33), asmBlock(34))

	// Healthy baseline: fresh local tiers, clean client; the run also
	// write-behind-populates the peer store so later rates have remote
	// entries to fetch (or fail to fetch).
	st0 := withPeerStore(t, t.TempDir())
	rc0, err := remotestore.New(remotestore.Options{BaseURL: peer.URL, Schema: pipeline.StoreSchema()})
	if err != nil {
		t.Fatal(err)
	}
	st0.SetRemote(rc0)
	ts0 := newTestServer(t)
	status, want := postBatch(t, ts0.URL, body)
	if status != http.StatusOK {
		t.Fatalf("baseline status = %d: %s", status, want)
	}
	rc0.Close() // drains the write-behind queue
	if entries, err := filepath.Glob(filepath.Join(peerStore.Dir(), "*", "*.json")); err != nil || len(entries) == 0 {
		t.Fatalf("peer store holds no entry on disk after write-behind (err=%v)", err)
	}

	for _, rate := range []float64{0, 0.3, 1.0} {
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			st := withPeerStore(t, t.TempDir())
			fi := faultinject.New(nil, faultinject.Config{Rate: rate, Seed: 42, MaxDelay: 5 * time.Millisecond})
			rc, err := remotestore.New(remotestore.Options{
				BaseURL:         peer.URL,
				Schema:          pipeline.StoreSchema(),
				Transport:       fi,
				Timeout:         time.Second,
				Retries:         2,
				BackoffBase:     time.Millisecond,
				BreakerCooldown: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rc.Close)
			st.SetRemote(rc)
			ts := newTestServer(t)

			// Several passes: the first is cold (remote consults under
			// fault), the rest warm — every response byte-identical.
			for pass := 0; pass < 3; pass++ {
				s, got := postBatch(t, ts.URL, body)
				if s != http.StatusOK {
					t.Fatalf("rate %v pass %d: status %d", rate, pass, s)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("rate %v pass %d: bytes differ from healthy baseline", rate, pass)
				}
			}
			cs := rc.Stats()
			sst := st.Stats()
			t.Logf("rate %v: client %+v, store remote_hits=%d remote_rejects=%d",
				rate, cs, sst.RemoteHits, sst.RemoteRejects)
			if rate == 0 {
				if cs.Errors != 0 || sst.RemoteHits == 0 {
					t.Errorf("rate 0: want clean remote hits, got client %+v store %+v", cs, sst)
				}
			}
			if sst.RemoteRejects != 0 {
				t.Errorf("rate %v: %d remote payloads passed client verification but failed decode",
					rate, sst.RemoteRejects)
			}
		})
	}
}
