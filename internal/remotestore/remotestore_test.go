package remotestore

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"incore/internal/faultinject"
	"incore/internal/store"
)

// fakePeer is a minimal in-memory /v1/store peer: GET serves stored wire
// bodies verbatim (so tests can plant damaged ones), PUT stores them.
type fakePeer struct {
	mu      sync.Mutex
	entries map[string][]byte // hash → wire body
	gets    int
	puts    int
	// failNext forces the next N GETs to 500 (transient-failure tests).
	failNext int
}

func newFakePeer() *fakePeer {
	return &fakePeer{entries: map[string][]byte{}}
}

func (p *fakePeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/v1/store/")
	p.mu.Lock()
	defer p.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		p.gets++
		if p.failNext > 0 {
			p.failNext--
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		body, ok := p.entries[hash]
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Write(body)
	case http.MethodPut:
		p.puts++
		body, _ := io.ReadAll(r.Body)
		p.entries[hash] = body
		w.WriteHeader(http.StatusNoContent)
	}
}

func (p *fakePeer) plant(t *testing.T, schema int, key string, payload []byte) {
	t.Helper()
	body, err := EncodeEntry(schema, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.entries[store.KeyHash(key)] = body
	p.mu.Unlock()
}

func (p *fakePeer) getCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets
}

func newClient(t *testing.T, url string, o Options) *Client {
	t.Helper()
	o.BaseURL = url
	if o.Schema == 0 {
		o.Schema = 7
	}
	if o.Timeout == 0 {
		o.Timeout = time.Second
	}
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestGetPutRoundTrip(t *testing.T) {
	peer := newFakePeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()
	c := newClient(t, ts.URL, Options{})

	key, payload := "analyze\x00deadbeef\x00block", []byte("result bytes")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty peer")
	}
	c.Put(key, payload)
	c.Close() // drains the write-behind queue; Get keeps working
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Breaker != BreakerClosed {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMissIsNotAFailure(t *testing.T) {
	peer := newFakePeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()
	c := newClient(t, ts.URL, Options{Retries: 3, BreakerThreshold: 2})

	// Many misses in a row: the peer answers healthily, so no retries
	// fire and the breaker stays closed.
	for i := 0; i < 10; i++ {
		if _, ok := c.Get("missing"); ok {
			t.Fatal("phantom hit")
		}
	}
	st := c.Stats()
	if st.Retries != 0 || st.Breaker != BreakerClosed || st.Errors != 0 {
		t.Fatalf("stats after clean misses = %+v", st)
	}
	if peer.getCount() != 10 {
		t.Fatalf("peer saw %d gets, want 10 (no retries on 404)", peer.getCount())
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	peer := newFakePeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()
	c := newClient(t, ts.URL, Options{Retries: 2, BackoffBase: time.Millisecond})

	key, payload := "k", []byte("v")
	peer.plant(t, 7, key, payload)
	peer.mu.Lock()
	peer.failNext = 2
	peer.mu.Unlock()

	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("retried get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Hits != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v; want 2 retries then a hit", st)
	}
}

func TestVerifyRejectsDamage(t *testing.T) {
	peer := newFakePeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()
	c := newClient(t, ts.URL, Options{Retries: -1})

	key, payload := "damaged", []byte("the true payload")
	good, err := EncodeEntry(7, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the base64 payload field.
	corrupted := bytes.Clone(good)
	at := bytes.Index(corrupted, []byte(`"payload":"`)) + len(`"payload":"`)
	corrupted[at] ^= 0x01
	cases := map[string][]byte{
		"truncated":     good[:len(good)/2],
		"corrupted":     corrupted,
		"not json":      []byte("garbage"),
		"wrong version": mustEncodeV(t, 99, 7, key, payload),
		"wrong schema":  mustEncode(t, 8, key, payload),
		"wrong key":     mustEncode(t, 7, "other", payload),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			peer.mu.Lock()
			peer.entries[store.KeyHash(key)] = body
			peer.mu.Unlock()
			if got, ok := c.Get(key); ok {
				t.Fatalf("damaged entry surfaced: %q", got)
			}
		})
	}
	if st := c.Stats(); st.VerifyFailures == 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v; want verify failures, zero hits", st)
	}
}

func mustEncode(t *testing.T, schema int, key string, payload []byte) []byte {
	t.Helper()
	b, err := EncodeEntry(schema, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustEncodeV(t *testing.T, v, schema int, key string, payload []byte) []byte {
	t.Helper()
	b := mustEncode(t, schema, key, payload)
	return bytes.Replace(b, []byte(`"v":1`), []byte(`"v":99`), 1)
}

// TestBreakerOpensAndRecovers pins the breaker lifecycle end to end:
// consecutive failures open it within the threshold, open short-circuits
// without network traffic, a half-open probe after the cooldown closes
// it again once the peer recovers.
func TestBreakerOpensAndRecovers(t *testing.T) {
	peer := newFakePeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()
	c := newClient(t, ts.URL, Options{
		Retries:          -1,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Timeout:          200 * time.Millisecond,
	})
	key, payload := "k", []byte("v")
	peer.plant(t, 7, key, payload)

	// Kill the peer abruptly: close the listener so connections refuse.
	ts.CloseClientConnections()
	ts.Close()
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(key); ok {
			t.Fatal("hit from a dead peer")
		}
	}
	st := c.Stats()
	if st.Breaker != BreakerOpen || st.BreakerTrips != 1 {
		t.Fatalf("breaker after %d failures = %+v; want open after threshold 3", 3, st)
	}

	// Open: lookups short-circuit without touching the network.
	before := st.Errors
	for i := 0; i < 5; i++ {
		c.Get(key)
	}
	st = c.Stats()
	if st.Errors != before || st.ShortCircuits < 5 {
		t.Fatalf("open breaker still hit the network: %+v", st)
	}

	// Resurrect the peer on the same address space (new server, repoint
	// is not possible — so verify half-open against a fresh server).
	ts2 := httptest.NewServer(peer)
	defer ts2.Close()
	c2 := newClient(t, ts2.URL, Options{
		Retries: -1, BreakerThreshold: 1, BreakerCooldown: 30 * time.Millisecond,
		Timeout: 200 * time.Millisecond,
	})
	// One forced transient failure trips the threshold-1 breaker.
	peer.mu.Lock()
	peer.failNext = 1
	peer.mu.Unlock()
	if _, ok := c2.Get(key); ok {
		t.Fatal("expected transient failure")
	}
	if st := c2.Stats(); st.Breaker != BreakerOpen {
		t.Fatalf("threshold-1 breaker not open: %+v", st)
	}
	time.Sleep(40 * time.Millisecond)
	// Cooldown elapsed: the next get is the half-open probe and the peer
	// is healthy again, so it closes the breaker with a hit.
	got, ok := c2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("half-open probe = %q, %v", got, ok)
	}
	if st := c2.Stats(); st.Breaker != BreakerClosed {
		t.Fatalf("breaker after successful probe = %+v; want closed", st)
	}
}

// TestNeverCorrupt is the verify-on-fetch contract under full chaos:
// at 100% fault rate across every fault kind, Get either returns the
// exact planted payload or a miss — never a wrong byte.
func TestNeverCorrupt(t *testing.T) {
	peer := newFakePeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()

	key, payload := "chaos-key", bytes.Repeat([]byte("precise bytes "), 64)
	peer.plant(t, 7, key, payload)

	for _, rate := range []float64{0.3, 1.0} {
		fi := faultinject.New(nil, faultinject.Config{Rate: rate, Seed: 1234, MaxDelay: 2 * time.Millisecond})
		c := newClient(t, ts.URL, Options{
			Transport: fi, Retries: 1, BackoffBase: time.Millisecond,
			BreakerThreshold: 5, BreakerCooldown: 10 * time.Millisecond,
			Timeout: 500 * time.Millisecond,
		})
		hits := 0
		for i := 0; i < 150; i++ {
			got, ok := c.Get(key)
			if ok {
				hits++
				if !bytes.Equal(got, payload) {
					t.Fatalf("rate %.1f: corrupted payload surfaced at lookup %d", rate, i)
				}
			}
		}
		st := c.Stats()
		t.Logf("rate %.1f: %d/150 verified hits, stats %+v", rate, hits, st)
		if rate < 1 && hits == 0 {
			t.Errorf("rate %.1f: no lookup ever succeeded", rate)
		}
		c.Close()
	}
}

// TestPutQueueOverflowDrops: a jammed write-behind queue sheds load
// instead of blocking the caller.
func TestPutQueueOverflowDrops(t *testing.T) {
	// A peer that never answers, so queued puts wedge in workers.
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer ts.Close()
	defer close(stall)
	c := newClient(t, ts.URL, Options{PutQueue: 2, PutWorkers: 1, Timeout: 5 * time.Second})

	start := time.Now()
	for i := 0; i < 50; i++ {
		c.Put("k", []byte("v"))
	}
	if time.Since(start) > time.Second {
		t.Fatal("Put blocked on a stalled peer")
	}
	if st := c.Stats(); st.PutsDropped == 0 {
		t.Fatalf("no drops recorded on an overflowing queue: %+v", st)
	}
}

func TestValidHash(t *testing.T) {
	if !ValidHash(store.KeyHash("anything")) {
		t.Fatal("KeyHash output rejected")
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64),
		strings.Repeat("a", 63), strings.Repeat("a", 65), "../" + strings.Repeat("a", 61)} {
		if ValidHash(bad) {
			t.Errorf("ValidHash(%q) accepted", bad)
		}
	}
}
