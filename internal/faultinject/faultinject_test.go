package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Stats counts what a Transport injected, per kind plus a total of
// requests seen.
type Stats struct {
	Requests uint64
	Injected uint64
	Drops    uint64
	Delays   uint64
	Resets   uint64
	Truncats uint64
	Corrupts uint64
	Errors   uint64
}

// Stats returns the injection counts so far.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests: t.requests.Load(),
		Injected: t.injected.Load(),
		Drops:    t.perKind[KindDrop].Load(),
		Delays:   t.perKind[KindDelay].Load(),
		Resets:   t.perKind[KindReset].Load(),
		Truncats: t.perKind[KindTruncate].Load(),
		Corrupts: t.perKind[KindCorrupt].Load(),
		Errors:   t.perKind[KindError5xx].Load(),
	}
}

// newEchoServer returns a server answering every request with a fixed
// body, plus a client whose transport injects per cfg.
func newEchoServer(t *testing.T, body string, cfg Config) (*httptest.Server, *http.Client, *Transport) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	tr := New(nil, cfg)
	return ts, &http.Client{Transport: tr}, tr
}

// TestRateZeroIsTransparent pins the no-fault fast path: rate 0 never
// touches a request.
func TestRateZeroIsTransparent(t *testing.T) {
	ts, c, tr := newEchoServer(t, "hello", Config{Rate: 0, Seed: 1})
	for i := 0; i < 50; i++ {
		resp, err := c.Get(ts.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "hello" {
			t.Fatalf("request %d body = %q", i, body)
		}
	}
	if st := tr.Stats(); st.Injected != 0 || st.Requests != 50 {
		t.Fatalf("stats = %+v; want 50 requests, 0 injected", st)
	}
}

// TestRateOneFaultsEverything: at rate 1 every request is faulted, and
// every fault kind eventually appears.
func TestRateOneFaultsEverything(t *testing.T) {
	ts, c, tr := newEchoServer(t, strings.Repeat("payload", 10),
		Config{Rate: 1, Seed: 42, MaxDelay: time.Millisecond})
	for i := 0; i < 120; i++ {
		resp, err := c.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
	}
	st := tr.Stats()
	if st.Injected != 120 {
		t.Fatalf("injected = %d of %d; rate 1 must fault every request", st.Injected, st.Requests)
	}
	for name, n := range map[string]uint64{
		"drops": st.Drops, "delays": st.Delays, "resets": st.Resets,
		"truncations": st.Truncats, "corruptions": st.Corrupts, "error5xx": st.Errors,
	} {
		if n == 0 {
			t.Errorf("no %s in 120 faulted requests (stats %+v)", name, st)
		}
	}
}

// TestDeterministicSequence: same seed + same request sequence = same
// fault sequence, observed through the per-kind counters and the
// per-request outcomes.
func TestDeterministicSequence(t *testing.T) {
	run := func() ([]string, Stats) {
		ts, c, tr := newEchoServer(t, "determinism", Config{Rate: 0.7, Seed: 7, MaxDelay: time.Millisecond})
		var outcomes []string
		for i := 0; i < 60; i++ {
			resp, err := c.Get(ts.URL)
			switch {
			case err != nil:
				outcomes = append(outcomes, "err")
			default:
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode != http.StatusOK:
					outcomes = append(outcomes, "5xx")
				case rerr != nil || string(body) != "determinism":
					outcomes = append(outcomes, "mangled")
				default:
					outcomes = append(outcomes, "ok")
				}
			}
		}
		return outcomes, tr.Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("stats diverge across identical runs:\n%+v\n%+v", sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d diverges: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestDropIsInjectedError: drops carry ErrInjected so tests can tell
// fabricated faults from real transport failures.
func TestDropIsInjectedError(t *testing.T) {
	ts, c, _ := newEchoServer(t, "x", Config{Rate: 1, Seed: 3, Kinds: []Kind{KindDrop}})
	_, err := c.Get(ts.URL)
	if err == nil {
		t.Fatal("drop produced no error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped request error %v does not wrap ErrInjected", err)
	}
}

// TestTruncateShortensBody: a truncated response never delivers the full
// payload (the client sees a short read against Content-Length).
func TestTruncateShortensBody(t *testing.T) {
	full := strings.Repeat("0123456789", 20)
	ts, c, _ := newEchoServer(t, full, Config{Rate: 1, Seed: 11, Kinds: []Kind{KindTruncate}})
	sawShort := false
	for i := 0; i < 20; i++ {
		resp, err := c.Get(ts.URL)
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) < len(full) || rerr != nil {
			sawShort = true
		}
		if len(body) > len(full) {
			t.Fatalf("truncation grew the body: %d > %d", len(body), len(full))
		}
	}
	if !sawShort {
		t.Fatal("20 truncated responses all delivered the full body")
	}
}

// TestCorruptFlipsExactlyOneByte: a corrupted response has the original
// length and differs in exactly one position.
func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	full := strings.Repeat("abcdefgh", 16)
	ts, c, _ := newEchoServer(t, full, Config{Rate: 1, Seed: 13, Kinds: []Kind{KindCorrupt}})
	for i := 0; i < 10; i++ {
		resp, err := c.Get(ts.URL)
		if err != nil {
			t.Fatalf("corrupt request %d failed outright: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) != len(full) {
			t.Fatalf("corruption changed length: %d != %d", len(body), len(full))
		}
		diffs := 0
		for j := range body {
			if body[j] != full[j] {
				diffs++
			}
		}
		if diffs != 1 {
			t.Fatalf("corruption flipped %d bytes; want exactly 1", diffs)
		}
	}
}

// TestDelayRespectsContextCancel: a delayed request aborts promptly when
// its context is cancelled instead of sleeping out the full pause.
func TestDelayRespectsContextCancel(t *testing.T) {
	ts, _, tr := newEchoServer(t, "x", Config{Rate: 1, Seed: 5, Kinds: []Kind{KindDelay}, MaxDelay: 10 * time.Second})
	c := &http.Client{Transport: tr, Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := c.Get(ts.URL)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled delay still slept %s", elapsed)
	}
}
