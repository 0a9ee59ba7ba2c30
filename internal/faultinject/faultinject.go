// Package faultinject is the chaos harness behind the remote-store
// robustness contract: a deterministic (seeded) http.RoundTripper wrapper
// that injects network faults — connection drops, delays, mid-body
// resets, response truncation, payload bit corruption, and 5xx error
// bursts — at a configured rate, so a test or a CI chaos gate can prove
// that a flaky, slow, or hostile peer can never fail, slow down
// unboundedly, or corrupt an analysis.
//
// Determinism contract: the fault sequence is a pure function of the
// seed and the request order. Two runs with the same seed and the same
// serialized request sequence inject exactly the same faults, so a chaos
// failure reproduces. (Concurrent requests draw from one locked PRNG, so
// across goroutines only the aggregate rate is deterministic, not the
// per-request assignment — the invariants under test, byte-identical
// output and zero request failures, hold under any assignment.)
//
// The wrapper sits client-side, between the remote-store client and the
// wire, which is where every fault a hostile network can produce is
// visible: a server-side injector could not model a dropped SYN or a
// payload corrupted in transit.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// KindDrop fails the request before it reaches the wire, like a
	// refused or timed-out connection.
	KindDrop Kind = iota
	// KindDelay forwards the request after a bounded pause, like a
	// congested or GC-pausing peer. The request otherwise succeeds —
	// a delay must cost latency, never correctness.
	KindDelay
	// KindReset forwards the request, then discards the response and
	// reports a connection-reset error, like a peer dying mid-response.
	KindReset
	// KindTruncate forwards the request and cuts the response body
	// short, like a torn transfer. Headers (including Content-Length)
	// are preserved, so the client sees an unexpected EOF or a
	// short, hash-mismatched payload.
	KindTruncate
	// KindCorrupt forwards the request and flips one byte of the
	// response body, like bit rot on a hostile or broken middlebox.
	KindCorrupt
	// KindError5xx synthesizes a 500/503 response without forwarding,
	// like an overloaded or crashing peer.
	KindError5xx

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindReset:
		return "reset"
	case KindTruncate:
		return "truncate"
	case KindCorrupt:
		return "corrupt"
	case KindError5xx:
		return "error5xx"
	}
	return "unknown"
}

// ErrInjected marks every failure this package fabricates, so a test can
// tell an injected fault from a real transport failure.
var ErrInjected = errors.New("faultinject: injected fault")

// Config selects what to inject.
type Config struct {
	// Rate is the probability in [0,1] that a request is faulted at
	// all; a faulted request draws one fault kind uniformly from Kinds.
	Rate float64
	// Seed fixes the PRNG; equal seeds + equal request sequences inject
	// equal fault sequences.
	Seed int64
	// Kinds restricts which faults are drawn (empty = all).
	Kinds []Kind
	// MaxDelay bounds a KindDelay pause (0 selects 50ms). Delays are
	// drawn uniformly in (0, MaxDelay].
	MaxDelay time.Duration
}

// Transport is the injecting http.RoundTripper. Safe for concurrent use.
type Transport struct {
	inner http.RoundTripper
	cfg   Config
	kinds []Kind

	mu  sync.Mutex
	rng *rand.Rand

	requests atomic.Uint64
	injected atomic.Uint64
	perKind  [numKinds]atomic.Uint64
}

// New wraps inner (nil selects http.DefaultTransport) with fault
// injection per cfg.
func New(inner http.RoundTripper, cfg Config) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindDrop, KindDelay, KindReset, KindTruncate, KindCorrupt, KindError5xx}
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	return &Transport{
		inner: inner,
		cfg:   cfg,
		kinds: kinds,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// decision is one request's drawn fault plan; all randomness is drawn up
// front under the lock so the injection itself runs lock-free.
type decision struct {
	inject bool
	kind   Kind
	delay  time.Duration
	// frac in [0,1) positions a truncation cut or a corrupted byte
	// within the response body.
	frac float64
	// flip is XORed into the corrupted byte; drawn in [1,255] so the
	// byte always actually changes.
	flip byte
	// status picks the synthesized 5xx.
	status int
}

func (t *Transport) decide() decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d decision
	if t.rng.Float64() >= t.cfg.Rate {
		return d
	}
	d.inject = true
	d.kind = t.kinds[t.rng.Intn(len(t.kinds))]
	d.delay = time.Duration(1 + t.rng.Int63n(int64(t.cfg.MaxDelay)))
	d.frac = t.rng.Float64()
	d.flip = byte(1 + t.rng.Intn(255))
	if t.rng.Intn(2) == 0 {
		d.status = http.StatusInternalServerError
	} else {
		d.status = http.StatusServiceUnavailable
	}
	return d
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	d := t.decide()
	if !d.inject {
		return t.inner.RoundTrip(req)
	}
	t.injected.Add(1)
	t.perKind[d.kind].Add(1)

	switch d.kind {
	case KindDrop:
		// The request never reaches the wire; the body (if any) must
		// still be closed per the RoundTripper contract.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: connection dropped", ErrInjected)

	case KindDelay:
		timer := time.NewTimer(d.delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
		return t.inner.RoundTrip(req)

	case KindError5xx:
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     strconv.Itoa(d.status) + " " + http.StatusText(d.status),
			StatusCode: d.status,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain"}},
			Body:       io.NopCloser(bytes.NewReader([]byte("injected error burst"))),
			Request:    req,
		}, nil
	}

	// The remaining faults need a real response to mangle.
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch d.kind {
	case KindReset:
		resp.Body.Close()
		return nil, fmt.Errorf("%w: connection reset by peer", ErrInjected)

	case KindTruncate:
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		cut := int(d.frac * float64(len(body)))
		resp.Body = io.NopCloser(bytes.NewReader(body[:cut]))
		// Content-Length still promises the full body: the client sees
		// an unexpected EOF, exactly like a torn transfer.
		return resp, nil

	case KindCorrupt:
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(body) > 0 {
			body[int(d.frac*float64(len(body)))] ^= d.flip
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		return resp, nil
	}
	return resp, nil
}
