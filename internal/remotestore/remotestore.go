// Package remotestore is the third store tier: an HTTP client for a
// peer replica's /v1/store/{key} endpoints, wrapped in the fault
// tolerance that makes a shared remote cache safe to depend on — which
// is to say, safe to lose. The peer is strictly an optimization: every
// failure mode (slow, flaky, dead, lying) degrades to a local cache
// miss, never to an error, a stall on the request path, or a wrong byte.
//
// The layers, outermost first:
//
//   - Circuit breaker (breaker.go): after Threshold consecutive failed
//     operations the breaker opens and lookups short-circuit to local
//     misses without touching the network; after Cooldown one probe is
//     admitted half-open, and its outcome closes or re-opens the
//     breaker. A SIGKILLed peer costs one bounded burst of timeouts,
//     then zero added latency.
//   - Bounded retries with exponential backoff + jitter — on GETs only.
//     GET of a content-addressed immutable entry is idempotent by
//     construction; PUTs are best-effort write-behind and never retried
//     (losing one costs a future cold lookup on the peer, nothing else).
//   - Per-attempt timeouts, so one hung connection cannot wedge a
//     worker.
//   - Verify-on-fetch (wire.go): every fetched entry must carry the
//     addressed key and a payload matching its SHA-256, so truncation
//     and corruption are discarded and counted, exactly like damaged
//     disk entries.
//   - Async write-behind: Put enqueues to a bounded queue drained by
//     background workers; when the queue is full the entry is dropped
//     and counted. Remote latency never sits on a request path.
package remotestore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incore/internal/store"
)

// Defaults; see Options.
const (
	DefaultTimeout          = 2 * time.Second
	DefaultRetries          = 2
	DefaultBackoffBase      = 25 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
	DefaultPutQueue         = 256
	DefaultPutWorkers       = 2
	// maxEntryBytes bounds one fetched entry; a peer advertising more is
	// treated as hostile (the verify chain would reject it anyway, this
	// just refuses to buffer it).
	maxEntryBytes = 64 << 20
)

// Options configures New.
type Options struct {
	// BaseURL locates the peer, e.g. "http://replica-2:8080"; the client
	// appends /v1/store/{hash}.
	BaseURL string
	// Schema is the payload schema both peers stamp entries with
	// (pipeline.StoreSchema() in the serving stack); entries with any
	// other stamp are rejected on fetch.
	Schema int
	// Timeout bounds each attempt (0 selects 2s).
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed GET
	// (0 selects 2; negative disables retries).
	Retries int
	// BackoffBase scales the exponential backoff between GET attempts
	// (0 selects 25ms); attempt n waits ~BackoffBase·2ⁿ, jittered ±50%.
	BackoffBase time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (0 selects 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a half-open probe (0 selects 5s).
	BreakerCooldown time.Duration
	// PutQueue bounds the write-behind queue (0 selects 256); Puts
	// beyond it are dropped and counted.
	PutQueue int
	// PutWorkers drains the write-behind queue (0 selects 2).
	PutWorkers int
	// Transport overrides the HTTP transport (nil selects
	// http.DefaultTransport). The fault-injection harness hooks in here.
	Transport http.RoundTripper
}

// Stats is a point-in-time snapshot of the remote tier's accounting,
// including the breaker state — the /healthz observable for the
// degradation contract.
type Stats struct {
	// Gets counts lookups reaching this client; Hits were fetched and
	// verified, Misses are healthy peer 404s, Errors are lookups that
	// exhausted retries (network, 5xx, or verification failures).
	Gets   uint64 `json:"gets" help:"Remote peer lookups."`
	Hits   uint64 `json:"hits" help:"Remote peer hits."`
	Misses uint64 `json:"misses" help:"Remote peer healthy misses."`
	Errors uint64 `json:"errors" help:"Remote lookups that exhausted retries."`
	// VerifyFailures counts fetched entries discarded by the
	// verification chain (subset of attempts; a lookup may retry past
	// one and still hit).
	VerifyFailures uint64 `json:"verify_failures" help:"Remote entries discarded by verification."`
	// Retries counts extra GET attempts beyond the first.
	Retries uint64 `json:"retries" help:"Extra remote GET attempts."`
	// ShortCircuits counts operations answered locally because the
	// breaker was open.
	ShortCircuits uint64 `json:"short_circuits" help:"Operations answered locally by the open breaker."`
	// Puts counts write-behind successes; PutErrors failed attempts;
	// PutsDropped entries discarded because the queue was full or the
	// breaker open.
	Puts        uint64 `json:"puts" help:"Write-behind successes."`
	PutErrors   uint64 `json:"put_errors" help:"Write-behind failures."`
	PutsDropped uint64 `json:"puts_dropped" help:"Write-behind entries dropped."`
	// Breaker is the current state; BreakerTrips counts closed→open and
	// half-open→open transitions.
	Breaker      BreakerState `json:"breaker" help:"Circuit-breaker state (1 on the active state)."`
	BreakerTrips uint64       `json:"breaker_trips" help:"Breaker transitions to open."`
}

// Client is a fault-tolerant peer store client. It satisfies
// store.Remote. Safe for concurrent use.
type Client struct {
	base    string
	schema  int
	timeout time.Duration
	retries int
	backoff time.Duration
	http    *http.Client
	br      *breaker

	gets, hits, misses, errs  atomic.Uint64
	verifyFails, retriesCount atomic.Uint64
	shortCircuits             atomic.Uint64
	puts, putErrs, putDropped atomic.Uint64

	putMu  sync.Mutex
	putCh  chan putEntry
	closed bool
	wg     sync.WaitGroup
}

type putEntry struct {
	key     string
	payload []byte
}

// New validates the peer URL and starts the write-behind workers.
func New(o Options) (*Client, error) {
	u, err := url.Parse(o.BaseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("remotestore: invalid peer URL %q", o.BaseURL)
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Retries == 0 {
		o.Retries = DefaultRetries
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.PutQueue <= 0 {
		o.PutQueue = DefaultPutQueue
	}
	if o.PutWorkers <= 0 {
		o.PutWorkers = DefaultPutWorkers
	}
	transport := o.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		schema:  o.Schema,
		timeout: o.Timeout,
		retries: o.Retries,
		backoff: o.BackoffBase,
		http:    &http.Client{Transport: transport},
		br:      newBreaker(o.BreakerThreshold, o.BreakerCooldown),
		putCh:   make(chan putEntry, o.PutQueue),
	}
	for i := 0; i < o.PutWorkers; i++ {
		c.wg.Add(1)
		go c.putWorker()
	}
	return c, nil
}

// BaseURL returns the peer endpoint this client talks to.
func (c *Client) BaseURL() string { return c.base }

// Get fetches and verifies one entry from the peer. Every failure mode —
// breaker open, timeouts, retries exhausted, verification failure —
// reports a miss; the caller computes locally and the accounting records
// why.
func (c *Client) Get(key string) ([]byte, bool) {
	c.gets.Add(1)
	if !c.br.allow() {
		c.shortCircuits.Add(1)
		return nil, false
	}
	hash := store.KeyHash(key)
	for attempt := 0; ; attempt++ {
		payload, found, retryable := c.get1(hash, key)
		if found {
			c.br.record(true)
			c.hits.Add(1)
			return payload, true
		}
		if !retryable {
			// A clean 404: the peer answered authoritatively, the entry
			// does not exist. That is a healthy outcome.
			c.br.record(true)
			c.misses.Add(1)
			return nil, false
		}
		if attempt >= c.retries {
			break
		}
		c.retriesCount.Add(1)
		c.sleepBackoff(attempt)
	}
	c.br.record(false)
	c.errs.Add(1)
	return nil, false
}

// sleepBackoff waits ~backoff·2ᵃᵗᵗᵉᵐᵖᵗ jittered to [50%,150%], so a herd
// of replicas retrying against one struggling peer decorrelates.
func (c *Client) sleepBackoff(attempt int) {
	d := c.backoff << uint(attempt)
	jitter := 0.5 + rand.Float64()
	time.Sleep(time.Duration(float64(d) * jitter))
}

// get1 is one GET attempt: (payload, found, retryable). found=false with
// retryable=false is an authoritative miss; retryable=true covers
// transport errors, non-404 statuses, and verification failures.
func (c *Client) get1(hash, key string) ([]byte, bool, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/store/"+hash, nil)
	if err != nil {
		return nil, false, true
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, true
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false, false
	case resp.StatusCode != http.StatusOK:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false, true
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil || len(data) > maxEntryBytes {
		return nil, false, true
	}
	gotKey, payload, err := DecodeVerify(data, hash, c.schema)
	if err != nil || gotKey != key {
		// Truncated, corrupted, stale-schema, or substituted entry:
		// discarded and counted, exactly like a damaged disk entry.
		c.verifyFails.Add(1)
		return nil, false, true
	}
	return payload, true, false
}

// Put enqueues one entry for best-effort write-behind; it never blocks.
// A full queue or a closed client drops the entry (counted) — the peer
// misses a warm entry, nothing else happens.
func (c *Client) Put(key string, payload []byte) {
	c.putMu.Lock()
	defer c.putMu.Unlock()
	if c.closed {
		c.putDropped.Add(1)
		return
	}
	select {
	case c.putCh <- putEntry{key: key, payload: payload}:
	default:
		c.putDropped.Add(1)
	}
}

// putWorker drains the write-behind queue. Each PUT is breaker-gated and
// single-attempt: write-behind to a struggling peer should shed load,
// not add retries to it.
func (c *Client) putWorker() {
	defer c.wg.Done()
	for e := range c.putCh {
		if !c.br.allow() {
			c.shortCircuits.Add(1)
			c.putDropped.Add(1)
			continue
		}
		err := c.put1(e)
		c.br.record(err == nil)
		if err != nil {
			c.putErrs.Add(1)
		} else {
			c.puts.Add(1)
		}
	}
}

func (c *Client) put1(e putEntry) error {
	body, err := EncodeEntry(c.schema, e.key, e.payload)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.base+"/v1/store/"+store.KeyHash(e.key), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return errors.New("remotestore: put rejected: " + resp.Status)
	}
	return nil
}

// Close stops the write-behind workers after draining queued entries.
// Later Puts are dropped and counted; Get keeps working (a closing
// server may still serve a last request). Idempotent.
func (c *Client) Close() {
	c.putMu.Lock()
	if c.closed {
		c.putMu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	close(c.putCh)
	c.putMu.Unlock()
	c.wg.Wait()
}

// Stats returns the current accounting plus breaker state.
func (c *Client) Stats() Stats {
	state, trips := c.br.snapshot()
	return Stats{
		Gets:           c.gets.Load(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Errors:         c.errs.Load(),
		VerifyFailures: c.verifyFails.Load(),
		Retries:        c.retriesCount.Load(),
		ShortCircuits:  c.shortCircuits.Load(),
		Puts:           c.puts.Load(),
		PutErrors:      c.putErrs.Load(),
		PutsDropped:    c.putDropped.Load(),
		Breaker:        state,
		BreakerTrips:   trips,
	}
}
