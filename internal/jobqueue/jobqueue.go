// Package jobqueue is the durable submit→poll batch queue behind the
// serve tier's /v1/jobs API: a submitted job is a list of opaque request
// payloads drained item by item through a caller-supplied Runner by N
// workers, with every item outcome checkpointed to disk as it lands —
// the fetch→process→persist→dequeue loop, made restartable.
//
// Durability contract:
//
//   - One JSON file per job under the queue directory, wrapped in the
//     same schema-stamped envelope discipline as internal/store entries:
//     a record whose stamp, ID, or shape does not check out self-evicts
//     on load (deleted and counted), so a damaged queue directory
//     degrades to lost jobs, never to wrong results or a crash loop.
//   - Item completions are checkpointed eagerly (one atomic rewrite per
//     completion), so a SIGKILL loses at most the items in flight at
//     that instant. On reopen, completed items keep their results and
//     only unfinished items re-enter the pending pool.
//   - Items the queue re-runs after a restart route through whatever
//     caching the Runner sits on (the serve tier routes through the
//     pipeline memo + persistent store), so a resumed job's recomputed
//     items are warm hits, not recomputes — the per-job Warm/Cold
//     accounting is the test observable for that contract.
//
// Job identity is content-derived: the ID is the SHA-256 of the
// length-prefixed item payloads, so resubmitting the same batch (same
// canonical bytes) dedupes onto the existing job instead of queueing
// duplicate work.
package jobqueue

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// ItemState is the lifecycle of one job item.
type ItemState string

const (
	// ItemPending items await a worker (running items revert to pending
	// on restart or graceful shutdown — a checkpoint never claims work
	// that has not finished).
	ItemPending ItemState = "pending"
	// ItemRunning items are executing in a worker right now. The state
	// is in-memory only; on disk a running item is recorded as pending.
	ItemRunning ItemState = "running"
	// ItemDone items completed with a result.
	ItemDone ItemState = "done"
	// ItemError items completed with an error; one failed item never
	// vetoes its siblings (per-item isolation, as in /v1/batch).
	ItemError ItemState = "error"
	// ItemCancelled items were pending when their job was cancelled.
	ItemCancelled ItemState = "cancelled"
)

// JobState is the derived lifecycle of a whole job.
type JobState string

const (
	StatePending   JobState = "pending"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateCancelled JobState = "cancelled"
)

// Runner executes one item. It returns the result payload to persist,
// whether the result was served warm (from a cache tier, without fresh
// computation — the resume observable), and an error for a failed item.
// If the error implements interface{ Code() string }, the machine code
// is persisted alongside the message.
type Runner func(request json.RawMessage) (result json.RawMessage, warm bool, err error)

// Options configures Open.
type Options struct {
	// Dir is the durable root; empty selects a memory-only queue (jobs
	// die with the process — the API still works, nothing persists).
	Dir string
	// Schema stamps every record; records with any other stamp
	// self-evict on load. Bump it when the item request or result
	// payload encoding changes shape or meaning.
	Schema int
	// MaxJobs bounds the retained job count (0 selects 4096). Submit
	// refuses new jobs beyond the cap with ErrQueueFull: records are
	// durable, so unlike a cache nothing can be silently evicted to
	// make room.
	MaxJobs int
}

// ErrQueueFull is returned by Submit when MaxJobs records are retained.
var ErrQueueFull = errors.New("jobqueue: queue is full")

// ErrClosed is returned by Submit and Cancel after Close.
var ErrClosed = errors.New("jobqueue: queue is closed")

// ErrNotFound is returned by Cancel for an unknown job ID.
var ErrNotFound = errors.New("jobqueue: no such job")

// item is the internal per-item record.
type item struct {
	Request json.RawMessage `json:"request"`
	State   ItemState       `json:"state"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	Code    string          `json:"code,omitempty"`
	Warm    bool            `json:"warm,omitempty"`
}

// job is the internal record; the persisted form is wrapped in envelope.
type job struct {
	ID        string `json:"id"`
	Seq       uint64 `json:"seq"`
	Cancelled bool   `json:"cancelled"`
	Warm      int    `json:"warm"`
	Cold      int    `json:"cold"`
	Items     []item `json:"items"`
}

// state derives the job lifecycle from its items.
func (j *job) state() JobState {
	var pending, running, done, failed, cancelled int
	for i := range j.Items {
		switch j.Items[i].State {
		case ItemPending:
			pending++
		case ItemRunning:
			running++
		case ItemDone:
			done++
		case ItemError:
			failed++
		case ItemCancelled:
			cancelled++
		}
	}
	if pending == 0 && running == 0 {
		if cancelled > 0 {
			return StateCancelled
		}
		return StateCompleted
	}
	if running > 0 || done > 0 || failed > 0 {
		return StateRunning
	}
	return StatePending
}

// ItemView is the exported snapshot of one item.
type ItemView struct {
	Index  int             `json:"index"`
	State  ItemState       `json:"state"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Code   string          `json:"code,omitempty"`
	Warm   bool            `json:"warm,omitempty"`
}

// JobView is the exported snapshot of one job. Items is populated by Get
// and left nil by List.
type JobView struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
	Failed    int      `json:"failed"`
	Cancelled int      `json:"cancelled"`
	// Warm counts completed items served from a cache tier without
	// recomputation; Cold counts fresh computations. After a
	// kill-and-restart resume over a populated store, re-run items land
	// warm — Cold stays at what genuinely new work cost.
	Warm  int        `json:"warm"`
	Cold  int        `json:"cold"`
	Items []ItemView `json:"items,omitempty"`
}

// Stats is a point-in-time accounting snapshot for /healthz.
type Stats struct {
	// Jobs is the retained record count; Depth is the number of items
	// still awaiting a worker across all jobs (the queue backlog).
	Jobs  int `json:"jobs" help:"Retained job records."`
	Depth int `json:"depth" help:"Job items awaiting a worker."`
	// Per-state job counts.
	Pending   int `json:"pending" help:"Jobs in state pending."`
	Running   int `json:"running" help:"Jobs in state running."`
	Completed int `json:"completed" help:"Jobs in state completed."`
	Cancelled int `json:"cancelled" help:"Jobs in state cancelled."`
	// Evicted counts records self-evicted on load (stale stamp, damaged
	// file, ID mismatch); PersistErrors counts surrendered checkpoints —
	// writes that failed even after PersistRetried extra attempts (the
	// queue stays usable; a failed write costs durability, not
	// correctness).
	Evicted        uint64 `json:"evicted" help:"Job records self-evicted on load."`
	PersistErrors  uint64 `json:"persist_errors" help:"Surrendered job checkpoints."`
	PersistRetried uint64 `json:"persist_retried,omitempty" help:"Retried job checkpoint writes."`
	// LastPersistError and LastPersistAt pin the most recent surrendered
	// checkpoint — message and wall-clock time (RFC 3339) — so /healthz
	// shows not just that durability degraded but when and why. Empty
	// until a checkpoint fails.
	LastPersistError string `json:"last_persist_error,omitempty"`
	LastPersistAt    string `json:"last_persist_at,omitempty"`
}

// Queue is a durable batch job queue. All methods are safe for
// concurrent use.
type Queue struct {
	dir    string
	schema int
	maxJob int

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	order   []string // job IDs in submission order
	nextSeq uint64
	closed  bool

	run Runner
	wg  sync.WaitGroup

	evicted        uint64
	persistErrors  uint64
	persistRetried uint64
	lastPersistErr string
	lastPersistAt  time.Time
}

// Open loads every durable record under o.Dir (creating the directory
// if needed) and returns a queue ready for Start. Damaged or stale
// records are deleted and counted, never surfaced as errors.
func Open(o Options) (*Queue, error) {
	q := &Queue{
		dir:    o.Dir,
		schema: o.Schema,
		maxJob: o.MaxJobs,
		jobs:   map[string]*job{},
	}
	if q.maxJob <= 0 {
		q.maxJob = 4096
	}
	q.cond = sync.NewCond(&q.mu)
	if q.dir == "" {
		return q, nil
	}
	if err := os.MkdirAll(q.dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobqueue: %w", err)
	}
	if err := q.load(); err != nil {
		return nil, err
	}
	return q, nil
}

// Start launches workers draining pending items through run. Call it
// once, after Open; items loaded from disk resume immediately.
func (q *Queue) Start(workers int, run Runner) {
	if workers <= 0 {
		return
	}
	q.mu.Lock()
	q.run = run
	q.mu.Unlock()
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
}

// Close stops accepting work, waits for in-flight items to finish, and
// checkpoints every job (running items revert to pending so a later
// Open resumes them). Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range q.order {
		q.persistLocked(q.jobs[id])
	}
}

// IDFor returns the content-derived job ID for a batch of item
// payloads: the hex SHA-256 of the length-prefixed payload sequence.
// Identical canonical payloads in identical order always map to the
// same ID — that is the dedupe contract of Submit.
func IDFor(items []json.RawMessage) string {
	h := sha256.New()
	var n [8]byte
	for _, it := range items {
		binary.BigEndian.PutUint64(n[:], uint64(len(it)))
		h.Write(n[:])
		h.Write(it)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Submit enqueues a batch and returns its snapshot. Each payload is
// canonicalized (validated, compacted, HTML-escaped — exactly what
// encoding/json emits) before hashing and persisting, so the ID, the
// in-memory form, and the on-disk form always agree byte for byte and
// whitespace variants of one batch dedupe onto one job. Resubmitting
// identical content returns the existing job (created=false) — whatever
// its state — so duplicate submissions cannot queue duplicate work.
func (q *Queue) Submit(items []json.RawMessage) (JobView, bool, error) {
	if len(items) == 0 {
		return JobView{}, false, errors.New("jobqueue: empty job")
	}
	canon := make([]json.RawMessage, len(items))
	for i, raw := range items {
		c, err := json.Marshal(raw)
		if err != nil {
			return JobView{}, false, fmt.Errorf("jobqueue: item %d is not valid JSON: %w", i, err)
		}
		canon[i] = c
	}
	items = canon
	id := IDFor(items)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return JobView{}, false, ErrClosed
	}
	if j, ok := q.jobs[id]; ok {
		return q.viewLocked(j, true), false, nil
	}
	if len(q.jobs) >= q.maxJob {
		return JobView{}, false, ErrQueueFull
	}
	j := &job{ID: id, Seq: q.nextSeq, Items: make([]item, len(items))}
	q.nextSeq++
	for i, raw := range items {
		j.Items[i] = item{Request: raw, State: ItemPending}
	}
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.persistLocked(j)
	q.cond.Broadcast()
	return q.viewLocked(j, true), true, nil
}

// Get returns a deep snapshot of one job, items included.
func (q *Queue) Get(id string) (JobView, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return q.viewLocked(j, true), true
}

// List returns job summaries (no items) in submission order, optionally
// filtered to one derived state ("" matches all).
func (q *Queue) List(state JobState) []JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobView, 0, len(q.order))
	for _, id := range q.order {
		j := q.jobs[id]
		if state != "" && j.state() != state {
			continue
		}
		out = append(out, q.viewLocked(j, false))
	}
	return out
}

// Cancel marks a job cancelled: pending items move to cancelled and
// never run; items already running finish and record their outcome (the
// computation happened — discarding it would falsify the accounting).
// Cancelling a finished job is a no-op returning its current state.
func (q *Queue) Cancel(id string) (JobView, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return JobView{}, ErrClosed
	}
	j, ok := q.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	changed := false
	for i := range j.Items {
		if j.Items[i].State == ItemPending {
			j.Items[i].State = ItemCancelled
			changed = true
		}
	}
	if changed || !j.Cancelled {
		j.Cancelled = true
		q.persistLocked(j)
	}
	return q.viewLocked(j, true), nil
}

// Stats returns the current accounting.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Jobs: len(q.jobs), Evicted: q.evicted,
		PersistErrors: q.persistErrors, PersistRetried: q.persistRetried,
		LastPersistError: q.lastPersistErr,
	}
	if !q.lastPersistAt.IsZero() {
		st.LastPersistAt = q.lastPersistAt.UTC().Format(time.RFC3339Nano)
	}
	for _, j := range q.jobs {
		switch j.state() {
		case StatePending:
			st.Pending++
		case StateRunning:
			st.Running++
		case StateCompleted:
			st.Completed++
		case StateCancelled:
			st.Cancelled++
		}
		for i := range j.Items {
			if j.Items[i].State == ItemPending {
				st.Depth++
			}
		}
	}
	return st
}

// worker drains pending items until Close: fetch one, run it outside
// the lock, persist the outcome, repeat.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		var j *job
		idx := -1
		for {
			if q.closed {
				q.mu.Unlock()
				return
			}
			j, idx = q.nextPendingLocked()
			if j != nil {
				break
			}
			q.cond.Wait()
		}
		j.Items[idx].State = ItemRunning
		req := j.Items[idx].Request
		run := q.run
		q.mu.Unlock()

		res, warm, err := run(req)

		q.mu.Lock()
		it := &j.Items[idx]
		if err != nil {
			it.State = ItemError
			it.Error = err.Error()
			var coded interface{ Code() string }
			if errors.As(err, &coded) {
				it.Code = coded.Code()
			}
		} else {
			it.State = ItemDone
			it.Result = res
			it.Warm = warm
			// Warm/cold accounting covers successful items only: a
			// failed item computed nothing worth counting either way.
			if warm {
				j.Warm++
			} else {
				j.Cold++
			}
		}
		q.persistLocked(j)
		q.mu.Unlock()
	}
}

// nextPendingLocked scans jobs in submission order for the first
// pending item. Linear in total items; the queue targets thousands of
// items, not millions, and the scan runs only between item executions.
func (q *Queue) nextPendingLocked() (*job, int) {
	for _, id := range q.order {
		j := q.jobs[id]
		if j.Cancelled {
			continue
		}
		for i := range j.Items {
			if j.Items[i].State == ItemPending {
				return j, i
			}
		}
	}
	return nil, -1
}

// viewLocked snapshots a job. Result payloads are shared, not copied:
// once written they are immutable, exactly like store payloads.
func (q *Queue) viewLocked(j *job, withItems bool) JobView {
	v := JobView{ID: j.ID, State: j.state(), Total: len(j.Items), Warm: j.Warm, Cold: j.Cold}
	for i := range j.Items {
		switch j.Items[i].State {
		case ItemDone:
			v.Completed++
		case ItemError:
			v.Failed++
		case ItemCancelled:
			v.Cancelled++
		}
	}
	if withItems {
		v.Items = make([]ItemView, len(j.Items))
		for i := range j.Items {
			it := &j.Items[i]
			v.Items[i] = ItemView{
				Index: i, State: it.State, Result: it.Result,
				Error: it.Error, Code: it.Code, Warm: it.Warm,
			}
		}
	}
	return v
}

// sortJobsBySeq keeps List deterministic after reload, where directory
// iteration would otherwise scramble submission order.
func sortJobsBySeq(js []*job) {
	sort.Slice(js, func(a, b int) bool { return js[a].Seq < js[b].Seq })
}
