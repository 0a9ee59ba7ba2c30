package jobqueue

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"incore/internal/store"
)

// The durable layer: one file per job, <dir>/<id>.json, written
// atomically through store.WriteAtomic, like store entries, so
// a reader — including a restarted process — never observes a partial
// record. Records are wrapped in a version- and schema-stamped envelope;
// anything that fails the stamp, the ID cross-check, or decoding
// self-evicts on load exactly like a damaged store entry.

// jobEnvelopeVersion identifies the on-disk record layout itself,
// independent of the caller's payload schema.
const jobEnvelopeVersion = 1

// jobEnvelope is the on-disk record format. ID is stored redundantly
// with the filename so a renamed or copied record cannot impersonate a
// different job.
type jobEnvelope struct {
	V      int    `json:"v"`
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	Job    *job   `json:"job"`
}

// persistRetries and persistBackoff bound the checkpoint retry loop: a
// transient write failure (ENOSPC burst, a slow filesystem hiccup) gets
// a few quick re-attempts before the checkpoint is surrendered.
const (
	persistRetries = 2
	persistBackoff = 5 * time.Millisecond
)

// persistLocked checkpoints one job; q.mu must be held. Running items
// are recorded as pending — a checkpoint never claims unfinished work.
// Failed writes are retried with a short backoff (the lock is held, but
// the slow path runs only when the disk is already failing); a
// checkpoint that still cannot land is counted and recorded as the last
// persist error (surfaced on /healthz), not returned: a queue that
// cannot persist degrades to a memory-only queue, it does not stop
// serving.
func (q *Queue) persistLocked(j *job) {
	if q.dir == "" {
		return
	}
	disk := *j
	disk.Items = make([]item, len(j.Items))
	copy(disk.Items, j.Items)
	for i := range disk.Items {
		if disk.Items[i].State == ItemRunning {
			disk.Items[i].State = ItemPending
		}
	}
	data, err := json.Marshal(jobEnvelope{V: jobEnvelopeVersion, Schema: q.schema, ID: j.ID, Job: &disk})
	if err != nil {
		q.recordPersistFailure(err)
		return
	}
	path := filepath.Join(q.dir, j.ID+".json")
	for attempt := 0; ; attempt++ {
		err = store.WriteAtomic(path, data)
		if err == nil {
			return
		}
		if attempt >= persistRetries {
			break
		}
		q.persistRetried++
		time.Sleep(persistBackoff << uint(attempt))
	}
	q.recordPersistFailure(err)
}

// recordPersistFailure counts one surrendered checkpoint and pins its
// message and time for /healthz; q.mu must be held.
func (q *Queue) recordPersistFailure(err error) {
	q.persistErrors++
	q.lastPersistErr = err.Error()
	q.lastPersistAt = time.Now()
}

// load restores every record under q.dir, evicting damaged or stale
// files, and rebuilds submission order from the persisted sequence
// numbers. Only called from Open, before workers exist.
func (q *Queue) load() error {
	entries, err := os.ReadDir(q.dir)
	if err != nil {
		return err
	}
	var jobs []*job
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		// A leftover temp file marks a write torn by a kill between
		// CreateTemp and rename; the rename never happened, so the
		// record it was replacing is intact. Remove the debris.
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(q.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(q.dir, name)
		j, ok := q.decodeRecord(path, strings.TrimSuffix(name, ".json"))
		if !ok {
			os.Remove(path)
			q.evicted++
			continue
		}
		jobs = append(jobs, j)
	}
	sortJobsBySeq(jobs)
	for _, j := range jobs {
		// Items persisted mid-execution come back pending; the envelope
		// never stores "running", but a defensive reset keeps a
		// hand-edited record from wedging an item forever.
		for i := range j.Items {
			if j.Items[i].State == ItemRunning {
				j.Items[i].State = ItemPending
			}
		}
		q.jobs[j.ID] = j
		q.order = append(q.order, j.ID)
		if j.Seq >= q.nextSeq {
			q.nextSeq = j.Seq + 1
		}
	}
	return nil
}

// decodeRecord reads and validates one record file. A record is usable
// only if the envelope stamp, schema, and ID (envelope, filename, and
// recomputed content hash) all agree — the recomputed hash check means
// a record whose item payloads were tampered with or truncated cannot
// resurface under its original identity.
func (q *Queue) decodeRecord(path, wantID string) (*job, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var e jobEnvelope
	if err := json.Unmarshal(data, &e); err != nil ||
		e.V != jobEnvelopeVersion || e.Schema != q.schema ||
		e.Job == nil || e.ID != wantID || e.Job.ID != wantID {
		return nil, false
	}
	reqs := make([]json.RawMessage, len(e.Job.Items))
	for i := range e.Job.Items {
		if len(e.Job.Items[i].Request) == 0 || !validItemState(e.Job.Items[i].State) {
			return nil, false
		}
		reqs[i] = e.Job.Items[i].Request
	}
	if IDFor(reqs) != wantID {
		return nil, false
	}
	return e.Job, true
}

func validItemState(s ItemState) bool {
	switch s {
	case ItemPending, ItemRunning, ItemDone, ItemError, ItemCancelled:
		return true
	}
	return false
}
