package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"incore/internal/jobqueue"
	"incore/internal/pipeline"
)

// The durable async job surface: /v1/batch's submit→wait→answer becomes
// submit→poll, so a suite-sized batch neither holds a connection open
// for the whole run nor dies with the process. Jobs carry the same item
// schema as /v1/batch and route each item through the same bounded
// analysis path (body/instruction caps, analysis deadline, pipeline
// memo + persistent store), so a served job, an interactive batch, and
// batch reproduction share one cache and one determinism contract —
// and a job resumed after a restart finds its already-stored items
// warm instead of recomputing them.

// jobsPayloadVersion stamps persisted job records. It covers the
// request and result encodings embedded in a record (AnalyzeRequest and
// AnalyzeResponse JSON); pipeline.StoreSchema() is folded in below so
// an analyzer-visible schema bump self-evicts stale job records exactly
// like stale store entries.
const jobsPayloadVersion = 1

// jobsSchema is the record schema the serve tier stamps job files with.
func jobsSchema() int {
	return jobsPayloadVersion*100000 + pipeline.StoreSchema()
}

// maxJobItems bounds one job's item count; the request body cap already
// bounds total bytes, this bounds per-item bookkeeping.
const maxJobItems = 4096

// JobSubmitResponse is the 202 (created) or 200 (deduplicated) answer
// to POST /v1/jobs.
type JobSubmitResponse struct {
	// ID is content-derived (SHA-256 of the canonical request items):
	// submitting the same batch twice returns the same ID.
	ID     string            `json:"id"`
	Status jobqueue.JobState `json:"status"`
	Total  int               `json:"total"`
	// Created is false when an identical job already existed and the
	// submission deduplicated onto it.
	Created bool `json:"created"`
}

// JobListResponse is the answer to GET /v1/jobs.
type JobListResponse struct {
	Jobs  []jobqueue.JobView `json:"jobs"`
	Total int                `json:"total"`
}

// handleSubmitJob enqueues a batch for asynchronous execution. Items
// are canonicalized through their decoded form, so two submissions that
// differ only in JSON whitespace or key order dedupe onto one job.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, r, apiErrorf(CodeInvalidRequest, http.StatusBadRequest, "job has no requests"))
		return
	}
	if len(req.Requests) > maxJobItems {
		writeError(w, r, apiErrorf(CodeInvalidRequest, http.StatusBadRequest,
			"job has %d items, limit is %d", len(req.Requests), maxJobItems))
		return
	}
	items := make([]json.RawMessage, len(req.Requests))
	for i := range req.Requests {
		data, err := json.Marshal(req.Requests[i])
		if err != nil {
			writeError(w, r, wrapAPIError(CodeInvalidRequest, http.StatusBadRequest, err))
			return
		}
		items[i] = data
	}
	view, created, err := s.jobs.Submit(items)
	if err != nil {
		switch {
		case errors.Is(err, jobqueue.ErrQueueFull):
			writeError(w, r, wrapAPIError(CodeQueueFull, http.StatusInsufficientStorage, err))
		case errors.Is(err, jobqueue.ErrClosed):
			writeError(w, r, wrapAPIError(CodeQueueFull, http.StatusServiceUnavailable, err))
		default:
			writeError(w, r, err)
		}
		return
	}
	status := http.StatusAccepted
	if !created {
		status = http.StatusOK
	}
	writeJSON(w, status, JobSubmitResponse{ID: view.ID, Status: view.State, Total: view.Total, Created: created})
}

// handleGetJob reports one job's status and its per-item results as
// they land — a poller sees completed counts and the results array grow
// while the job runs.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, r, apiErrorf(CodeJobNotFound, http.StatusNotFound, "no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleListJobs lists job summaries in submission order, optionally
// filtered by derived state.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	state := jobqueue.JobState(r.URL.Query().Get("state"))
	switch state {
	case "", jobqueue.StatePending, jobqueue.StateRunning, jobqueue.StateCompleted, jobqueue.StateCancelled:
	default:
		writeError(w, r, apiErrorf(CodeInvalidRequest, http.StatusBadRequest,
			"unknown state %q (want pending|running|completed|cancelled)", string(state)))
		return
	}
	views := s.jobs.List(state)
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: views, Total: len(views)})
}

// handleCancelJob cancels a job's pending items; running items finish
// and record their outcome, finished jobs are returned unchanged.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	view, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobqueue.ErrNotFound):
		writeError(w, r, wrapAPIError(CodeJobNotFound, http.StatusNotFound, err))
		return
	case errors.Is(err, jobqueue.ErrClosed):
		writeError(w, r, wrapAPIError(CodeQueueFull, http.StatusServiceUnavailable, err))
		return
	case err != nil:
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// runJobItem is the queue's Runner: decode the persisted canonical
// request and route it through exactly the bounded analysis path
// /v1/analyze uses. The warm flag comes from the pipeline's
// resume-accounting hook — true when the memo tier or the persistent
// store answered without a fresh computation — which is what makes a
// resumed job's accounting prove that nothing already stored was
// recomputed.
func (s *Server) runJobItem(raw json.RawMessage) (json.RawMessage, bool, error) {
	var req AnalyzeRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, false, wrapAPIError(CodeInvalidRequest, http.StatusBadRequest, err)
	}
	resp, warm, err := s.analyze(req)
	if err != nil {
		return nil, warm, err
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return nil, warm, err
	}
	return data, warm, nil
}
