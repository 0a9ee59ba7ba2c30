package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"incore/internal/pipeline"
	"incore/internal/sweep"
	"incore/internal/uarch"
)

// DefaultMaxSweepVariants bounds one sweep request's cross-product. A
// sweep is the API's most expensive verb — every variant re-runs every
// block — so the cap is enforced on the *declared* product before a
// single model is cloned: a hostile request costs arithmetic, not
// memory. Over-cap requests get 413 sweep_too_large.
const DefaultMaxSweepVariants = 4096

// SweepRequest asks for a design-space sweep: a base machine model, a
// set of parameter axes, and optionally explicit blocks to sweep
// (defaulting to the model's kernel validation suite).
type SweepRequest struct {
	// Arch / Machine select the base model exactly as in AnalyzeRequest:
	// a registered key, or an inline machine file used for this request
	// only.
	Arch    string          `json:"arch,omitempty"`
	Machine json.RawMessage `json:"machine,omitempty"`
	// Axes declares the swept parameters (see sweep.Params for the
	// vocabulary). Order and duplicate values are irrelevant: axes are
	// canonicalized, so equal ranges always produce the identical
	// variant grid — and identical cache keys.
	Axes []sweep.Axis `json:"axes"`
	// Blocks optionally restricts the sweep to explicit assembly blocks.
	// Empty means the full kernel validation suite generated for the
	// model, built-in or custom.
	Blocks []SweepBlock `json:"blocks,omitempty"`
}

// SweepBlock is one explicit block to sweep.
type SweepBlock struct {
	Name string `json:"name,omitempty"`
	Asm  string `json:"asm"`
}

// handleSweep runs POST /v1/sweep. The response body is the sweep.Result
// JSON: the canonical axes, one row per variant (predictions, cache key,
// port signature, warm/cold provenance), and the derived Pareto fronts.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	m, err := s.resolveModel(&AnalyzeRequest{Arch: req.Arch, Machine: req.Machine})
	if err != nil {
		writeError(w, r, err)
		return
	}
	canon, err := sweep.Canonicalize(req.Axes)
	if err != nil {
		writeError(w, r, wrapAPIError(CodeInvalidRequest, http.StatusBadRequest, err))
		return
	}
	// Enforce the cap on the declared product before any cloning; the
	// request has cost nothing yet beyond parsing its own body.
	if max := s.opt.MaxSweepVariants; max > 0 {
		if n := sweep.Count(canon); n > max {
			s.sweepMu.Lock()
			s.sweepStats.RejectedTooLarge++
			s.sweepMu.Unlock()
			writeError(w, r, apiErrorf(CodeSweepTooLarge, http.StatusRequestEntityTooLarge,
				"sweep cross-product of %d variants exceeds the cap of %d", n, max))
			return
		}
	}
	blocks, err := s.sweepBlocks(m, req.Blocks)
	if err != nil {
		writeError(w, r, err)
		return
	}
	res, err := sweep.Run(m, canon, blocks, sweep.Options{Analyzer: s.an})
	if err != nil {
		writeError(w, r, wrapAPIError(CodeInvalidRequest, http.StatusBadRequest, err))
		return
	}
	s.sweepMu.Lock()
	s.sweepStats.Add(res)
	s.sweepMu.Unlock()
	writeJSON(w, http.StatusOK, res)
}

// sweepBlocks resolves a sweep request's work set: explicit blocks parse
// through the shared artifact cache under the instruction cap, an empty
// list selects the model's kernel validation suite.
func (s *Server) sweepBlocks(m *uarch.Model, reqBlocks []SweepBlock) ([]sweep.Block, error) {
	if len(reqBlocks) == 0 {
		return sweep.BlocksFor(m)
	}
	out := make([]sweep.Block, 0, len(reqBlocks))
	for i, sb := range reqBlocks {
		if sb.Asm == "" {
			return nil, apiErrorf(CodeInvalidRequest, http.StatusBadRequest, "block %d: missing asm", i)
		}
		name := sb.Name
		if name == "" {
			name = fmt.Sprintf("block%d", i)
		}
		b, err := pipeline.ParseRequestBlock(name, m.Key, m.Dialect, sb.Asm)
		if err != nil {
			return nil, wrapAPIError(CodeInvalidRequest, http.StatusBadRequest, err)
		}
		if n := len(b.Instrs); n > s.opt.MaxBlockInstrs {
			return nil, apiErrorf(CodeBlockTooLarge, http.StatusRequestEntityTooLarge,
				"block %q has %d instructions, limit is %d", name, n, s.opt.MaxBlockInstrs)
		}
		out = append(out, sweep.Block{Name: name, B: b})
	}
	return out, nil
}
