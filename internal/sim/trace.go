package sim

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceRecorder collects per-dynamic-instruction timestamps from a
// simulation run and exports them in the Chrome trace-event format
// (chrome://tracing, Perfetto). Each instruction appears as a complete
// event on a "row" (thread) equal to its static index, spanning issue to
// retirement, with fetch/dispatch timestamps as arguments.
type TraceRecorder struct {
	// MaxEvents bounds memory use; 0 means DefaultMaxTraceEvents.
	MaxEvents int
	events    []traceEvent
}

// DefaultMaxTraceEvents bounds recorded events.
const DefaultMaxTraceEvents = 100000

type traceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Hook returns a Config.Trace callback feeding this recorder. nStatic is
// the block length (for row assignment).
func (tr *TraceRecorder) Hook(nStatic int) func(dyn int, instr string, fetch, dispatch, start, ready, retire float64) {
	if tr.MaxEvents <= 0 {
		tr.MaxEvents = DefaultMaxTraceEvents
	}
	return func(dyn int, instr string, fetch, dispatch, start, ready, retire float64) {
		if len(tr.events) >= tr.MaxEvents {
			return
		}
		dur := retire - start
		if dur <= 0 {
			dur = 0.5
		}
		tr.events = append(tr.events, traceEvent{
			Name: instr,
			Ph:   "X",
			Ts:   start,
			Dur:  dur,
			PID:  0,
			TID:  dyn % nStatic,
			Args: map[string]interface{}{
				"dyn":      dyn,
				"fetch":    fetch,
				"dispatch": dispatch,
				"ready":    ready,
				"retire":   retire,
			},
		})
	}
}

// Len returns the number of recorded events.
func (tr *TraceRecorder) Len() int { return len(tr.events) }

// WriteJSON emits the Chrome trace-event array.
func (tr *TraceRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		Unit        string       `json:"displayTimeUnit"`
	}{TraceEvents: tr.events, Unit: "ns"}); err != nil {
		return fmt.Errorf("sim: trace export: %w", err)
	}
	return nil
}
