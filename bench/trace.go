package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// its request id (the operation's index in the measured phase).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RID    int    `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// scope is an open span. The zero scope belongs to no tracer: spans under
// it only run their function.
type scope struct {
	t     *tracer
	id    int
	rid   int
	start time.Time
}

// root opens the span of operation rid.
func (t *tracer) root(rid int) scope {
	return scope{t: t, id: int(t.ids.Add(1)), rid: rid, start: time.Now()}
}

// close records an open span under parent.
func (s scope) close(name string, parent int) {
	s.t.record(span{ID: s.id, Parent: parent, RID: s.rid, Name: name,
		Start: s.start.Sub(s.t.t0).Nanoseconds(), End: time.Since(s.t.t0).Nanoseconds()})
}

// span runs fn as a child span of s named name, handing fn the child's
// scope so that fn can open spans beneath it.
func (s scope) span(name string, fn func(scope) error) error {
	if s.t == nil {
		return fn(s)
	}
	c := s.t.root(s.rid)
	err := fn(c)
	c.close(name, s.id)
	return err
}

// time is span for a function that opens no spans of its own.
func (s scope) time(name string, fn func() error) error {
	return s.span(name, func(scope) error { return fn() })
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// durations groups span durations by name.
func (t *tracer) durations() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// row is one layer on a workload's path: the layer's span name and how
// many times one operation calls it.
type row struct {
	layer string
	calls float64
}

// ledger accounts a workload's operation time to the layers on its path.
// Each layer's cost is the median of its spans; an operation running on
// par workers has par times its wall time to account for, and what the
// layers do not explain is the residual. The operation time is the median
// over every operation of the traced pass: a sampled operation runs right
// after its probes and is slower than a typical one.
type ledger struct {
	workload string
	rows     []row
	par      int
	sampled  int
	ops      int
	unit     map[string]time.Duration // median span duration per name
	untraced time.Duration            // median operation of the untraced pass
	op       time.Duration            // median operation of the traced pass
}

func newLedger(workload string, rows []row, par, ops int, t *tracer, untraced, traced time.Duration) *ledger {
	l := &ledger{workload: workload, rows: rows, par: par, ops: ops, unit: map[string]time.Duration{},
		untraced: untraced, op: traced}
	ds := t.durations()
	for name, d := range ds {
		l.unit[name] = median(d)
	}
	l.unit["net.http"] = l.unit["serve.loopback"] - l.unit["serve.handler"]
	l.sampled = len(ds["op"])
	return l
}

// layers is the summed layer time per operation, in wall time.
func (l *ledger) layers() time.Duration {
	var sum float64
	for _, r := range l.rows {
		sum += r.calls * float64(l.unit[r.layer])
	}
	return time.Duration(sum / float64(l.par))
}

func (l *ledger) residualPct() float64 {
	if l.op <= 0 {
		return 0
	}
	return 100 * float64(l.op-l.layers()) / float64(l.op)
}

func (l *ledger) overheadPct() float64 {
	if l.untraced <= 0 {
		return 0
	}
	return 100 * float64(l.op-l.untraced) / float64(l.untraced)
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger %s: %d of %d operations sampled, %d worker(s) per operation\n",
		l.workload, l.sampled, l.ops, l.par)
	fmt.Fprintf(w, "  %-22s %10s %14s %14s %8s\n", "layer", "calls/op", "per call", "per op", "share")
	for _, r := range l.rows {
		per := time.Duration(r.calls * float64(l.unit[r.layer]) / float64(l.par))
		fmt.Fprintf(w, "  %-22s %10.0f %14v %14v %7.1f%%\n", r.layer, r.calls, l.unit[r.layer], per, pct(per, l.op))
	}
	fmt.Fprintf(w, "  %-22s %10s %14s %14v %7.1f%%\n", "sum", "", "", l.layers(), pct(l.layers(), l.op))
	fmt.Fprintf(w, "  %-22s %10s %14s %14v %7.1f%%\n", "residual", "", "", l.op-l.layers(), l.residualPct())
	fmt.Fprintf(w, "  %-22s %10s %14s %14v\n", "operation", "", "", l.op)
	fmt.Fprintf(w, "  tracing overhead %+.1f%% (median operation %v traced, %v untraced)\n",
		l.overheadPct(), l.op, l.untraced)
	names := make([]string, 0, len(l.unit))
	for n := range l.unit {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  every span, median:")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%v", n, l.unit[n])
	}
	fmt.Fprintln(w)
}

func pct(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
