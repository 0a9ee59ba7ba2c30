package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"incore/internal/isa"
	"incore/internal/uarch"
)

func TestTraceRecorder(t *testing.T) {
	m := uarch.MustGet("zen4")
	src := "\tvaddpd %ymm1, %ymm2, %ymm3\n\tdecq %rcx\n\tjne .L0\n"
	b, err := isa.ParseBlock("t", "zen4", m.Dialect, src)
	if err != nil {
		t.Fatal(err)
	}
	var rec TraceRecorder
	cfg := DefaultConfig(m)
	cfg.WarmupIters = 2
	cfg.MeasureIters = 4
	cfg.Trace = rec.Hook(b.Len())
	if _, err := Run(b, m, cfg); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != b.Len()*(2+4) {
		t.Errorf("events = %d, want %d", rec.Len(), b.Len()*6)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != rec.Len() {
		t.Error("JSON event count mismatch")
	}
	if !strings.Contains(buf.String(), "vaddpd") {
		t.Error("trace missing instruction names")
	}
}

func TestTraceRecorderCap(t *testing.T) {
	m := uarch.MustGet("zen4")
	b, err := isa.ParseBlock("t", "zen4", m.Dialect, "\tvaddpd %ymm1, %ymm2, %ymm3\n\tjne .L0\n")
	if err != nil {
		t.Fatal(err)
	}
	rec := TraceRecorder{MaxEvents: 10}
	cfg := DefaultConfig(m)
	cfg.Trace = rec.Hook(b.Len())
	if _, err := Run(b, m, cfg); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 10 {
		t.Errorf("cap not enforced: len=%d", rec.Len())
	}
}
