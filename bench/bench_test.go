package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEveryWorkloadAtOnePercent runs each workload of BENCHMARK.json at 1%
// of its size (one operation where that rounds to less), traced, and
// checks that it is correct and emits exactly the declared metrics with
// their units. repro-cold runs untraced: its one operation is a cold
// `repro -exp all` of 4–9 s, which the traced pass would repeat, and
// repro-warm already traces the same experiment spans. Every workload emits
// the same per-layer set, so the other five check it.
func TestEveryWorkloadAtOnePercent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			var log bytes.Buffer
			trace := w.Name != "repro-cold"
			r, err := run(options{workload: w.Name, seed: 1, seconds: 0.1, trace: trace, setups: 1,
				tmp: dir, spans: filepath.Join(dir, "spans.json")}, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d operations failed\n%s", r.Correct, r.Failed, r.Attempted, log.String())
			}
			checkMetrics(t, "end-to-end", r.Metrics, spec.EndToEnd, true)
			if !trace {
				return
			}
			checkMetrics(t, "per-layer", r.layers, spec.PerLayer, false)
			if _, err := os.Stat(filepath.Join(dir, "spans.json")); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want []specMetric, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d %s metrics emitted, BENCHMARK.json declares %d", len(got), kind, len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, w.Name, m.Unit, w.Unit)
		case positive && !(m.Value > 0):
			t.Errorf("%s metric %s = %v, want a positive number", kind, w.Name, m.Value)
		}
	}
}
