package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"incore/internal/jobqueue"
	"incore/internal/pipeline"
	"incore/internal/remotestore"
	"incore/internal/sweep"
)

// metricsFamiliesPath pins every /metrics family a server with a store
// and a remote tier attached exposes: HELP and TYPE lines verbatim and
// each sample's name and labels, values masked, sorted.
const metricsFamiliesPath = "testdata/metrics_families.txt"

// newFullTierServer serves with every optional tier attached: a fresh
// memo cache and persistent store, and a remotestore client whose peer
// answers every lookup with a clean 404. Closing the returned client
// drains its write-behind queue, settling the remote counters.
func newFullTierServer(t *testing.T) (*httptest.Server, *remotestore.Client) {
	t.Helper()
	st := withPeerStore(t, t.TempDir())
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"store_entry_not_found"}}`, http.StatusNotFound)
	}))
	t.Cleanup(peer.Close)
	rc, err := remotestore.New(remotestore.Options{BaseURL: peer.URL, Schema: pipeline.StoreSchema(), Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	st.SetRemote(rc)
	return newTestServer(t), rc
}

// getMetrics fetches /metrics and checks its status and content type.
func getMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMetricsFamiliesGolden pins the names, types and help text of every
// /metrics series with all tiers attached, so a change to how /metrics
// is produced cannot rename, retype or reword a series unnoticed.
func TestMetricsFamiliesGolden(t *testing.T) {
	ts, _ := newFullTierServer(t)
	text := getMetrics(t, ts)
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("sample line without a value: %q", line)
			}
			line = line[:i]
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(metricsFamiliesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsFamiliesPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics families differ from %s:\n got:\n%s\nwant:\n%s", metricsFamiliesPath, got, want)
	}
}

// TestMetricsEndpoint pins /metrics as a second encoding of the /healthz
// document, with no tier attached and with every tier attached after
// analyze, batch, sweep and job traffic: every numeric /healthz leaf (an
// omitted omitempty leaf reads as 0) equals its /metrics sample, every
// sample maps back to a leaf, the breaker's one-hot series marks
// remote.breaker, and every family carries HELP text.
func TestMetricsEndpoint(t *testing.T) {
	t.Run("bare", func(t *testing.T) {
		checkHealthzMatchesMetrics(t, newTestServer(t))
	})
	t.Run("all tiers", func(t *testing.T) {
		ts, rc := newFullTierServer(t)
		asm := func(prefix string) string {
			return fmt.Sprintf("%s0:\n\taddq $%d, %%rax\n\tcmpq %%rcx, %%rax\n\tjb %s0\n", prefix, freshImm(), prefix)
		}
		for _, c := range []struct {
			path string
			body any
		}{
			{"/v1/analyze", AnalyzeRequest{Arch: "zen4", Asm: asm(".LMA")}},
			{"/v1/batch", BatchRequest{Requests: []AnalyzeRequest{{Arch: "goldencove", Asm: asm(".LMB")}, {Arch: "zen4", Asm: asm(".LMC")}}}},
			{"/v1/sweep", SweepRequest{
				Arch:   "zen4",
				Axes:   []sweep.Axis{{Param: "tdp_watts", Values: []float64{200, 280}}},
				Blocks: []SweepBlock{{Name: "fresh", Asm: asm(".LMS")}},
			}},
		} {
			if resp, body := post(t, ts, c.path, c.body); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s status = %d: %s", c.path, resp.StatusCode, body)
			}
		}
		resp, body := post(t, ts, "/v1/jobs", jobBatch(fmt.Sprint(freshImm()), 2))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit status = %d: %s", resp.StatusCode, body)
		}
		var sub JobSubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		pollJob(t, ts, sub.ID, jobqueue.StateCompleted)
		rc.Close()
		live := checkHealthzMatchesMetrics(t, ts)
		for _, path := range []string{"sweep.cells_analyzed", "store.misses", "remote.gets"} {
			if n, _ := live[path].(json.Number); n == "" || n == "0" {
				t.Errorf("/healthz %s = %v after cold traffic, want > 0", path, live[path])
			}
		}
	})
}

// checkHealthzMatchesMetrics checks /metrics against /healthz and
// returns the /healthz leaves by dotted path.
func checkHealthzMatchesMetrics(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	live, sections := map[string]any{}, map[string]bool{}
	flattenJSON("", decodeJSON(t, resp.Body), live, sections)

	// Every leaf the document can carry: a HealthResponse with each
	// section allocated and each leaf nonzero omits nothing.
	var full HealthResponse
	fillNonZero(reflect.ValueOf(&full).Elem())
	raw, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	every := map[string]any{}
	flattenJSON("", decodeJSON(t, bytes.NewReader(raw)), every, map[string]bool{})

	samples, types := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(getMetrics(t, ts), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			if name, help, _ := strings.Cut(rest, " "); help == "" {
				t.Errorf("%s has no HELP text", name)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample line without a value: %q", line)
		}
		samples[line[:i]] = line[i+1:]
	}

	claimed := map[string]bool{}
	for path, kind := range every {
		if dot := strings.LastIndexByte(path, '.'); dot >= 0 && !sections[path[:dot]] {
			continue // tier not attached
		}
		name := seriesName(path)
		switch kind.(type) {
		case json.Number:
			var series []string
			if types[name] == "gauge" {
				series = append(series, name)
			}
			if types[name+"_total"] == "counter" {
				series = append(series, name+"_total")
			}
			if len(series) != 1 {
				t.Errorf("/healthz %s: want exactly one of gauge %s and counter %s_total, have %q", path, name, name, series)
				continue
			}
			want := json.Number("0")
			if v, ok := live[path]; ok {
				want = v.(json.Number)
			}
			if got := samples[series[0]]; got != want.String() {
				t.Errorf("/healthz %s = %s, /metrics %s = %s", path, want, series[0], got)
			}
			claimed[series[0]] = true
		case string:
			// A state leaf renders one-hot; other strings are not series.
			state, _ := live[path].(string)
			for sample, v := range samples {
				label, ok := strings.CutPrefix(sample, name+"_state{state=")
				if !ok {
					continue
				}
				want := "0"
				if label == strconv.Quote(state)+"}" {
					want = "1"
				}
				if v != want {
					t.Errorf("/healthz %s = %q, /metrics %s = %s", path, state, sample, v)
				}
				claimed[sample] = true
			}
		}
	}
	for sample := range samples {
		if !claimed[sample] {
			t.Errorf("/metrics %s maps to no /healthz leaf", sample)
		}
	}
	if breaker, ok := live["remote.breaker"].(string); ok && samples[`incore_remote_breaker_state{state=`+strconv.Quote(breaker)+`}`] != "1" {
		t.Errorf("remote.breaker %q has no active one-hot series", breaker)
	}
	return live
}

// seriesName is the /metrics name of a /healthz leaf before any counter
// suffix: its dotted path joined by "_", a leaf named like its section
// collapsing into the section.
func seriesName(path string) string {
	parts := strings.Split(path, ".")
	if n := len(parts); n > 1 && parts[n-1] == parts[n-2] {
		parts = parts[:n-1]
	}
	return "incore_" + strings.Join(parts, "_")
}

func decodeJSON(t *testing.T, r io.Reader) map[string]any {
	t.Helper()
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// flattenJSON records each leaf of doc under its dotted path and each
// nested object's path in sections.
func flattenJSON(prefix string, doc map[string]any, leaves map[string]any, sections map[string]bool) {
	for k, v := range doc {
		path := k
		if prefix != "" {
			path = prefix + "." + k
		}
		if sub, ok := v.(map[string]any); ok {
			sections[path] = true
			flattenJSON(path, sub, leaves, sections)
			continue
		}
		leaves[path] = v
	}
}

// fillNonZero allocates every section under v and gives every leaf a
// nonzero value, so no omitempty leaf drops out of its JSON encoding.
func fillNonZero(v reflect.Value) {
	switch {
	case v.Kind() == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case v.CanInt():
		v.SetInt(1)
	case v.CanUint():
		v.SetUint(1)
	case v.Kind() == reflect.String:
		v.SetString("x")
	}
}
