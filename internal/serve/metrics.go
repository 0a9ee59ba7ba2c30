package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"incore/internal/remotestore"
)

// GET /metrics renders the same HealthResponse snapshot /healthz
// reports as JSON in the Prometheus text exposition format, so the
// serving tier drops into standard scrape-based monitoring without a
// sidecar translating the health document. The encoding is mechanical,
// so a counter added to the health document appears here unasked:
//   - a numeric leaf becomes incore_ plus its JSON path joined by "_";
//     a leaf named like its section takes the section's name (jobs.jobs
//     is incore_jobs);
//   - unsigned leaves are counters and gain _total, signed leaves are
//     gauges;
//   - the leaf's help tag is its HELP text;
//   - a BreakerState renders one-hot as <path>_state{state="…"};
//   - string leaves and tiers that are not attached (nil store, remote)
//     emit nothing, mirroring the omitted JSON sections.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b := appendMetrics(nil, "incore", "", reflect.ValueOf(s.health()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

var breakerStates = []remotestore.BreakerState{remotestore.BreakerClosed, remotestore.BreakerOpen, remotestore.BreakerHalfOpen}

// appendMetrics appends the series of struct v, whose leaves are named
// under prefix; section is v's own JSON name ("" for the document).
func appendMetrics(b []byte, prefix, section string, v reflect.Value) []byte {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		name := prefix + "_" + key
		if key == section {
			name = prefix
		}
		if fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				continue
			}
			fv = fv.Elem()
		}
		help := f.Tag.Get("help")
		switch {
		case fv.Type() == reflect.TypeOf(remotestore.BreakerState("")):
			b = fmt.Appendf(b, "# HELP %[1]s_state %[2]s\n# TYPE %[1]s_state gauge\n", name, help)
			for _, state := range breakerStates {
				on := 0
				if fv.String() == string(state) {
					on = 1
				}
				b = fmt.Appendf(b, "%s_state{state=%q} %d\n", name, string(state), on)
			}
		case fv.Kind() == reflect.Struct:
			b = appendMetrics(b, name, key, fv)
		case fv.CanUint():
			b = fmt.Appendf(b, "# HELP %[1]s_total %[2]s\n# TYPE %[1]s_total counter\n%[1]s_total %[3]d\n", name, help, fv.Uint())
		case fv.CanInt():
			b = fmt.Appendf(b, "# HELP %[1]s %[2]s\n# TYPE %[1]s gauge\n%[1]s %[3]d\n", name, help, fv.Int())
		}
	}
	return b
}
