//go:build !race

package memsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// reproSamplesDigest is the sha256 of every memsim sample `repro -exp all`
// runs, in the order TestReproSamplesDigest lists them.
const reproSamplesDigest = "e6f52981bdb1fd43357fc3a73ae29a12a57fa36720321e6b84dea6a6905bc686"

// TestReproSamplesDigest pins the TrafficResult of every memsim sample
// the reproduction runs: each Fig. 4 store-stream sample, then each
// Table I triad sample, on a fresh System each. The hash input is each
// result's json.Marshal plus a newline. It takes seconds, so it skips
// under -short and does not build under -race.
func TestReproSamplesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every repro memsim sample")
	}
	h := sha256.New()
	n := 0
	sample := func(key string, run func(s *System) (TrafficResult, error)) {
		s, err := NewSystem(MustConfigFor(key))
		if err != nil {
			t.Fatal(err)
		}
		r, err := run(s)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
		n++
	}
	for _, series := range reproSeries {
		for _, cores := range DefaultCounts(MustConfigFor(series.key).Cores) {
			sample(series.key, func(s *System) (TrafficResult, error) { return series.run(s, cores) })
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); n != 98 || got != reproSamplesDigest {
		t.Errorf("%d samples hash to %s, want 98 hashing to %s", n, got, reproSamplesDigest)
	}
}
