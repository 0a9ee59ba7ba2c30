package memsim

import "testing"

// triadLinesPerCore is the per-stream line count of the Table I triad
// samples `repro` runs.
const triadLinesPerCore = 8192

// reproSeries are the memsim series `repro -exp all` runs, named
// <key>-<std|nt|triad>: the Fig. 4 store streams, then the Table I
// triads, NT stores where the policy does not claim lines.
var reproSeries = []struct {
	name string
	key  string
	run  func(s *System, cores int) (TrafficResult, error)
}{
	{"neoversev2-std", "neoversev2", storeSeries(false)},
	{"goldencove-std", "goldencove", storeSeries(false)},
	{"goldencove-nt", "goldencove", storeSeries(true)},
	{"zen4-std", "zen4", storeSeries(false)},
	{"zen4-nt", "zen4", storeSeries(true)},
	{"neoversev2-triad", "neoversev2", triadSeries(false)},
	{"goldencove-triad", "goldencove", triadSeries(true)},
	{"zen4-triad", "zen4", triadSeries(true)},
}

func storeSeries(nt bool) func(*System, int) (TrafficResult, error) {
	return func(s *System, cores int) (TrafficResult, error) {
		return s.RunStoreStream(cores, DefaultStoreLinesPerCore, nt)
	}
}

func triadSeries(nt bool) func(*System, int) (TrafficResult, error) {
	return func(s *System, cores int) (TrafficResult, error) {
		return s.RunTriad(cores, triadLinesPerCore, nt)
	}
}

// BenchmarkReproSeries runs each repro series at DefaultCounts, every
// sample on a fresh System as pipeline's WACurve and Triad jobs do.
func BenchmarkReproSeries(b *testing.B) {
	for _, series := range reproSeries {
		b.Run(series.name, func(b *testing.B) {
			cfg := MustConfigFor(series.key)
			for range b.N {
				for _, cores := range DefaultCounts(cfg.Cores) {
					s, err := NewSystem(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := series.run(s, cores); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
