// Machine-file round-trip integration test: every built-in model,
// exported to its JSON machine file and loaded back, must be
// indistinguishable from the built-in model — equal content
// fingerprint (hence the same bare cache key) and byte-identical
// analyzer reports over the full kernel suite — and the node-level
// models (ECM, frequency governor, Roofline) built from the reloaded
// model must render identically too.
package incore_test

import (
	"bytes"
	"testing"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/freq"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/roofline"
	"incore/internal/uarch"
)

func reload(t *testing.T, m *uarch.Model) *uarch.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: write: %v", m.Key, err)
	}
	loaded, err := uarch.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("%s: read: %v", m.Key, err)
	}
	return loaded
}

func TestRoundTrippedModelsAnalyzeIdentically(t *testing.T) {
	an := core.New()
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		orig := uarch.MustGet(key)
		loaded := reload(t, orig)
		if loaded.Fingerprint() != orig.Fingerprint() {
			t.Errorf("%s: fingerprint changed across round trip", key)
		}
		if loaded.CacheKey() != key {
			t.Errorf("%s: reloaded CacheKey = %q, want bare key", key, loaded.CacheKey())
		}
		checked := 0
		for i := range kernels.Kernels {
			k := &kernels.Kernels[i]
			for _, compiler := range kernels.CompilersFor(key) {
				for _, opt := range []kernels.OptLevel{kernels.O3, kernels.Ofast} {
					b, err := kernels.Generate(k, kernels.Config{Arch: key, Compiler: compiler, Opt: opt})
					if err != nil {
						continue
					}
					want, err := an.Analyze(b, orig)
					if err != nil {
						continue
					}
					got, err := an.Analyze(b, loaded)
					if err != nil {
						t.Fatalf("%s/%s: reloaded model fails: %v", key, k.Name, err)
					}
					if got.Report() != want.Report() {
						t.Fatalf("%s/%s/%v: report differs after round trip", key, k.Name, opt)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no kernels analyzed", key)
		}
	}
}

func TestRoundTrippedModelsPredictNodeLevelIdentically(t *testing.T) {
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		orig := uarch.MustGet(key)
		loaded := reload(t, orig)

		// ECM: identical bandwidths, overlap flags, write-allocate factor,
		// and rendered report.
		emWant, err := ecm.ForModel(orig)
		if err != nil {
			t.Fatal(err)
		}
		emGot, err := ecm.ForModel(loaded)
		if err != nil {
			t.Fatalf("%s: reloaded model has no ECM: %v", key, err)
		}
		if emGot.BW != emWant.BW || emGot.Overlap != emWant.Overlap || emGot.FreqGHz != emWant.FreqGHz || emGot.WAFactor != emWant.WAFactor {
			t.Errorf("%s: ECM calibration changed: %+v vs %+v", key, emGot, emWant)
		}
		tr := ecm.Traffic{LoadBytes: 128, StoreBytes: 64}
		if got, want := emGot.Predict(1, 2, tr, ecm.MEM).Report(), emWant.Predict(1, 2, tr, ecm.MEM).Report(); got != want {
			t.Errorf("%s: ECM report differs:\n%s\nvs\n%s", key, got, want)
		}

		// Frequency governor: identical sustained curve for every ISA
		// class the model names.
		gWant, err := freq.ForModel(orig)
		if err != nil {
			t.Fatal(err)
		}
		gGot, err := freq.ForModel(loaded)
		if err != nil {
			t.Fatalf("%s: reloaded model has no governor: %v", key, err)
		}
		for name := range loaded.Node.Freq.ActivityFactor {
			ext, err := isa.ParseExt(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gWant.Curve(ext)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gGot.Curve(ext)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: sustained frequency differs at %d cores: %v vs %v",
						key, name, i+1, got[i], want[i])
				}
			}
		}

		// Roofline: byte-identical render.
		rlWant, err := roofline.ForModel(orig)
		if err != nil {
			t.Fatal(err)
		}
		rlGot, err := roofline.ForModel(loaded)
		if err != nil {
			t.Fatalf("%s: reloaded model has no roofline: %v", key, err)
		}
		if rlGot.Render() != rlWant.Render() {
			t.Errorf("%s: roofline differs:\n%s\nvs\n%s", key, rlGot.Render(), rlWant.Render())
		}
	}
}
