package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"incore/internal/kernels"
	"incore/internal/uarch"
)

// plain is AnalyzeResponse without its methods, so encoding/json renders
// it by reflection: the reference the hand-written appender must match.
type plain AnalyzeResponse

// FuzzAnalyzeResponseJSON sends an arbitrary name with one of the seed
// blocks through the /v1/analyze handler and requires the response bytes
// to equal encoding/json's indented encoding of the same response;
// appendResponse must match it for the raw name and an arbitrary
// float too, and MarshalJSON must match the compact encoding.
func FuzzAnalyzeResponseJSON(f *testing.F) {
	type block struct{ arch, asm string }
	var blocks []block
	for _, arch := range []string{"goldencove", "neoversev2", "zen4"} {
		suite, err := kernels.Suite(uarch.MustGet(arch))
		if err != nil {
			f.Fatal(err)
		}
		for _, i := range []int{0, len(suite) / 2, len(suite) - 1} {
			blocks = append(blocks, block{arch, suite[i].Block.Text()})
		}
	}
	for _, d := range extraBlocks {
		blocks = append(blocks, block{d.arch, d.asm})
	}
	names := []string{"", "striad", "<>&\"\\", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "bad\xff\xfe\xc3", "sep \u2028\u2029", "名前 \U0001F600"}
	floats := []float64{0, 1.5, 1e-7, 2.5e-9, 1e21, -123456789e15, 0.1}
	for i := range blocks {
		f.Add(names[i%len(names)], uint8(i), floats[i%len(floats)])
	}

	srv, err := NewWithOptions(Options{JobWorkers: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, name string, pick uint8, x float64) {
		blk := blocks[int(pick)%len(blocks)]
		body, err := json.Marshal(AnalyzeRequest{Arch: blk.arch, Asm: blk.asm, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}

		// The reference renders the response the server decodes the
		// request into.
		var req AnalyzeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		resp, _, err := srv.analyze(req)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plain(*resp)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("handler bytes differ from encoding/json\n got: %q\nwant: %q", rec.Body.Bytes(), want.Bytes())
		}

		// The exported renderer also sees names the request decoder has
		// not sanitized, invalid UTF-8 included, and floats of any finite
		// magnitude (encoding/json switches to exponent form outside
		// [1e-6, 1e21)).
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		raw := *resp
		raw.Name = name
		raw.Prediction, raw.Coverage.Fraction = x, -x
		want.Reset()
		if err := enc.Encode(plain(raw)); err != nil {
			t.Fatal(err)
		}
		if got := appendResponse(nil, &raw, raw.Report, true); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendResponse differs from encoding/json\n got: %q\nwant: %q", got, want.Bytes())
		}

		got, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		wantCompact, err := json.Marshal(plain(*resp))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantCompact) {
			t.Fatalf("MarshalJSON differs from encoding/json\n got: %q\nwant: %q", got, wantCompact)
		}
	})
}
