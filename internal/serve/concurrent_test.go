package serve

// Race coverage for served analyses: concurrent /v1/analyze requests —
// a mix of distinct blocks (each drawing pooled analyzer scratch) and
// repeats (hitting the shared memo tier) — must all return exactly the
// serial answer. Run under -race by the CI test job.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"

	"incore/internal/kernels"
	"incore/internal/uarch"
)

// postAny is a goroutine-safe POST helper (the shared post helper calls
// t.Fatal, which must not run off the test goroutine).
func postAny(url string, body any) (*http.Response, []byte) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func TestConcurrentAnalyzeRequests(t *testing.T) {
	type caseT struct {
		req  AnalyzeRequest
		want AnalyzeResponse
	}
	var cases []caseT
	srv, err := NewWithOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, arch := range []string{"goldencove", "neoversev2", "zen4"} {
		m := uarch.MustGet(arch)
		for i := range kernels.Kernels {
			b, err := kernels.Generate(&kernels.Kernels[i], kernels.Config{Target: kernels.TargetOf(uarch.MustGet(arch)), Compiler: kernels.GCC, Opt: kernels.O3})
			if err != nil {
				t.Fatal(err)
			}
			req := AnalyzeRequest{Arch: m.Key, Asm: b.Text(), Name: b.Name}
			want, _, err := srv.analyze(req)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, caseT{req: req, want: *want})
		}
	}

	ts := newTestServer(t)
	const workers = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for off := 0; off < len(cases); off++ {
					c := cases[(off+w*5)%len(cases)]
					resp, body := postAny(ts.URL+"/v1/analyze", c.req)
					if resp == nil || resp.StatusCode != http.StatusOK {
						errs <- "non-200 response for " + c.req.Name
						return
					}
					var got AnalyzeResponse
					if err := json.Unmarshal(body, &got); err != nil {
						errs <- "bad response body for " + c.req.Name
						return
					}
					if got.Report != c.want.Report || got.Prediction != c.want.Prediction ||
						got.Bound != c.want.Bound || got.TPBound != c.want.TPBound {
						errs <- "concurrent response differs from serial for " + c.req.Arch + "/" + c.req.Name
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
