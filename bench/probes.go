package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"incore/internal/core"
	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/mca"
	"incore/internal/memsim"
	"incore/internal/pipeline"
	"incore/internal/serve"
	"incore/internal/sim"
	"incore/internal/store"
	"incore/internal/sweep"
	"incore/internal/uarch"
)

// probeInput is one (block, model) input of an operation, in the form a
// client sends it.
type probeInput struct {
	name  string
	model *uarch.Model
	text  string
	body  []byte // the /v1/analyze request body
}

func newInput(name string, m *uarch.Model, text string) (probeInput, error) {
	body, err := json.Marshal(serve.AnalyzeRequest{Arch: m.Key, Name: name, Asm: text})
	return probeInput{name: name, model: m, text: text, body: body}, err
}

// kitLayer names one per-layer metric and the spans it is the median of.
type kitLayer struct {
	metric string
	span   string
	unit   string
	scale  time.Duration
}

// kitLayers are the layers the kit times on every workload's inputs. Each
// is one call into one module's exported function; net.http is derived:
// the loopback request minus the in-process handler on the same body.
var kitLayers = []kitLayer{
	{"isa.parse_us", "isa.parse", "us", time.Microsecond},
	{"depgraph.skeleton_us", "depgraph.skeleton", "us", time.Microsecond},
	{"uarch.resolve_us", "uarch.resolve", "us", time.Microsecond},
	{"core.analyze_us", "core.analyze", "us", time.Microsecond},
	{"core.report_us", "core.report", "us", time.Microsecond},
	{"core.encode_us", "core.encode", "us", time.Microsecond},
	{"core.decode_us", "core.decode", "us", time.Microsecond},
	{"sim.compile_us", "sim.compile", "us", time.Microsecond},
	{"sim.run_us", "sim.run", "us", time.Microsecond},
	{"mca.compile_us", "mca.compile", "us", time.Microsecond},
	{"mca.predict_us", "mca.predict", "us", time.Microsecond},
	{"store.put_us", "store.put", "us", time.Microsecond},
	{"store.get_us", "store.get", "us", time.Microsecond},
	{"serve.decode_us", "serve.decode", "us", time.Microsecond},
	{"serve.encode_us", "serve.encode", "us", time.Microsecond},
	{"pipeline.parse_us", "pipeline.parse", "us", time.Microsecond},
	{"pipeline.analyze_us", "pipeline.analyze", "us", time.Microsecond},
	{"pipeline.cell_us", "pipeline.cell", "us", time.Microsecond},
	{"serve.handler_us", "serve.handler", "us", time.Microsecond},
	{"net.http_us", "net.http", "us", time.Microsecond},
	{"memsim.triad_ms", "memsim.triad", "ms", time.Millisecond},
	{"sweep.variants_us", "sweep.variants", "us", time.Microsecond},
}

// Fixed sizes of the node-level probes, small enough to run once per
// sampled operation: one triad sample, and the expansion of one variant.
const (
	probeTriadCores = 4
	probeTriadLines = 1024
)

var probeAxes = []sweep.Axis{{Param: "mem_bandwidth_gbs", Values: []float64{200}}}

// kit times single layer calls in isolation, each as the second of two
// calls on the same input. pre runs before an operation's real call and
// touches no process-wide tier, so it cannot warm the real call; post runs
// after it and measures the warm paths through the pipeline tiers and the
// serve handler.
type kit struct {
	an    *core.Analyzer
	store *store.Store
	srv   *loopback
	seq   atomic.Int64
}

func newKit(dir string) (*kit, error) {
	st, err := store.Open(dir, store.Options{Schema: pipeline.StoreSchema()})
	if err != nil {
		return nil, err
	}
	srv, err := startServer(1)
	if err != nil {
		return nil, err
	}
	return &kit{an: core.New(), store: st, srv: srv}, nil
}

func (k *kit) close() { k.srv.close() }

// timed runs fn as a span of s.
func timed[T any](s scope, name string, fn func() (T, error)) (T, error) {
	var v T
	err := s.time(name, func() (err error) {
		v, err = fn()
		return err
	})
	return v, err
}

// probe times the second of two calls of fn: the first warms the caches,
// and the tier entries, that a steady stream of calls on a workload's path
// finds warm.
func probe[T any](s scope, name string, fn func() (T, error)) (T, error) {
	if v, err := fn(); err != nil {
		return v, err
	}
	return timed(s, name, fn)
}

func (k *kit) pre(s scope, ins []probeInput) error {
	for _, in := range ins {
		if err := k.cold(s, in); err != nil {
			return fmt.Errorf("kit %s: %w", in.name, err)
		}
	}
	key := []string{"neoversev2", "goldencove", "zen4"}[s.rid%3]
	if _, err := probe(s, "memsim.triad", func() (memsim.TrafficResult, error) {
		sys, err := memsim.NewSystem(memsim.MustConfigFor(key))
		if err != nil {
			return memsim.TrafficResult{}, err
		}
		return sys.RunTriad(probeTriadCores, probeTriadLines, true)
	}); err != nil {
		return err
	}
	_, err := probe(s, "sweep.variants", func() ([]sweep.Variant, error) {
		return sweep.Variants(uarch.MustGet("goldencove"), probeAxes)
	})
	return err
}

// cold times the analysis, simulation, store and wire layers on one input.
func (k *kit) cold(s scope, in probeInput) error {
	m := in.model
	if _, err := probe(s, "serve.decode", func() (serve.AnalyzeRequest, error) {
		var req serve.AnalyzeRequest
		dec := json.NewDecoder(bytes.NewReader(in.body))
		dec.DisallowUnknownFields()
		return req, dec.Decode(&req)
	}); err != nil {
		return err
	}
	b, err := probe(s, "isa.parse", func() (*isa.Block, error) {
		return isa.ParseMarkedBlock(in.name, m.Key, m.Dialect, in.text)
	})
	if err != nil {
		return err
	}
	sk, err := probe(s, "depgraph.skeleton", func() (*depgraph.Skeleton, error) { return depgraph.NewSkeleton(b, k.an.Opt) })
	if err != nil {
		return err
	}
	descs, err := probe(s, "uarch.resolve", func() ([]uarch.Desc, error) { return sk.ResolveDescs(m, k.an.Opt.DegradeUnknown) })
	if err != nil {
		return err
	}
	res, err := probe(s, "core.analyze", func() (*core.Result, error) { return k.an.AnalyzeCompiled(b, m, sk, descs) })
	if err != nil {
		return err
	}
	report, _ := probe(s, "core.report", func() (string, error) { return res.Report(), nil })
	data, err := probe(s, "core.encode", res.MarshalStable)
	if err != nil {
		return err
	}
	if _, err := probe(s, "core.decode", func() (*core.Result, error) { return core.UnmarshalStable(data, b, m) }); err != nil {
		return err
	}
	// serve.encode mirrors the response the serve handler builds and its
	// indented JSON encoding (internal/serve's writeJSON), which serve does
	// not export; change both together.
	var buf bytes.Buffer
	if _, err := probe(s, "serve.encode", func() (int, error) {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return buf.Len(), enc.Encode(serve.AnalyzeResponse{
			Name: in.name, Arch: m.Key, Prediction: res.Prediction, Bound: res.Bound,
			TPBound: res.TPBound, GreedyTPBound: res.GreedyTPBound, IssueBound: res.IssueBound,
			CriticalPath: res.CriticalPath, LCDCycles: res.LCD.Cycles, LCDPath: res.LCD.Path,
			TotalUops: res.TotalUops, Report: report,
		})
	}); err != nil {
		return err
	}
	p, err := probe(s, "sim.compile", func() (*sim.Program, error) { return sim.Compile(b, m) })
	if err != nil {
		return err
	}
	if _, err := probe(s, "sim.run", func() (*sim.Result, error) { return p.Run(sim.DefaultConfig(m)) }); err != nil {
		return err
	}
	c, err := probe(s, "mca.compile", func() (*mca.Compiled, error) { return mca.Compile(b, m, mca.ParamsFor(m.Key)) })
	if err != nil {
		return err
	}
	if _, err := probe(s, "mca.predict", c.Predict); err != nil {
		return err
	}
	key := "bench-probe\x00" + strconv.FormatInt(k.seq.Add(1), 10)
	probe(s, "store.put", func() (struct{}, error) { k.store.Put(key, data); return struct{}{}, nil })
	sum := sha256.Sum256([]byte(key))
	_, err = probe(s, "store.get", func() ([]byte, error) {
		if _, payload, ok := k.store.GetByHash(hex.EncodeToString(sum[:])); ok {
			return payload, nil
		}
		return nil, fmt.Errorf("store probe: entry just put is missing")
	})
	return err
}

// post times the warm paths through the pipeline tiers and the server.
func (k *kit) post(s scope, ins []probeInput) error {
	for _, in := range ins {
		m := in.model
		b, err := probe(s, "pipeline.parse", func() (*isa.Block, error) {
			return pipeline.ParseRequestBlock(in.name, m.Key, m.Dialect, in.text)
		})
		if err != nil {
			return err
		}
		if _, err := probe(s, "pipeline.analyze", func() (*core.Result, error) { return pipeline.Analyze(k.an, b, m) }); err != nil {
			return err
		}
		ar := &pipeline.InternalArena{}
		if _, err := probe(s, "pipeline.cell", func() (*core.Result, error) { return pipeline.AnalyzeInternal(k.an, b, m, ar) }); err != nil {
			return err
		}
		if _, err := probe(s, "serve.handler", func() (int, error) {
			req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(in.body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			k.srv.handler.ServeHTTP(rec, req)
			return rec.Code, statusErr(rec.Code)
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		if _, err := probe(s, "serve.loopback", func() (int, error) {
			code, err := k.srv.post(in.body, "probe-"+strconv.Itoa(s.rid), &buf)
			if err == nil {
				err = statusErr(code)
			}
			return code, err
		}); err != nil {
			return err
		}
	}
	return nil
}

func statusErr(code int) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d", code)
	}
	return nil
}
