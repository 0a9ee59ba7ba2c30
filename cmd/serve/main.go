// Command serve runs the in-core analysis service: an HTTP JSON API that
// answers OSACA-style "analyze this block on this uarch" requests through
// the same pipeline memo cache and persistent result store as batch
// reproduction, so served traffic and cmd/repro share one cache and one
// determinism contract.
//
// Usage:
//
//	serve [-addr :8080] [-cache-dir DIR] [-jobs-dir DIR] [-job-workers N] [-j N]
//	      [-peer-store URL] [-peer-timeout D] [-peer-fault-rate F] [-peer-fault-seed N]
//	      [-machine FILE ...] [-machine-dir DIR]
//	      [-max-body BYTES] [-max-instrs N] [-analysis-timeout D] [-max-sweep-variants N]
//	      [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR]
//
// -machine (repeatable) and -machine-dir register JSON machine files at
// startup, so their keys serve alongside the built-ins; clients can also
// register models at runtime via POST /v1/models or send inline
// "machine" objects on analyze/batch requests.
//
// -jobs-dir makes the /v1/jobs queue durable: job records persist next
// to the result store and a restarted server resumes interrupted jobs,
// with already-stored items served warm (no recompute). It defaults to
// <cache-dir>/jobs when -cache-dir is set; without either, jobs live in
// memory only. Graceful shutdown (SIGINT/SIGTERM) drains in-flight job
// items and checkpoints every job before exit.
//
// -peer-store URL attaches a replica's /v1/store endpoints as a third
// cache tier behind the local store (requires -cache-dir): local misses
// consult the peer (verified on fetch, retried with backoff, circuit-
// broken when the peer dies — see DESIGN.md "Fault tolerance"), and
// local stores replicate to the peer via async write-behind. The peer
// is strictly an optimization: any peer failure degrades to a local
// cache miss, never to a request failure. -peer-fault-rate injects
// deterministic faults (drops, delays, resets, truncation, corruption)
// into peer traffic for chaos testing; results must stay byte-identical
// at any rate.
//
// With -cpuprofile/-memprofile, runtime/pprof profiles cover the serving
// window and are written on graceful shutdown. -pprof additionally mounts
// the interactive net/http/pprof endpoints on a separate listener (keep it
// loopback: profiles expose heap contents), away from the public API mux.
//
// Endpoints (see API.md for the full contract):
//
//	POST   /v1/analyze  {"arch":"zen4","asm":"...","name":"..."} or {"machine":{...},"asm":"..."}
//	POST   /v1/batch    {"requests":[{...},{...}]}
//	POST   /v1/sweep    {"arch":"zen4","axes":[{"param":"tdp_watts","values":[200,280]}]}
//	POST   /v1/jobs     {"requests":[{...},{...}]} → 202 {"id","status",...}
//	GET    /v1/jobs/{id}
//	GET    /v1/jobs?state=running
//	DELETE /v1/jobs/{id}
//	GET    /v1/models?limit=10&offset=0&arch=x86
//	POST   /v1/models   (body: machine-file JSON)
//	GET    /v1/models/{key}
//	GET    /v1/store/{hash}   (peer replication)
//	PUT    /v1/store/{hash}   (peer replication)
//	GET    /healthz
//	GET    /metrics
//
// Example:
//
//	serve -cache-dir /var/cache/incore &
//	curl -s localhost:8080/v1/analyze -d '{"arch":"goldencove","asm":".L0:\n\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"incore/internal/faultinject"
	"incore/internal/pipeline"
	"incore/internal/profiling"
	"incore/internal/remotestore"
	"incore/internal/serve"
	"incore/internal/uarch"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (empty = process-local cache only)")
	workers := flag.Int("j", 0, "pipeline workers for batch requests (0 = GOMAXPROCS)")
	var machineFiles []string
	flag.Func("machine", "register this JSON machine file at startup (repeatable)", func(path string) error {
		machineFiles = append(machineFiles, path)
		return nil
	})
	machineDir := flag.String("machine-dir", "", "register every *.json machine file in this directory at startup")
	jobsDir := flag.String("jobs-dir", "", "durable job-queue directory (default <cache-dir>/jobs when -cache-dir is set; empty without it = in-memory jobs)")
	jobWorkers := flag.Int("job-workers", 0, "workers draining /v1/jobs items (0 = GOMAXPROCS)")
	peerStore := flag.String("peer-store", "", "peer replica base URL for the remote store tier (requires -cache-dir)")
	peerTimeout := flag.Duration("peer-timeout", remotestore.DefaultTimeout, "per-attempt timeout for peer store requests")
	peerFaultRate := flag.Float64("peer-fault-rate", 0, "inject faults into this fraction of peer requests (chaos testing; 0 = off)")
	peerFaultSeed := flag.Int64("peer-fault-seed", 1, "deterministic seed for -peer-fault-rate")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size cap in bytes (413 beyond)")
	maxInstrs := flag.Int("max-instrs", serve.DefaultMaxBlockInstrs, "per-block instruction cap (413 beyond)")
	analysisTimeout := flag.Duration("analysis-timeout", serve.DefaultAnalysisTimeout, "per-block analysis deadline (503 beyond; negative disables)")
	maxSweepVariants := flag.Int("max-sweep-variants", serve.DefaultMaxSweepVariants, "per-request sweep cross-product cap (413 beyond; negative disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the serving window to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = off)")
	flag.Parse()

	models := uarch.NewRegistry()
	if *machineDir != "" {
		loaded, err := models.LoadDir(*machineDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		for _, m := range loaded {
			log.Printf("serve: registered %s (%s)", m.Key, m.Fingerprint()[:12])
		}
	}
	for _, path := range machineFiles {
		m, err := models.LoadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		log.Printf("serve: registered %s (%s)", m.Key, m.Fingerprint()[:12])
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}

	nw := pipeline.SetDefaultWorkers(*workers)
	var peer *remotestore.Client
	if *cacheDir != "" {
		st, err := pipeline.AttachStore(*cacheDir)
		if err != nil {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		log.Printf("serve: store attached at %s (schema %d)", st.Dir(), pipeline.StoreSchema())
		if *jobsDir == "" {
			// Durable jobs live next to the store by default, so one
			// -cache-dir flag yields a fully restart-resumable server.
			*jobsDir = filepath.Join(*cacheDir, "jobs")
		}
		if *peerStore != "" {
			var transport http.RoundTripper
			if *peerFaultRate > 0 {
				transport = faultinject.New(nil, faultinject.Config{Rate: *peerFaultRate, Seed: *peerFaultSeed})
				log.Printf("serve: injecting faults into %.0f%% of peer requests (seed %d)", *peerFaultRate*100, *peerFaultSeed)
			}
			peer, err = remotestore.New(remotestore.Options{
				BaseURL:   *peerStore,
				Schema:    pipeline.StoreSchema(),
				Timeout:   *peerTimeout,
				Transport: transport,
			})
			if err != nil {
				stopProfiles()
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				os.Exit(1)
			}
			st.SetRemote(peer)
			log.Printf("serve: peer store tier at %s (timeout %s)", peer.BaseURL(), *peerTimeout)
		}
	} else if *peerStore != "" {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "serve: -peer-store requires -cache-dir (the remote tier sits behind the local store)\n")
		os.Exit(1)
	}

	api, err := serve.NewWithOptions(serve.Options{
		MaxBodyBytes:     *maxBody,
		MaxBlockInstrs:   *maxInstrs,
		AnalysisTimeout:  *analysisTimeout,
		MaxSweepVariants: *maxSweepVariants,
		JobsDir:          *jobsDir,
		JobWorkers:       *jobWorkers,
		AccessLog:        log.Default(),
		Models:           models,
	})
	if err != nil {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	if *jobsDir != "" {
		log.Printf("serve: durable job queue at %s", *jobsDir)
	}

	if *pprofAddr != "" {
		// The profiler gets its own mux on its own (loopback) listener:
		// pprof endpoints leak heap contents and must never ride the
		// public API handler or inherit its middleware.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "serve: -pprof: %v\n", err)
			os.Exit(1)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(ln, pmux); err != nil {
				log.Printf("serve: pprof listener: %v", err)
			}
		}()
		log.Printf("serve: pprof on http://%s/debug/pprof/", ln.Addr())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	// Graceful shutdown on SIGINT/SIGTERM: drain in-flight requests,
	// checkpoint the job queue (running items revert to pending so a
	// restart resumes them), then flush any active pprof profiles.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("serve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "serve: shutdown: %v\n", err)
		}
		api.Close()
		if peer != nil {
			// Drain queued write-behind PUTs so a cleanly stopped replica
			// leaves its peer as warm as possible.
			peer.Close()
		}
		close(idle)
	}()

	log.Printf("serve: listening on %s (pipeline j=%d)", *addr, nw)
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	<-idle
	stopProfiles()
}
