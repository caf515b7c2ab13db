// Command asapd serves simulations over HTTP/JSON: a long-running
// daemon that simulates each spec it has not seen on a bounded worker
// pool and keeps the result in a content-addressed store. Determinism makes every result globally cacheable — identical
// RunSpecs are simulated once, persisted under the SHA-256 of their
// canonical form, and answered byte-identically forever after.
//
// Usage:
//
//	asapd -addr :8080 -store /var/lib/asap/store
//	asapd -addr 127.0.0.1:8321 -store /tmp/asap-store -parallel 8 -pprof
//
// Endpoints:
//
//	POST /v1/runs               submit a RunSpec JSON (see runspec); add ?async=1 for 202 + id
//	GET  /v1/runs/{id}          status (with a progress snapshot) or result by content address
//	GET  /v1/runs/{id}/events   live progress stream (Server-Sent Events)
//	GET  /v1/healthz            liveness
//	GET  /v1/stats              server counters + the stats registry vocabulary
//	GET  /metrics               Prometheus text-format exposition
//	GET  /debug/pprof/          Go profiling endpoints (only with -pprof)
//
// Submit with curl:
//
//	curl -s -X POST localhost:8080/v1/runs -d '{
//	  "workload": "cceh", "model": "asap_rp",
//	  "params": {"Threads": 4, "OpsPerThread": 400, "Seed": 1}
//	}'
//
// The X-Asap-Cache response header reports hit (served from the store),
// miss (simulated for this request), or inflight (joined a simulation
// another client started).
//
// Logs are structured JSON on stderr (log/slog): one line per request
// and per run-lifecycle event (admitted, started, finished, stored),
// each carrying the run's content hash. -quiet raises the level to
// warn+error, so failures still surface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asap/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		store    = flag.String("store", "", "content-addressed result store directory (required)")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		maxOps   = flag.Int("max-ops", 0, "per-request cap on Threads*OpsPerThread (0 = 1<<20)")
		pprof    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		quiet    = flag.Bool("quiet", false, "log only warnings and errors")
	)
	flag.Parse()
	if *store == "" {
		fmt.Fprintln(os.Stderr, "asapd: -store is required (the result store directory)")
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv, err := server.New(server.Options{
		StoreDir:    *store,
		Parallel:    *parallel,
		MaxTotalOps: *maxOps,
		Logger:      logger,
		Pprof:       *pprof,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "asapd:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "store", *store, "pprof", *pprof)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err.Error())
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "asapd:", err)
			os.Exit(1)
		}
	}
}
