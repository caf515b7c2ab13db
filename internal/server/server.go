// Package server implements asapd: a long-running HTTP/JSON simulation
// service over the experiment harness.
//
// Every simulation is a pure function of its runspec.RunSpec, so the
// service is a cache hierarchy over that key:
//
//  1. the content-addressed on-disk Store (survives restarts, shareable
//     between daemons pointed at one directory),
//  2. the harness engine's in-memory singleflight cache, which also
//     dedupes identical in-flight requests — N clients submitting one
//     spec cost one simulation,
//  3. an actual run on the harness worker pool, bounded by Parallel.
//
// Completed results are encoded once (Envelope) and served verbatim ever
// after: responses for one spec are byte-identical across requests and
// restarts, with the X-Asap-Cache header distinguishing hit, miss, and
// inflight (joined a running simulation). Progress of in-flight runs
// streams out of the machine's periodic sampler through an obs.Progress
// snapshot, polled by the status endpoint and pushed by the SSE stream.
//
// The service is observable end to end: every request is logged as one
// structured slog line (method, route, status, duration, run hash, cache
// disposition) and counted into per-route request counters and latency
// histograms; run lifecycle events (admitted, started, finished, stored)
// carry the RunSpec hash; and GET /metrics exposes it all — server
// counters, request histograms, per-run span timings, and the aggregate
// simulator stats vocabulary — in Prometheus text format.
//
// Endpoints:
//
//	POST /v1/runs               submit a RunSpec; result, or 202 + id with ?async=1
//	GET  /v1/runs/{id}          status (with progress snapshot) or result by content address
//	GET  /v1/runs/{id}/events   Server-Sent Events progress stream for an in-flight run
//	GET  /v1/healthz            liveness
//	GET  /v1/stats              server counters + the stats registry vocabulary
//	GET  /metrics               Prometheus text-format exposition
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"asap/internal/harness"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/obs"
	"asap/internal/runspec"
	"asap/internal/stats"
	"asap/internal/workload"
)

// Options configures a Server.
type Options struct {
	// StoreDir roots the content-addressed result store. Required.
	StoreDir string
	// Parallel bounds concurrently executing simulations (0 = GOMAXPROCS).
	Parallel int
	// MaxTotalOps caps Threads*OpsPerThread per request (0 = 1<<20).
	// Publication scale is 4*400; the cap is a guard against requests
	// whose simulation would hold a worker for hours, not a security
	// boundary.
	MaxTotalOps int
	// MaxCores caps Config.Cores per request (0 = 256): per-core
	// structures are allocated eagerly, so an absurd core count is
	// rejected rather than materialized.
	MaxCores int
	// Logger receives one structured record per request and per
	// run-lifecycle event (admitted, started, finished, stored). Nil
	// discards. All server output flows through this one logger, so log
	// ordering under concurrent runs is whatever the handler serializes —
	// there is no second unsynchronized path.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// ProgressInterval paces the SSE progress stream (and bounds how
	// stale a pushed snapshot can be). 0 = 250ms.
	ProgressInterval time.Duration
}

// run tracks one submitted spec from acceptance to completion.
type run struct {
	spec     runspec.RunSpec
	canon    []byte // canonical spec bytes
	hash     string
	progress *obs.Progress

	// Span anchors. admitted is set when the run entry is created;
	// started is set by the harness Observe hook, which fires on the
	// leader's execute goroutine after machine construction and before
	// Run — so both are written before ru.done closes and the only
	// cross-goroutine reads happen after it.
	admitted time.Time
	started  time.Time

	done chan struct{} // closed when body/err are final
	body []byte        // stored envelope bytes on success
	err  error
}

// Server is the asapd request handler. Create with New, mount Handler.
type Server struct {
	h                *harness.Harness
	store            *Store
	log              *slog.Logger
	maxTotalOps      int
	maxCores         int
	pprof            bool
	progressInterval time.Duration
	httpm            *httpMetrics

	mu   sync.Mutex
	runs map[string]*run // in-flight and failed runs by hash

	// agg aggregates simulator stats across every executed run plus the
	// per-run span distributions (runQueueWaitMillis etc.), for the
	// /metrics exposition. Guarded by aggMu: runs complete on worker
	// goroutines while scrapes read concurrently.
	aggMu sync.Mutex
	agg   *stats.Set

	submitted   atomic.Int64 // POST /v1/runs requests accepted
	cacheHits   atomic.Int64 // answered from the store
	inflight    atomic.Int64 // joined a run already executing
	misses      atomic.Int64 // triggered a new simulation
	failures    atomic.Int64 // simulations that returned an error
	storeErrors atomic.Int64 // store writes that failed (results still served)
}

// discardHandler is the nil-Logger default: disabled at the Enabled
// gate, so discarded records cost no attribute materialization.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// New builds a server over a fresh harness. The harness runs in
// KeepGoing mode — a failed spec stays failed under its own hash but
// never poisons unrelated requests — and the server's Observe hook
// attaches a progress sink to every leader simulation.
func New(o Options) (*Server, error) {
	st, err := OpenStore(o.StoreDir)
	if err != nil {
		return nil, err
	}
	if o.MaxTotalOps == 0 {
		o.MaxTotalOps = 1 << 20
	}
	if o.MaxCores == 0 {
		o.MaxCores = 256
	}
	if o.Logger == nil {
		o.Logger = slog.New(discardHandler{})
	}
	if o.ProgressInterval == 0 {
		o.ProgressInterval = 250 * time.Millisecond
	}
	s := &Server{
		store:            st,
		log:              o.Logger,
		maxTotalOps:      o.MaxTotalOps,
		maxCores:         o.MaxCores,
		pprof:            o.Pprof,
		progressInterval: o.ProgressInterval,
		httpm:            newHTTPMetrics(),
		runs:             make(map[string]*run),
		agg:              stats.New(),
	}
	s.h = harness.New(harness.Options{
		Parallel:  o.Parallel,
		KeepGoing: true,
		Observe:   s.observe,
	})
	return s, nil
}

// Store exposes the underlying result store (tests and stats).
func (s *Server) Store() *Store { return s.store }

// observe is the harness Observe hook: it wires the submitting run's
// progress sink into the machine about to execute and stamps the
// queue-wait → simulate span boundary. Specs the harness runs without a
// tracked run entry (none today) are simply not observed.
func (s *Server) observe(spec runspec.RunSpec, m *machine.Machine) {
	s.mu.Lock()
	ru := s.runs[spec.MustHash()]
	s.mu.Unlock()
	if ru != nil {
		ru.started = time.Now()
		m.AttachProgress(ru.progress)
		s.log.Info("run started", "run", ru.hash, "spec", ru.spec.String())
	}
}

// Handler mounts the endpoint routes, each wrapped in the metrics and
// logging middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(label, h))
	}
	route("POST /v1/runs", "/v1/runs", s.handleSubmit)
	route("GET /v1/runs/{id}", "/v1/runs/{id}", s.handleGet)
	route("GET /v1/runs/{id}/events", "/v1/runs/{id}/events", s.handleEvents)
	route("GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	route("GET /v1/stats", "/v1/stats", s.handleStats)
	route("GET /metrics", "/metrics", s.handleMetrics)
	if s.pprof {
		// net/http/pprof registers on http.DefaultServeMux in its init;
		// mount its handlers on our mux explicitly instead.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the response status for the middleware while
// passing flushes through (the SSE stream needs the underlying Flusher).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request accounting: one structured log
// record and one (counter, latency-histogram) observation per request,
// labeled by the mounted route pattern. The /metrics route observes
// everything else but not itself — scrapes stay out of the request
// metrics, which keeps back-to-back scrapes of an idle server
// byte-identical (golden-testable) instead of perturbing what they read.
func (s *Server) instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		d := time.Since(start)
		if label == "/metrics" {
			s.log.Debug("request", "method", r.Method, "route", label, "status", rec.status, "durationMs", float64(d.Microseconds())/1e3)
			return
		}
		s.httpm.record(r.Method, label, rec.status, d)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", label),
			slog.Int("status", rec.status),
			slog.Float64("durationMs", float64(d.Microseconds())/1e3),
			slog.String("run", rec.Header().Get("X-Asap-Run")),
			slog.String("cache", rec.Header().Get("X-Asap-Cache")),
		)
	}
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\n  \"error\": %s\n}\n", msg)
}

// serveEnvelope writes stored envelope bytes with cache disposition.
func serveEnvelope(w http.ResponseWriter, hash, disposition string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Asap-Cache", disposition)
	w.Header().Set("X-Asap-Run", hash)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// maxSpecBytes bounds the request body; a RunSpec is well under 4 KB.
const maxSpecBytes = 1 << 20

// handleSubmit accepts a RunSpec, answers from the store when possible,
// otherwise joins or starts the simulation. With ?async=1 it returns 202
// and the run id immediately; otherwise it blocks until the result is
// ready and returns it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		jsonError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := runspec.Parse(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.admit(spec); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canon, err := spec.Canonical()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	hash := spec.MustHash()
	s.submitted.Add(1)

	// Layer 1: the content-addressed store.
	if stored, ok, err := s.store.Get(hash); err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	} else if ok {
		s.cacheHits.Add(1)
		serveEnvelope(w, hash, "hit", stored)
		return
	}

	// Layer 2/3: join an in-flight run or start one.
	ru, started := s.startRun(spec, canon, hash)
	disposition := "inflight"
	if started {
		s.misses.Add(1)
		disposition = "miss"
	} else {
		s.inflight.Add(1)
	}

	if r.URL.Query().Get("async") != "" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Asap-Cache", disposition)
		w.Header().Set("X-Asap-Run", hash)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\n  \"id\": %q,\n  \"status\": \"running\",\n  \"spec\": %q\n}\n", hash, spec)
		return
	}

	<-ru.done
	if ru.err != nil {
		jsonError(w, http.StatusInternalServerError, "%s: %v", spec, ru.err)
		return
	}
	serveEnvelope(w, hash, disposition, ru.body)
}

// admit enforces the per-request resource caps.
func (s *Server) admit(spec runspec.RunSpec) error {
	if !workload.Known(spec.Workload) {
		return fmt.Errorf("unknown workload %q (have %v)", spec.Workload, workload.Names())
	}
	if !model.Known(spec.Model) {
		return fmt.Errorf("unknown model %q (have %v)", spec.Model, model.ExtendedNames())
	}
	if total := spec.Params.Threads * spec.Params.OpsPerThread; total > s.maxTotalOps {
		return fmt.Errorf("request of %d total ops exceeds the %d-op limit", total, s.maxTotalOps)
	}
	if spec.Config.Cores > s.maxCores {
		return fmt.Errorf("request of %d cores exceeds the %d-core limit", spec.Config.Cores, s.maxCores)
	}
	return nil
}

// startRun returns the tracked run for hash, creating and launching it
// when absent. started reports whether this call launched the leader.
// The harness engine below provides the actual singleflight — even two
// racing startRun leaders for one hash would simulate once — but the
// tracked entry carries the progress sink, the span anchors, and the
// async status.
func (s *Server) startRun(spec runspec.RunSpec, canon []byte, hash string) (ru *run, started bool) {
	s.mu.Lock()
	if ru = s.runs[hash]; ru != nil {
		s.mu.Unlock()
		return ru, false
	}
	ru = &run{
		spec:     spec,
		canon:    canon,
		hash:     hash,
		progress: &obs.Progress{},
		admitted: time.Now(),
		done:     make(chan struct{}),
	}
	s.runs[hash] = ru
	s.mu.Unlock()

	s.log.Info("run admitted", "run", hash, "spec", spec.String())
	go s.execute(ru)
	return ru, true
}

// execute runs one spec through the harness and files the result,
// recording the span breakdown (queue wait → simulate → encode → store)
// into the aggregate registry and the first three into the envelope's
// timing block. On success the run entry is dropped — the store answers
// from then on; on failure it stays, serving the cached error (the
// harness caches it under the same spec, so the failure is final for
// this process).
func (s *Server) execute(ru *run) {
	res, err := s.h.RunSpec(ru.spec)
	simDone := time.Now()
	var queueWait, simulate time.Duration
	if !ru.started.IsZero() {
		queueWait = ru.started.Sub(ru.admitted)
		simulate = simDone.Sub(ru.started)
	}
	if err != nil {
		s.failures.Add(1)
		s.recordSpans(queueWait, simulate, 0, 0)
		s.log.Error("run failed", "run", ru.hash, "spec", ru.spec.String(), "err", err.Error(),
			"queueWaitMs", ms(queueWait), "simulateMs", ms(simulate))
		ru.err = err
		close(ru.done)
		return
	}

	// Encode twice: the first pass measures the encode span, the second
	// embeds the measured timing block into the bytes the store keeps.
	encStart := time.Now()
	if _, err := encodeEnvelope(ru.hash, ru.canon, res, nil); err != nil {
		s.failures.Add(1)
		ru.err = err
		close(ru.done)
		return
	}
	encode := time.Since(encStart)
	body, err := encodeEnvelope(ru.hash, ru.canon, res, &TimingJSON{
		QueueWaitNS: queueWait.Nanoseconds(),
		SimulateNS:  simulate.Nanoseconds(),
		EncodeNS:    encode.Nanoseconds(),
	})
	if err != nil {
		s.failures.Add(1)
		ru.err = err
		close(ru.done)
		return
	}

	storeStart := time.Now()
	storeDur := time.Duration(0)
	if err := s.store.Put(ru.hash, body); err != nil {
		// The result is still valid and served from memory; only
		// persistence failed. Count it and carry on.
		s.storeErrors.Add(1)
		s.log.Error("store failed", "run", ru.hash, "err", err.Error())
	} else {
		storeDur = time.Since(storeStart)
		s.log.Info("run stored", "run", ru.hash, "bytes", len(body), "storeMs", ms(storeDur))
	}

	// File the spans and merge the run's stats into the aggregate before
	// ru.done releases waiters: a client that saw its POST return can
	// scrape /metrics and find this run already accounted.
	s.recordSpans(queueWait, simulate, encode, storeDur)
	s.aggMu.Lock()
	s.agg.Merge(res.Stats)
	s.aggMu.Unlock()
	s.log.Info("run finished", "run", ru.hash, "spec", ru.spec.String(), "cycles", uint64(res.Cycles),
		"queueWaitMs", ms(queueWait), "simulateMs", ms(simulate))

	// Drop the run entry before ru.done releases waiters, for the same
	// reason: the store answers from now on, and a client that saw its
	// POST return must not find the run still counted as in flight.
	ru.body = body
	s.mu.Lock()
	delete(s.runs, ru.hash)
	s.mu.Unlock()
	close(ru.done)
}

// ms renders a duration as fractional milliseconds for log records.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// handleGet reports one run by content address: the stored result (the
// exact bytes POST served), in-flight progress, or the cached failure.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("id")
	if !runspec.ValidHash(hash) {
		jsonError(w, http.StatusBadRequest, "malformed run id %q (want %d hex chars)", hash, runspec.HashLen)
		return
	}
	if stored, ok, err := s.store.Get(hash); err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	} else if ok {
		serveEnvelope(w, hash, "hit", stored)
		return
	}
	s.mu.Lock()
	ru := s.runs[hash]
	s.mu.Unlock()
	if ru == nil {
		jsonError(w, http.StatusNotFound, "no run %s (submit its spec to POST /v1/runs)", hash)
		return
	}
	select {
	case <-ru.done:
		if ru.err != nil {
			jsonError(w, http.StatusInternalServerError, "%s: %v", ru.spec, ru.err)
			return
		}
		serveEnvelope(w, hash, "hit", ru.body)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Asap-Run", hash)
		w.WriteHeader(http.StatusAccepted)
		b, _ := json.MarshalIndent(runStatus{
			ID:       hash,
			Status:   "running",
			Spec:     ru.spec.String(),
			Progress: progressJSON(ru.progress.Snapshot()),
		}, "", "  ")
		w.Write(append(b, '\n'))
	}
}

// runStatus is the in-flight GET /v1/runs/{id} response shape.
type runStatus struct {
	ID       string       `json:"id"`
	Status   string       `json:"status"`
	Spec     string       `json:"spec"`
	Progress ProgressJSON `json:"progress"`
}

// ProgressJSON is the serialized obs.ProgressSnapshot, shared by the
// status endpoint and the SSE stream.
type ProgressJSON struct {
	Cycles       uint64 `json:"cycles"`
	Events       uint64 `json:"events"`
	OpsRetired   uint64 `json:"opsRetired"`
	PBOccupancy  uint64 `json:"pbOccupancy"`
	ETOccupancy  uint64 `json:"etOccupancy"`
	CyclesPerSec uint64 `json:"cyclesPerSec"`
}

func progressJSON(sn obs.ProgressSnapshot) ProgressJSON {
	return ProgressJSON{
		Cycles:       sn.Cycles,
		Events:       sn.Events,
		OpsRetired:   sn.OpsRetired,
		PBOccupancy:  sn.PBOccupancy,
		ETOccupancy:  sn.ETOccupancy,
		CyclesPerSec: sn.CyclesPerSec,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// statsPayload is the /v1/stats response shape.
type statsPayload struct {
	Server   serverStats          `json:"server"`
	Registry []stats.Registration `json:"registry"`
}

type serverStats struct {
	Submitted       int64  `json:"submitted"`
	CacheHits       int64  `json:"cacheHits"`
	CacheMisses     int64  `json:"cacheMisses"`
	InflightJoins   int64  `json:"inflightJoins"`
	Failures        int64  `json:"failures"`
	StoreErrors     int64  `json:"storeErrors"`
	RunsExecuted    int64  `json:"runsExecuted"`
	SimulatedCycles uint64 `json:"simulatedCycles"`
	StoreEntries    int    `json:"storeEntries"`
	Workers         int    `json:"workers"`
	InflightRuns    int    `json:"inflightRuns"`
}

// handleStats surfaces the server's own counters plus the simulator's
// registered stats vocabulary (every counter a stored result may carry,
// with its description — the Table VI legend, served).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries, err := s.store.Len()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	runs, cycles := s.h.Perf()
	s.mu.Lock()
	inflightRuns := len(s.runs)
	s.mu.Unlock()
	p := statsPayload{
		Server: serverStats{
			Submitted:       s.submitted.Load(),
			CacheHits:       s.cacheHits.Load(),
			CacheMisses:     s.misses.Load(),
			InflightJoins:   s.inflight.Load(),
			Failures:        s.failures.Load(),
			StoreErrors:     s.storeErrors.Load(),
			RunsExecuted:    runs,
			SimulatedCycles: cycles,
			StoreEntries:    entries,
			Workers:         s.h.Parallelism(),
			InflightRuns:    inflightRuns,
		},
		Registry: stats.Registered(),
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
