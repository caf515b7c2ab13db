package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"asap/internal/stats"
)

// Per-run span distributions, recorded into the server's aggregate Set
// and rendered by /metrics alongside the simulator vocabulary. Millis
// for the coarse spans, micros for the fast ones: the registry stores
// integers, so the unit is chosen to keep one tick meaningful.
var (
	kRunQueueWait = stats.RegisterDist("runQueueWaitMillis", "per-run wall milliseconds between admission and simulation start")
	kRunSimulate  = stats.RegisterDist("runSimulateMillis", "per-run wall milliseconds spent simulating")
	kRunEncode    = stats.RegisterDist("runEncodeMicros", "per-run wall microseconds spent encoding the result envelope")
	kRunStore     = stats.RegisterDist("runStoreMicros", "per-run wall microseconds spent persisting the envelope")
)

// recordSpans files one run's span breakdown into the aggregate set.
// Zero encode/store spans (failed runs never encode; failed stores are
// not timings) are skipped rather than recorded as instant successes.
func (s *Server) recordSpans(queueWait, simulate, encode, store time.Duration) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	s.agg.Observe(kRunQueueWait, uint64(queueWait.Milliseconds()))
	s.agg.Observe(kRunSimulate, uint64(simulate.Milliseconds()))
	if encode > 0 {
		s.agg.Observe(kRunEncode, uint64(encode.Microseconds()))
	}
	if store > 0 {
		s.agg.Observe(kRunStore, uint64(store.Microseconds()))
	}
}

// durationBuckets are the request-latency histogram bounds in seconds.
// Requests span four orders of magnitude — a healthz probe is tens of
// microseconds, a blocking publication-scale submit tens of seconds — so
// the buckets are log-spaced rather than many and linear.
var durationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// httpMetrics accumulates per-route request counters and latency
// histograms for the middleware. A plain mutex over small maps: the
// per-request cost is dwarfed by request handling itself, and rendering
// under the same lock gives scrapes a consistent view.
type httpMetrics struct {
	mu       sync.Mutex
	requests map[requestKey]uint64
	latency  map[routeKey]*latencyHist
}

type requestKey struct {
	method string
	route  string
	code   int
}

type routeKey struct {
	method string
	route  string
}

type latencyHist struct {
	buckets []uint64 // len(durationBuckets)+1; last bucket is +Inf
	count   uint64
	sum     float64 // seconds
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{
		requests: make(map[requestKey]uint64),
		latency:  make(map[routeKey]*latencyHist),
	}
}

func (m *httpMetrics) record(method, route string, code int, d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{method, route, code}]++
	h := m.latency[routeKey{method, route}]
	if h == nil {
		h = &latencyHist{buckets: make([]uint64, len(durationBuckets)+1)}
		m.latency[routeKey{method, route}] = h
	}
	i := 0
	for i < len(durationBuckets) && secs > durationBuckets[i] {
		i++
	}
	h.buckets[i]++
	h.count++
	h.sum += secs
}

// writeProm renders the request counters and latency histograms in
// sorted key order (scrape-to-scrape stable for an unchanged server).
func (m *httpMetrics) writeProm(w *bytes.Buffer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP asapd_requests_total HTTP requests served, by method, route pattern, and status code\n")
	fmt.Fprintf(w, "# TYPE asapd_requests_total counter\n")
	rks := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		rks = append(rks, k)
	}
	sort.Slice(rks, func(i, j int) bool {
		a, b := rks[i], rks[j]
		if a.route != b.route {
			return a.route < b.route
		}
		if a.method != b.method {
			return a.method < b.method
		}
		return a.code < b.code
	})
	for _, k := range rks {
		fmt.Fprintf(w, "asapd_requests_total{method=%q,route=%q,code=\"%d\"} %d\n", k.method, k.route, k.code, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP asapd_request_duration_seconds HTTP request latency, by method and route pattern\n")
	fmt.Fprintf(w, "# TYPE asapd_request_duration_seconds histogram\n")
	lks := make([]routeKey, 0, len(m.latency))
	for k := range m.latency {
		lks = append(lks, k)
	}
	sort.Slice(lks, func(i, j int) bool {
		a, b := lks[i], lks[j]
		if a.route != b.route {
			return a.route < b.route
		}
		return a.method < b.method
	})
	for _, k := range lks {
		h := m.latency[k]
		cum := uint64(0)
		for i, ub := range durationBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(w, "asapd_request_duration_seconds_bucket{method=%q,route=%q,le=%q} %d\n",
				k.method, k.route, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.buckets[len(durationBuckets)]
		fmt.Fprintf(w, "asapd_request_duration_seconds_bucket{method=%q,route=%q,le=\"+Inf\"} %d\n", k.method, k.route, cum)
		fmt.Fprintf(w, "asapd_request_duration_seconds_sum{method=%q,route=%q} %s\n",
			k.method, k.route, strconv.FormatFloat(h.sum, 'g', -1, 64))
		fmt.Fprintf(w, "asapd_request_duration_seconds_count{method=%q,route=%q} %d\n", k.method, k.route, h.count)
	}
}

// handleMetrics renders the Prometheus text-format exposition: server
// lifecycle counters and gauges (asapd_*), the request metrics from the
// middleware, and — under the asap_ prefix — the complete registered
// stats vocabulary aggregated across every executed run, spans included.
// The whole page is assembled in a buffer and written at once so a
// scrape racing a completing run still reads one consistent snapshot per
// section. Scrapes do not count themselves (see instrument), so an idle
// server exposes byte-identical pages.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, err := s.store.Len()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	runs, cycles := s.h.Perf()
	s.mu.Lock()
	inflightRuns := len(s.runs)
	s.mu.Unlock()

	var b bytes.Buffer
	stats.WriteCounterProm(&b, "asapd_submitted", "RunSpecs accepted by POST /v1/runs", u64(s.submitted.Load()))
	stats.WriteCounterProm(&b, "asapd_cache_hits", "submissions answered from the content-addressed store", u64(s.cacheHits.Load()))
	stats.WriteCounterProm(&b, "asapd_cache_misses", "submissions that triggered a new simulation", u64(s.misses.Load()))
	stats.WriteCounterProm(&b, "asapd_inflight_joins", "submissions that joined an already-running simulation", u64(s.inflight.Load()))
	stats.WriteCounterProm(&b, "asapd_failures", "simulations that returned an error", u64(s.failures.Load()))
	stats.WriteCounterProm(&b, "asapd_store_errors", "result-store writes that failed", u64(s.storeErrors.Load()))
	stats.WriteCounterProm(&b, "asapd_runs_executed", "simulations executed by the harness engine", uint64(runs))
	stats.WriteCounterProm(&b, "asapd_simulated_cycles", "simulated cycles accumulated across executed runs", cycles)
	stats.WriteGaugeProm(&b, "asapd_store_entries", "envelopes in the content-addressed store", float64(entries))
	stats.WriteGaugeProm(&b, "asapd_inflight_runs", "runs currently tracked as executing", float64(inflightRuns))
	stats.WriteGaugeProm(&b, "asapd_workers", "harness worker-pool size", float64(s.h.Parallelism()))
	s.httpm.writeProm(&b)
	s.aggMu.Lock()
	stats.WriteProm(&b, "asap_", s.agg)
	s.aggMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// u64 clamps a server counter (monotonic, but typed int64 for atomics)
// for exposition.
func u64(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}
