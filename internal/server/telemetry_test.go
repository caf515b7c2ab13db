package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/config"
	"asap/internal/runspec"
	"asap/internal/stats"
	"asap/internal/workload"
)

// logBuffer is a goroutine-safe sink for the JSON log lines a test
// server emits; lines() decodes them for field assertions.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// find returns log records whose msg matches.
func find(recs []map[string]any, msg string) []map[string]any {
	var out []map[string]any
	for _, r := range recs {
		if r["msg"] == msg {
			out = append(out, r)
		}
	}
	return out
}

func newLoggedServer(t *testing.T, o Options) (*Server, *httptest.Server, *logBuffer) {
	t.Helper()
	lb := &logBuffer{}
	o.Logger = slog.New(slog.NewJSONHandler(lb, nil))
	if o.StoreDir == "" {
		o.StoreDir = t.TempDir()
	}
	if o.Parallel == 0 {
		o.Parallel = 2
	}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, lb
}

// waitForLog polls until a record with msg appears (lifecycle records
// trail the request that triggered them by a goroutine hop).
func waitForLog(t *testing.T, lb *logBuffer, msg string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if recs := find(lb.lines(t), msg); len(recs) > 0 {
			return recs[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("log record %q never appeared", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStructuredRequestLogs: every request produces one structured
// record with method, route, status, and cache disposition, and the run
// lifecycle (admitted, started, stored, finished) is logged with the
// run's content hash.
func TestStructuredRequestLogs(t *testing.T) {
	spec, canon := testSpec(t)
	_, ts, lb := newLoggedServer(t, Options{})
	hash := spec.MustHash()

	post(t, ts.URL+"/v1/runs", canon) // miss
	post(t, ts.URL+"/v1/runs", canon) // hit
	waitForLog(t, lb, "run finished")

	recs := lb.lines(t)
	reqs := find(recs, "request")
	if len(reqs) != 2 {
		t.Fatalf("got %d request records, want 2: %+v", len(reqs), reqs)
	}
	for i, want := range []string{"miss", "hit"} {
		r := reqs[i]
		if r["method"] != "POST" || r["route"] != "/v1/runs" || r["status"] != float64(200) {
			t.Fatalf("request record %d = %+v", i, r)
		}
		if r["cache"] != want {
			t.Fatalf("request record %d cache = %v, want %q", i, r["cache"], want)
		}
		if r["run"] != hash {
			t.Fatalf("request record %d run = %v, want %s", i, r["run"], hash)
		}
		if _, ok := r["durationMs"].(float64); !ok {
			t.Fatalf("request record %d has no durationMs: %+v", i, r)
		}
	}

	for _, msg := range []string{"run admitted", "run started", "run stored", "run finished"} {
		evs := find(recs, msg)
		if len(evs) != 1 {
			t.Fatalf("got %d %q records, want 1", len(evs), msg)
		}
		if evs[0]["run"] != hash {
			t.Fatalf("%q record run = %v, want %s", msg, evs[0]["run"], hash)
		}
	}
	if fin := find(recs, "run finished")[0]; fin["cycles"] == float64(0) {
		t.Fatalf("run finished reports zero cycles: %+v", fin)
	}
}

// lineDiff lists the lines at which two scrapes differ, as "-first" /
// "+second" pairs, so a failed byte-stability check names the family that
// moved.
func lineDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	var out strings.Builder
	for i := 0; i < max(len(la), len(lb)); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			fmt.Fprintf(&out, "line %d:\n-%s\n+%s\n", i+1, x, y)
		}
	}
	return out.String()
}

// TestMetricsExposition: after a miss→hit pair, /metrics serves valid
// Prometheus text covering the server counters, the per-route request
// metrics, the span distributions, and the full simulator vocabulary —
// and an idle server's scrapes are byte-identical.
func TestMetricsExposition(t *testing.T) {
	_, canon := testSpec(t)
	_, ts, _ := newLoggedServer(t, Options{})

	post(t, ts.URL+"/v1/runs", canon)
	post(t, ts.URL+"/v1/runs", canon)

	resp, body1 := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	out := string(body1)

	for _, want := range []string{
		"asapd_submitted_total 2\n",
		"asapd_cache_hits_total 1\n",
		"asapd_cache_misses_total 1\n",
		"asapd_runs_executed_total 1\n",
		"asapd_store_entries 1\n",
		`asapd_requests_total{method="POST",route="/v1/runs",code="200"} 2`,
		`asapd_request_duration_seconds_bucket{method="POST",route="/v1/runs",le="+Inf"} 2`,
		`asapd_request_duration_seconds_count{method="POST",route="/v1/runs"} 2`,
		"asap_run_simulate_millis_count 1\n",
		"asap_run_encode_micros_count 1\n",
		"asap_run_store_micros_count 1\n",
		"# TYPE asap_pb_occupancy summary\n",
		"# TYPE asap_cycles_blocked_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(out, `route="/metrics"`) {
		t.Error("scrape counted itself into the request metrics")
	}

	// Byte-stability: nothing changed between scrapes (the scrape itself
	// is excluded from its own metrics), so the pages are identical.
	_, body2 := get(t, ts.URL+"/metrics")
	if !bytes.Equal(body1, body2) {
		t.Fatalf("consecutive scrapes of an idle server differ:\n%s", lineDiff(body1, body2))
	}

	if err := stats.CheckProm(bytes.NewReader(body1)); err != nil {
		t.Fatalf("exposition fails syntax check: %v", err)
	}
}

// sseSpec is big enough to span several progress intervals.
func sseSpec(t *testing.T) (runspec.RunSpec, []byte) {
	t.Helper()
	p := workload.Default()
	p.Threads = 4
	p.OpsPerThread = 8000
	spec := runspec.New("cceh", "asap_rp", p, config.Default())
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return spec, canon
}

// sseEvents reads one SSE stream to EOF, returning (event, data) pairs.
func sseEvents(t *testing.T, resp *http.Response) [][2]string {
	t.Helper()
	defer resp.Body.Close()
	var out [][2]string
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			out = append(out, [2]string{event, strings.TrimPrefix(line, "data: ")})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return out
}

// TestSSEProgressStream: the events endpoint streams at least two
// progress snapshots for an in-flight run — monotonic in simulated
// cycles — then a terminal done event, after which the stream closes.
func TestSSEProgressStream(t *testing.T) {
	spec, canon := sseSpec(t)
	_, ts, _ := newLoggedServer(t, Options{ProgressInterval: time.Millisecond})

	resp, body := post(t, ts.URL+"/v1/runs?async=1", canon)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}

	sresp, err := http.Get(ts.URL + "/v1/runs/" + spec.MustHash() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	evs := sseEvents(t, sresp)
	if len(evs) < 3 {
		t.Fatalf("got %d events, want >= 2 progress + done: %v", len(evs), evs)
	}
	last := evs[len(evs)-1]
	if last[0] != "done" {
		t.Fatalf("terminal event = %q, want done: %v", last[0], last)
	}
	var fin doneEvent
	if err := json.Unmarshal([]byte(last[1]), &fin); err != nil {
		t.Fatal(err)
	}
	if fin.ID != spec.MustHash() || fin.Status != "complete" {
		t.Fatalf("done payload = %+v", fin)
	}

	prev := uint64(0)
	progress := 0
	for _, ev := range evs[:len(evs)-1] {
		if ev[0] != "progress" {
			t.Fatalf("unexpected event %q before the terminal one", ev[0])
		}
		var p progressEvent
		if err := json.Unmarshal([]byte(ev[1]), &p); err != nil {
			t.Fatal(err)
		}
		if p.ID != spec.MustHash() {
			t.Fatalf("progress event for %q, want %s", p.ID, spec.MustHash())
		}
		if p.Cycles < prev {
			t.Fatalf("progress cycles went backwards: %d after %d", p.Cycles, prev)
		}
		prev = p.Cycles
		progress++
	}
	if progress < 2 {
		t.Fatalf("got %d progress events, want >= 2", progress)
	}
	if prev == 0 {
		t.Fatal("no progress event carried nonzero cycles")
	}

	// A finished run's stream answers with an immediate terminal event.
	sresp2, err := http.Get(ts.URL + "/v1/runs/" + spec.MustHash() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs2 := sseEvents(t, sresp2)
	if len(evs2) != 1 || evs2[0][0] != "done" {
		t.Fatalf("stored-run stream = %v, want single done event", evs2)
	}
}

// TestStatusProgressSnapshot: polling an in-flight run returns the
// structured progress object.
func TestStatusProgressSnapshot(t *testing.T) {
	spec, canon := sseSpec(t)
	_, ts, _ := newLoggedServer(t, Options{})

	post(t, ts.URL+"/v1/runs?async=1", canon)
	deadline := time.Now().Add(30 * time.Second)
	sawRunning := false
	for !sawRunning {
		resp, body := get(t, ts.URL+"/v1/runs/"+spec.MustHash())
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st runStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("status body: %v: %s", err, body)
			}
			if st.Status != "running" || st.ID != spec.MustHash() {
				t.Fatalf("status = %+v", st)
			}
			sawRunning = true
		case http.StatusOK:
			// Completed before we caught it mid-flight; the progress shape
			// was still validated by TestSSEProgressStream.
			return
		default:
			t.Fatalf("poll: status %d: %s", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never reached a terminal state")
		}
	}
}

// TestEnvelopeTiming: stored envelopes carry the span breakdown of the
// execution that produced them.
func TestEnvelopeTiming(t *testing.T) {
	_, canon := testSpec(t)
	_, ts, _ := newLoggedServer(t, Options{})
	resp, body := post(t, ts.URL+"/v1/runs", canon)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Timing == nil {
		t.Fatal("envelope has no timing block")
	}
	if env.Timing.SimulateNS <= 0 {
		t.Fatalf("timing.simulateNs = %d, want > 0", env.Timing.SimulateNS)
	}
	if env.Timing.EncodeNS <= 0 {
		t.Fatalf("timing.encodeNs = %d, want > 0", env.Timing.EncodeNS)
	}
}

// TestPprofGate: the profiling endpoints exist only behind the option.
func TestPprofGate(t *testing.T) {
	_, off, _ := newLoggedServer(t, Options{})
	resp, _ := get(t, off.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without the flag: status %d, want 404", resp.StatusCode)
	}
	_, on, _ := newLoggedServer(t, Options{Pprof: true})
	resp, body := get(t, on.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("pprof with the flag: status %d", resp.StatusCode)
	}
}
