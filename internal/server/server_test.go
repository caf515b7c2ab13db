package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"asap/internal/config"
	"asap/internal/runspec"
	"asap/internal/workload"
)

// testSpec is a small spec that simulates in milliseconds.
func testSpec(t *testing.T) (runspec.RunSpec, []byte) {
	t.Helper()
	p := workload.Default()
	p.Threads = 2
	p.OpsPerThread = 20
	spec := runspec.New("cceh", "asap_rp", p, config.Default())
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return spec, canon
}

func newTestServer(t *testing.T, storeDir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{StoreDir: storeDir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSubmitTwiceByteIdentical is the service's core contract: the same
// spec submitted twice simulates once, and the second response is served
// byte-for-byte from the store with a hit disposition.
func TestSubmitTwiceByteIdentical(t *testing.T) {
	spec, canon := testSpec(t)
	s, ts := newTestServer(t, t.TempDir())

	resp1, body1 := post(t, ts.URL+"/v1/runs", canon)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d: %s", resp1.StatusCode, body1)
	}
	if c := resp1.Header.Get("X-Asap-Cache"); c != "miss" {
		t.Fatalf("first submit: X-Asap-Cache = %q, want miss", c)
	}

	resp2, body2 := post(t, ts.URL+"/v1/runs", canon)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: status %d: %s", resp2.StatusCode, body2)
	}
	if c := resp2.Header.Get("X-Asap-Cache"); c != "hit" {
		t.Fatalf("second submit: X-Asap-Cache = %q, want hit", c)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("identical specs got different bytes:\n--- first\n%s\n--- second\n%s", body1, body2)
	}

	var env Envelope
	if err := json.Unmarshal(body1, &env); err != nil {
		t.Fatalf("response is not an Envelope: %v", err)
	}
	if env.Hash != spec.MustHash() {
		t.Fatalf("envelope hash %s, want %s", env.Hash, spec.MustHash())
	}
	if env.Result.Cycles == 0 {
		t.Fatal("result has zero cycles")
	}
	if runs := s.executed.Load(); runs != 1 {
		t.Fatalf("two identical submissions executed %d simulations, want 1", runs)
	}

	// A field-reordered, re-whitespaced rendering of the same spec maps to
	// the same content address, so it too is a hit with identical bytes.
	var loose map[string]any
	if err := json.Unmarshal(canon, &loose); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.MarshalIndent(loose, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	resp3, body3 := post(t, ts.URL+"/v1/runs", reordered)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Asap-Cache") != "hit" {
		t.Fatalf("reordered spec: status %d cache %q, want 200 hit", resp3.StatusCode, resp3.Header.Get("X-Asap-Cache"))
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("reordered spec got different bytes")
	}
}

// TestConcurrentSubmitsShareOneRun: the runs table is the only
// singleflight, so clients submitting one spec at once cost one
// simulation and all get its bytes, while distinct specs run side by side
// on the shared machine pool.
func TestConcurrentSubmitsShareOneRun(t *testing.T) {
	const clients = 8
	spec, canon := testSpec(t)
	other := spec
	other.Workload = "nstore"
	otherCanon, err := other.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, t.TempDir())
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := range clients {
		go func() {
			defer wg.Done()
			body := canon
			if i%2 == 1 {
				body = otherCanon
			}
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d, %v: %s", i, resp.StatusCode, err, buf.Bytes())
			}
			bodies[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i := 2; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[i%2]) {
			t.Fatalf("client %d got other bytes than client %d", i, i%2)
		}
	}
	if n := s.executed.Load(); n != 2 {
		t.Fatalf("%d clients of two specs executed %d simulations, want 2", clients, n)
	}
}

// TestRestartServesFromStore proves persistence: a second server over the
// same store directory answers without simulating.
func TestRestartServesFromStore(t *testing.T) {
	_, canon := testSpec(t)
	dir := t.TempDir()

	_, ts1 := newTestServer(t, dir)
	resp1, body1 := post(t, ts1.URL+"/v1/runs", canon)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first server: status %d: %s", resp1.StatusCode, body1)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, dir)
	resp2, body2 := post(t, ts2.URL+"/v1/runs", canon)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted server: status %d: %s", resp2.StatusCode, body2)
	}
	if c := resp2.Header.Get("X-Asap-Cache"); c != "hit" {
		t.Fatalf("restarted server: X-Asap-Cache = %q, want hit", c)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("restarted server served different bytes than the original run")
	}
	if runs := s2.executed.Load(); runs != 0 {
		t.Fatalf("restarted server simulated %d runs, want 0 (store answers)", runs)
	}
}

// TestAsyncSubmitAndPoll covers the 202 path: async submission returns
// the run id immediately; polling eventually yields the stored result,
// which matches a later synchronous submission byte-for-byte.
func TestAsyncSubmitAndPoll(t *testing.T) {
	spec, canon := testSpec(t)
	_, ts := newTestServer(t, t.TempDir())

	resp, body := post(t, ts.URL+"/v1/runs?async=1", canon)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID != spec.MustHash() || acc.Status != "running" {
		t.Fatalf("async submit returned id=%q status=%q", acc.ID, acc.Status)
	}

	var result []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := get(t, ts.URL+"/v1/runs/"+acc.ID)
		if resp.StatusCode == http.StatusOK {
			result = body
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poll: status %d: %s", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("run did not complete within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, syncBody := post(t, ts.URL+"/v1/runs", canon)
	if !bytes.Equal(result, syncBody) {
		t.Fatal("polled result differs from synchronous submission")
	}
}

// TestBadRequests walks the rejection paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	_, canon := testSpec(t)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"invalid JSON", "{not json", http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope","model":"asap_rp"}`, http.StatusBadRequest},
		{"unknown model", `{"workload":"cceh","model":"nope"}`, http.StatusBadRequest},
		{"unknown field", `{"workload":"cceh","model":"asap_rp","bogus":1}`, http.StatusBadRequest},
		{"too many ops", `{"workload":"cceh","model":"asap_rp","params":{"Threads":1024,"OpsPerThread":1048576}}`, http.StatusBadRequest},
		{"oversized body", `{"workload":"cceh","pad":"` + strings.Repeat("x", maxSpecBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/runs", []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body is not {\"error\": ...}: %s", body)
			}
		})
	}

	t.Run("malformed run id", func(t *testing.T) {
		resp, _ := get(t, ts.URL+"/v1/runs/not-a-hash")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown run id", func(t *testing.T) {
		resp, _ := get(t, ts.URL+"/v1/runs/"+strings.Repeat("0", runspec.HashLen))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
	// Sanity: the server still works after all those rejections.
	resp, _ := post(t, ts.URL+"/v1/runs", canon)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid spec after rejections: status %d", resp.StatusCode)
	}
}

// TestStatsEndpoint checks the counters tell the story of the requests
// made against them.
func TestStatsEndpoint(t *testing.T) {
	_, canon := testSpec(t)
	_, ts := newTestServer(t, t.TempDir())

	post(t, ts.URL+"/v1/runs", canon)
	post(t, ts.URL+"/v1/runs", canon)

	resp, body := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var p statsPayload
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Server.Submitted != 2 || p.Server.CacheMisses != 1 || p.Server.CacheHits != 1 {
		t.Fatalf("stats = submitted %d, misses %d, hits %d; want 2, 1, 1",
			p.Server.Submitted, p.Server.CacheMisses, p.Server.CacheHits)
	}
	if p.Server.RunsExecuted != 1 || p.Server.StoreEntries != 1 {
		t.Fatalf("stats = runsExecuted %d, storeEntries %d; want 1, 1",
			p.Server.RunsExecuted, p.Server.StoreEntries)
	}
	if len(p.Registry) == 0 {
		t.Fatal("stats registry is empty")
	}
}

// TestHealthz is trivial but CI's service job curls it first.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp, body := get(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}
}

// TestFailedRunIsReported covers the error path end to end: a spec that
// passes admission but fails inside the machine yields a 500 whose body
// names the failure, the failure is cached (resubmission serves it
// without re-simulating), and unrelated specs still run.
func TestFailedRunIsReported(t *testing.T) {
	// RTEntries=-1 passes config.Validate (it only checks what the paper
	// parameterizes) but machine construction refuses a speculative model
	// without a recovery table.
	spec := runspec.New("cceh", "asap_rp", workload.Default(), config.Default())
	spec.Config.RTEntries = -1
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, t.TempDir())

	resp1, body1 := post(t, ts.URL+"/v1/runs", b)
	if resp1.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bad machine config: status %d, want 500: %s", resp1.StatusCode, body1)
	}
	if !strings.Contains(string(body1), "recovery table") {
		t.Fatalf("error body does not name the failure: %s", body1)
	}

	resp2, _ := post(t, ts.URL+"/v1/runs", b)
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("resubmitted failure: status %d, want cached 500", resp2.StatusCode)
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	var p statsPayload
	if err := json.Unmarshal(stats, &p); err != nil {
		t.Fatal(err)
	}
	if p.Server.Failures != 1 {
		t.Fatalf("failures = %d after two submissions of one bad spec, want 1 (cached)", p.Server.Failures)
	}

	// The failure did not poison the service: a good spec still runs.
	_, canon := testSpec(t)
	resp3, body3 := post(t, ts.URL+"/v1/runs", canon)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("good spec after failure: status %d: %s", resp3.StatusCode, body3)
	}
}

// TestServerKeepsNothingPerRun is the soak check that the store is the
// only cache: after warm-up, 200 more distinct specs, each simulated and
// stored, leave the server's live heap within 1 MB of where it was. A
// server that kept each run's trace, plan or Result would grow by about
// 15 KB a spec at this size.
func TestServerKeepsNothingPerRun(t *testing.T) {
	const warm, soak = 20, 200
	workloads := []string{"cceh", "nstore", "p_art", "memcached"}
	s, ts := newTestServer(t, t.TempDir())
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var before uint64
	for k := 0; k < warm+soak; k++ {
		if k == warm {
			before = heap()
		}
		p := workload.Default()
		p.Threads = 2
		p.OpsPerThread = 20
		p.Seed = uint64(k) + 1
		canon, err := runspec.New(workloads[k%len(workloads)], "asap_rp", p, config.Default()).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, ts.URL+"/v1/runs", canon)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Asap-Cache") != "miss" {
			t.Fatalf("spec %d: status %d cache %q: %s", k, resp.StatusCode, resp.Header.Get("X-Asap-Cache"), body)
		}
	}
	after := heap()
	if n := s.executed.Load(); n != warm+soak {
		t.Fatalf("executed %d simulations, want %d", n, warm+soak)
	}
	if after > before && after-before >= 1<<20 {
		t.Fatalf("live heap grew %d KB over %d distinct specs (%d -> %d bytes), want under 1 MB",
			(after-before)>>10, soak, before, after)
	}
	t.Logf("live heap %d -> %d bytes over %d specs", before, after, soak)
}
