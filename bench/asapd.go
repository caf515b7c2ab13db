package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/runspec"
	"asap/internal/server"
	"asap/internal/workload"
)

const (
	asapdWarm    = 20 // specs each round warms; hits repeat one of them
	asapdBlock   = 5  // each block of a client's requests holds one fresh spec
	asapdClients = 2
)

var asapdWorkloads = []string{"cceh", "nstore", "p_art", "memcached"}

// asapdSpec is the k-th spec of a run: 4 threads over one of
// asapdWorkloads under asap_rp, with a seed no other spec of the run
// shares, so it misses the store the first time it is sent.
func asapdSpec(seed uint64, k, ops int) []byte {
	p := workload.Default()
	p.OpsPerThread = ops
	p.Seed = seed<<20 | uint64(k)
	b, err := runspec.New(asapdWorkloads[k%len(asapdWorkloads)], model.NameASAPRP, p, config.Config{}).Canonical()
	if err != nil {
		panic(err) // every field of a RunSpec marshals
	}
	return b
}

// request is one POST /v1/runs: the spec bytes and, for a hit, the index
// of the warm spec it repeats (-1 for a fresh spec).
type request struct {
	body []byte
	warm int
}

// reply is what came back, timed at the client.
type reply struct {
	latency sample
	status  int
	cache   string
	body    []byte
	err     error
}

func post(c *http.Client, url string, body []byte) reply {
	start := time.Now()
	resp, err := c.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{latency: timed(start, time.Now()), status: resp.StatusCode, cache: resp.Header.Get("X-Asap-Cache"), body: b, err: err}
}

// daemon is one asapd instance: the server on a fresh store, behind an
// httptest server on loopback TCP.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	dir string
}

func startDaemon(tmp string) (*daemon, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "asapd-store-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{StoreDir: dir, Parallel: asapdClients})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

// stop closes the server, waiting for outstanding requests, and removes
// the store.
func (d *daemon) stop() {
	d.ts.Close()
	os.RemoveAll(d.dir)
}

// warm sends specs from asapdClients clients, each spec once, and returns
// the replies in spec order.
func (d *daemon) warm(specs [][]byte) []reply {
	out := make([]reply, len(specs))
	c := d.ts.Client()
	var wg sync.WaitGroup
	for lane := 0; lane < asapdClients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(specs); i += asapdClients {
				out[i] = post(c, d.ts.URL, specs[i])
			}
		}(lane)
	}
	wg.Wait()
	return out
}

// runAsapd serves a mixed request stream from asapd, in rounds. Each round
// starts asapd on an empty store and warms asapdWarm specs (set-up), then
// asapdClients clients each send sz.perClient blocking requests: in every
// block of asapdBlock, one fresh spec (a miss: generation, simulation,
// encoding, store write) and otherwise a repeat of a warm spec (a hit:
// parse, hash, store read). An item is one request, so item p50 is a hit
// and item p90 the median miss. Rounds keep the memory the daemon retains
// per distinct run bounded by the round, not by the run's length.
func runAsapd(r *runner) error {
	next := 0 // index of the run's next fresh spec
	r.startLoop()
	for round := 0; r.more(); round++ {
		if err := r.asapdRound(round, &next); err != nil {
			return err
		}
	}
	r.endLoop()
	if r.sz.pinned {
		r.checkPinned("asapd_mixed")
	}
	return nil
}

func (r *runner) asapdRound(round int, next *int) error {
	warm := make([][]byte, asapdWarm)
	for i := range warm {
		warm[i] = asapdSpec(r.opt.seed, *next, r.sz.asapdOps)
		*next++
	}
	var d *daemon
	var warmed []reply
	if err := r.timeSetup(func() (err error) {
		if d, err = startDaemon(r.opt.tmp); err == nil {
			warmed = d.warm(warm)
		}
		return err
	}); err != nil {
		return err
	}
	defer d.stop()
	for i, rep := range warmed {
		r.check(rep.err == nil && rep.status == http.StatusOK && rep.cache == "miss", 1, "warm spec %d: %v status %d cache %q", i, rep.err, rep.status, rep.cache)
	}

	plans := make([][]request, asapdClients)
	rnd := rng.New(r.opt.seed<<20 | uint64(round))
	for lane := range plans {
		for b := 0; b < r.sz.perClient/asapdBlock; b++ {
			fresh := rnd.Intn(asapdBlock)
			for i := 0; i < asapdBlock; i++ {
				if i == fresh {
					plans[lane] = append(plans[lane], request{body: asapdSpec(r.opt.seed, *next, r.sz.asapdOps), warm: -1})
					*next++
				} else {
					w := rnd.Intn(asapdWarm)
					plans[lane] = append(plans[lane], request{body: warm[w], warm: w})
				}
			}
		}
	}

	replies := make([][]reply, asapdClients)
	var wg sync.WaitGroup
	for lane := range plans {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			replies[lane] = r.asapdClient(d, lane, plans[lane])
		}(lane)
	}
	wg.Wait()

	for lane, plan := range plans {
		for i, req := range plan {
			rep := replies[lane][i]
			r.items = append(r.items, rep.latency)
			r.ops++
			switch rep.cache {
			case "hit":
				r.hits++
				r.hitTimes = append(r.hitTimes, rep.latency)
			case "miss":
				r.misses++
			case "inflight":
				r.inflight++
			}
			if req.warm >= 0 {
				same := bytes.Equal(rep.body, warmed[req.warm].body)
				r.check(rep.err == nil && rep.cache == "hit" && same, 1,
					"round %d: repeat of warm spec %d: %v cache %q, same body as its miss %v", round, req.warm, rep.err, rep.cache, same)
				continue
			}
			name, err := r.asapdMiss(rep, req.body, round == 0)
			r.check(err == nil, 1, "round %d: fresh spec %s: %v", round, name, err)
		}
	}
	return nil
}

// asapdClient sends one client's requests in order, each after the last
// returned. In the traced run it then re-runs the hit path on each hit's
// own bytes: runspec.Parse, Canonical/Hash and the store read.
func (r *runner) asapdClient(d *daemon, lane int, plan []request) []reply {
	c := d.ts.Client()
	out := make([]reply, len(plan))
	for i, req := range plan {
		item := r.tr.beginItem("asapd.request", lane)
		name := "asapd.miss"
		if req.warm >= 0 {
			name = "asapd.hit"
		}
		sp := r.tr.begin(name, "", item)
		out[i] = post(c, d.ts.URL, req.body)
		r.tr.end(sp, 0)
		if r.tr != nil && req.warm >= 0 {
			sp = r.tr.begin("runspec.parse", "", item)
			spec, err := runspec.Parse(req.body)
			r.tr.end(sp, 0)
			if err == nil {
				sp = r.tr.begin("runspec.hash", "", item)
				hash, herr := spec.Hash()
				r.tr.end(sp, 0)
				if herr == nil {
					sp = r.tr.begin("server.store_get", "", item)
					_, _, _ = d.srv.Store().Get(hash) // timed only: the served reply is what gets checked
					r.tr.end(sp, 0)
				}
			}
		}
		r.tr.end(item, 0)
	}
	return out
}

// asapdMiss checks a fresh spec's reply: a miss carrying a well-formed
// envelope. It adds the envelope's timing block to the miss breakdown; the
// traced run also replays the spec through workload.Generate, machine.New
// and Run and checks the replay reproduces the served result. It returns
// the spec's name for messages.
func (r *runner) asapdMiss(rep reply, body []byte, first bool) (string, error) {
	if rep.err != nil || rep.status != http.StatusOK || rep.cache != "miss" {
		return "", fmt.Errorf("%v status %d cache %q", rep.err, rep.status, rep.cache)
	}
	spec, err := runspec.Parse(body)
	if err != nil {
		return "", err
	}
	var env server.Envelope
	if err := json.Unmarshal(rep.body, &env); err != nil {
		return spec.String(), err
	}
	if env.Timing == nil {
		return spec.String(), fmt.Errorf("envelope has no timing block")
	}
	r.queueDur += time.Duration(env.Timing.QueueWaitNS)
	r.simulateDur += time.Duration(env.Timing.SimulateNS)
	r.encodeDur += time.Duration(env.Timing.EncodeNS)
	if r.tr == nil {
		return spec.String(), nil
	}
	sp := r.tr.begin("asapd.replay", spec.Workload, -1)
	defer r.tr.end(sp, 0)
	gen := r.tr.begin("workload", spec.Workload, sp)
	tr, err := workload.Generate(spec.Workload, spec.Params)
	r.tr.end(gen, 0)
	if err != nil {
		return spec.String(), err
	}
	res, m, err := r.simulate(sp, spec.Config, spec.Model, tr)
	if err != nil {
		return spec.String(), err
	}
	if first {
		r.sim.add(res, m)
	}
	got := resultDigest(spec.Workload, spec.Model, res)
	want := digest(spec.Workload, env.Result.Model, env.Result.Cycles, env.Result.PMWrites, env.Result.PMReads, env.Result.Stats)
	if got != want {
		return spec.String(), fmt.Errorf("replay digest %.12s, served %.12s", got, want)
	}
	return spec.String(), nil
}

// asapdDigests warms the seed-1 specs of a run's first round on a fresh
// daemon and digests each served result, keyed "index/workload".
func (r *runner) asapdDigests() (map[string]string, error) {
	d, err := startDaemon(r.opt.tmp)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	specs := make([][]byte, asapdWarm)
	for k := range specs {
		specs[k] = asapdSpec(1, k, r.sz.asapdOps)
	}
	out := make(map[string]string)
	for k, rep := range d.warm(specs) {
		if rep.err != nil || rep.status != http.StatusOK {
			return nil, fmt.Errorf("spec %d: %v status %d", k, rep.err, rep.status)
		}
		var env server.Envelope
		if err := json.Unmarshal(rep.body, &env); err != nil {
			return nil, err
		}
		wl := asapdWorkloads[k%len(asapdWorkloads)]
		out[fmt.Sprintf("%02d/%s", k, wl)] = digest(wl, env.Result.Model, env.Result.Cycles, env.Result.PMWrites, env.Result.PMReads, env.Result.Stats)
	}
	return out, nil
}
