package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/runspec"
	"asap/internal/trace"
)

// TestSingleflightDedup: concurrent requests for one key run the
// simulation exactly once and all see the identical result.
func TestSingleflightDedup(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 4})
	const callers = 16
	results := make([]uint64, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			r, err := h.eng.run(h.Spec("cceh", model.NameASAPRP, 4))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = uint64(r.Cycles)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw %d cycles, caller 0 saw %d", i, results[i], results[0])
		}
	}
	if _, runs := h.eng.execs(); runs != 1 {
		t.Fatalf("executed %d simulations for one key, want 1", runs)
	}
	traces, _ := h.eng.execs()
	if traces != 1 {
		t.Fatalf("generated %d traces for one key, want 1", traces)
	}
}

// TestRunSharedAcrossModels: runs of the same workload under different
// models share one generated trace.
func TestRunSharedAcrossModels(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 2})
	for _, mdl := range []string{model.NameBaseline, model.NameHOPSRP, model.NameASAPRP} {
		if _, err := h.eng.run(h.Spec("cceh", mdl, 4)); err != nil {
			t.Fatal(err)
		}
	}
	traces, runs := h.eng.execs()
	if traces != 1 || runs != 3 {
		t.Fatalf("execs = %d traces / %d runs, want 1/3", traces, runs)
	}
}

// TestErrorPropagation: an invalid simulation returns an error instead of
// panicking, and the error reaches every waiter for that key.
func TestErrorPropagation(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 2})
	_, err := h.eng.run(h.Spec("no_such_workload", model.NameASAPRP, 4))
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v, want unknown-workload error", err)
	}
	// The error is cached: a second request sees it without re-executing.
	_, err2 := h.eng.run(h.Spec("no_such_workload", model.NameASAPRP, 4))
	if err2 == nil {
		t.Fatal("cached error lost")
	}
}

// TestUnknownModelError: machine construction failures surface as errors
// naming the run.
func TestUnknownModelError(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 2})
	_, err := h.eng.run(h.Spec("cceh", "no_such_model", 4))
	if err == nil || !strings.Contains(err.Error(), "cceh/no_such_model/4t") {
		t.Fatalf("err = %v, want error naming cceh/no_such_model/4t", err)
	}
}

// TestZeroCyclesError: a run that simulates zero cycles is reported as an
// error, not a panic (an empty trace drains immediately).
func TestZeroCyclesError(t *testing.T) {
	h := New(Options{Ops: 30, Seed: 1, Parallel: 2})
	k := h.job("cceh", model.NameASAPRP, 4)
	// Pre-seed the trace cache with an empty trace: no cores ever run, so
	// the machine reports zero cycles.
	tk := traceKey{wl: k.Workload, p: k.Params}
	ready := make(chan struct{})
	close(ready)
	h.eng.calls[tk] = &call{ready: ready, val: &trace.Trace{Name: "empty"}}
	_, err := h.eng.run(h.Spec("cceh", model.NameASAPRP, 4))
	if err == nil || !strings.Contains(err.Error(), "zero cycles") {
		t.Fatalf("err = %v, want zero-cycles error", err)
	}
}

// TestPanicBecomesError: a panic below a worker is converted into an
// error that propagates through the pool instead of killing the process.
func TestPanicBecomesError(t *testing.T) {
	e := newEngine(Options{Parallel: 2})
	_, err := e.protect("boom-test", func() (any, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want captured panic", err)
	}
}

// TestFirstErrorCancels: after one simulation fails, leaders that have
// not started yet return the first failure's root cause instead of
// running.
func TestFirstErrorCancels(t *testing.T) {
	e := newEngine(Options{Parallel: 1})
	root := errors.New("root cause failure")
	if _, err := e.once("a", func() (any, error) {
		return e.protect("a", func() (any, error) { return nil, root })
	}); !errors.Is(err, root) {
		t.Fatalf("leader a: err = %v", err)
	}
	var ran atomic.Bool
	_, err := e.once("b", func() (any, error) {
		return e.protect("b", func() (any, error) {
			ran.Store(true)
			return 1, nil
		})
	})
	if !errors.Is(err, root) {
		t.Fatalf("leader b: err = %v, want the root cause", err)
	}
	if ran.Load() {
		t.Fatal("leader b executed after cancellation")
	}
}

// TestObserveHook: the Observe hook fires once per leader simulation
// (cache hits do not re-observe), sees the executing spec, and observing
// does not change the result.
func TestObserveHook(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int)
	h := New(Options{Ops: 30, Seed: 1, Parallel: 2,
		Observe: func(spec runspec.RunSpec, m *machine.Machine) {
			if m == nil {
				t.Error("Observe got nil machine")
			}
			mu.Lock()
			seen[spec.String()]++
			mu.Unlock()
		}})
	r1, err := h.eng.run(h.Spec("cceh", model.NameASAPRP, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.eng.run(h.Spec("cceh", model.NameASAPRP, 4)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := seen["cceh/asap_rp/4t"]
	mu.Unlock()
	if n != 1 {
		t.Fatalf("Observe fired %d times for one leader, want 1", n)
	}
	plain := New(Options{Ops: 30, Seed: 1, Parallel: 1})
	r2, err := plain.eng.run(plain.Spec("cceh", model.NameASAPRP, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("observing changed the simulation: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

// TestPoolBound: no more than Parallel simulations execute at once.
func TestPoolBound(t *testing.T) {
	const bound = 3
	e := newEngine(Options{Parallel: bound})
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.once(i, func() (any, error) {
				return e.protect("job", func() (any, error) {
					n := cur.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					// Busy loop briefly so workers overlap.
					for j := 0; j < 1000; j++ {
						_ = fmt.Sprintf("%d", j)
					}
					cur.Add(-1)
					return i, nil
				})
			})
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("peak concurrency %d exceeds pool bound %d", p, bound)
	}
}

// TestHarnessReleasesTraces: a harness holds its traces only as long as
// it lives. Once the harness is unreachable, the trace its run replayed
// is collected, so a process that builds harness after harness holds no
// trace of a harness it dropped.
func TestHarnessReleasesTraces(t *testing.T) {
	collected := make(chan struct{})
	var once sync.Once
	h := New(Options{Ops: 20, Seed: 0x7e1ea5e, Parallel: 1,
		Observe: func(_ runspec.RunSpec, m *machine.Machine) {
			once.Do(func() {
				runtime.SetFinalizer(m.Trace(), func(*trace.Trace) { close(collected) })
			})
		}})
	if _, err := h.eng.run(h.Spec("cceh", model.NameASAPRP, 2)); err != nil {
		t.Fatal(err)
	}
	h = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("trace still reachable after its harness was dropped")
}
