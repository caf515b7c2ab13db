package harness

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asap/internal/model"
)

// runTracedSet executes an overlapping set of simulations concurrently
// with trace capture enabled and returns every artifact produced,
// keyed by file name.
func runTracedSet(t *testing.T, dir string) map[string]string {
	t.Helper()
	h := New(Options{Ops: 30, Seed: 1, Parallel: 4, TraceDir: dir})
	var wg sync.WaitGroup
	for _, mdl := range []string{model.NameBaseline, model.NameASAPEP, model.NameASAPRP} {
		for _, threads := range []int{2, 4} {
			wg.Add(1)
			go func(mdl string, threads int) {
				defer wg.Done()
				if _, err := h.eng.run(h.Spec("atlas_queue", mdl, threads)); err != nil {
					t.Error(err)
				}
			}(mdl, threads)
		}
	}
	wg.Wait()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestTraceCapture: with TraceDir set, every executed simulation leaves a
// trace JSON and a timeline CSV, and a re-run of the same key set under a
// parallel pool produces byte-identical artifacts. Run under -race this
// also proves concurrent capture shares no collector state.
func TestTraceCapture(t *testing.T) {
	files := runTracedSet(t, t.TempDir())
	var traces, timelines int
	for name, body := range files {
		switch {
		case strings.HasSuffix(name, ".trace.json"):
			traces++
			if !strings.Contains(body, `"traceEvents"`) {
				t.Errorf("%s: not a Chrome trace", name)
			}
		case strings.HasSuffix(name, ".timeline.csv"):
			timelines++
			if !strings.HasPrefix(body, "cycle,pb0,") {
				t.Errorf("%s: bad timeline header %q", name, strings.SplitN(body, "\n", 2)[0])
			}
		default:
			t.Errorf("unexpected artifact %s", name)
		}
	}
	// 3 models x 2 thread counts = 6 simulations, two artifacts each.
	if traces != 6 || timelines != 6 {
		t.Fatalf("got %d traces / %d timelines, want 6/6", traces, timelines)
	}

	again := runTracedSet(t, t.TempDir())
	if len(again) != len(files) {
		t.Fatalf("re-run produced %d artifacts, want %d", len(again), len(files))
	}
	for name, body := range files {
		if again[name] != body {
			t.Errorf("artifact %s differs between identical runs", name)
		}
	}
}

// TestTraceCaptureDoesNotPerturb: results with capture on equal results
// with capture off (tracing observes, never schedules model work).
func TestTraceCaptureDoesNotPerturb(t *testing.T) {
	plain := New(Options{Ops: 30, Seed: 1, Parallel: 1})
	traced := New(Options{Ops: 30, Seed: 1, Parallel: 1, TraceDir: t.TempDir()})
	rp, err := plain.eng.run(plain.Spec("atlas_queue", model.NameASAPEP, 4))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := traced.eng.run(traced.Spec("atlas_queue", model.NameASAPEP, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cycles != rt.Cycles {
		t.Fatalf("capture changed the simulation: %d cycles traced vs %d untraced", rt.Cycles, rp.Cycles)
	}
}
