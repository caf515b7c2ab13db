package main

// Host-time spans for the traced run. They are recorded from the
// benchmark's own files around calls into each module's public functions,
// kept in memory, and aggregated per layer when the run ends. Bytes come
// from runtime/metrics: runtime.ReadMemStats stops the world and would
// inflate the spans it brackets.

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer. Its name is the layer; detail
// narrows it (the model a machine ran, the workload a trace came from).
type span struct {
	name, detail string
	start, end   time.Duration // since the tracer's origin
	parent, item int           // -1 when none
	lane         int           // concurrent client the span ran on
	allocs       uint64        // bytes allocated process-wide while open
	events       uint64        // simulator events dispatched, for spans that ran a machine
}

// tracer collects spans. A nil tracer records nothing, which lets the
// untraced run share code with the traced one at the cost of a nil check
// per call into a layer.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	items  int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// begin opens a span under parent and returns its id. A root (parent -1)
// belongs to no item and runs on lane 0; a child inherits its parent's
// item and lane.
func (t *tracer) begin(name, detail string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{name: name, detail: detail, parent: parent, item: -1}
	if parent >= 0 {
		s.item, s.lane = t.spans[parent].item, t.spans[parent].lane
	}
	return t.open(s)
}

// beginItem opens the root span of a new item on a lane.
func (t *tracer) beginItem(name string, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{name: name, parent: -1, item: t.items, lane: lane}
	t.items++
	return t.open(s)
}

// open appends s; the caller holds mu. Bytes are read before the clock so
// the read itself stays outside the span.
func (t *tracer) open(s span) int {
	s.allocs = t.allocBytes()
	s.start = time.Since(t.origin)
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id with the number of simulator events it dispatched.
func (t *tracer) end(id int, events uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = time.Since(t.origin)
	s.allocs = t.allocBytes() - s.allocs
	s.events = events
}

// allocBytes reads the process's cumulative heap allocation; the caller
// holds mu, which also guards the sample buffer.
func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// layer aggregates the spans of one name, or of one name and detail.
type layer struct {
	calls  int
	busy   time.Duration // summed span durations
	self   time.Duration // busy minus the time covered by child spans
	allocs uint64
	events uint64
}

// layers aggregates the spans by name and by "name/detail". Call it once
// recording has stopped.
func (t *tracer) layers() map[string]*layer {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*layer)
	add := func(key string, s span, self time.Duration) {
		l := out[key]
		if l == nil {
			l = &layer{}
			out[key] = l
		}
		l.calls++
		l.busy += s.end - s.start
		l.self += self
		l.allocs += s.allocs
		l.events += s.events
	}
	for i, s := range t.spans {
		self := s.end - s.start - children[i]
		add(s.name, s, self)
		if s.detail != "" {
			add(s.name+"/"+s.detail, s, self)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// asapsim -trace writes: one complete ("X") event per span on its lane,
// with its id, parent, item, detail, bytes and events as arguments.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: s.lane,
			Args: map[string]any{"id": i, "parent": s.parent, "item": s.item, "detail": s.detail, "bytes": s.allocs, "events": s.events}}
	}
	b, err := json.Marshal(struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []event `json:"traceEvents"`
	}{"ms", events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
