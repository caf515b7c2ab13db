package sim

import "container/heap"

// refEvent and refEngine are a reference implementation of the scheduler
// built on container/heap, kept test-only: the shipped Engine replaced it
// with a timing wheel over an inlined 4-ary typed heap, and the
// differential tests drive both with identical randomized workloads to
// prove the dispatch order — the only observable the simulator depends
// on — is unchanged.
type refEvent struct {
	when Cycles
	seq  uint64
	fn   func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refEngine mirrors Engine's scheduling semantics over the reference heap.
type refEngine struct {
	now    Cycles
	seq    uint64
	events refHeap
	halted bool
}

func (e *refEngine) Now() Cycles { return e.now }

func (e *refEngine) at(when Cycles, fn func()) {
	if when < e.now {
		panic("refEngine: event scheduled in the past")
	}
	heap.Push(&e.events, refEvent{when: when, seq: e.seq, fn: fn})
	e.seq++
}

func (e *refEngine) after(delay Cycles, fn func()) { e.at(e.now+delay, fn) }

func (e *refEngine) Pending() int { return len(e.events) }

// NextWhen reports the earliest pending event time.
func (e *refEngine) NextWhen() (Cycles, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].when, true
}

func (e *refEngine) Step() bool {
	if e.halted || len(e.events) == 0 {
		return false
	}
	next := heap.Pop(&e.events).(refEvent)
	e.now = next.when
	next.fn()
	return true
}

func (e *refEngine) Run() { e.RunLimit(0) }

// RunLimit mirrors Engine.Run(limit).
func (e *refEngine) RunLimit(limit Cycles) Cycles {
	for !e.halted && len(e.events) > 0 {
		if limit != 0 && e.events[0].when > limit {
			e.now = max(e.now, limit)
			return e.now
		}
		e.Step()
	}
	return e.now
}

// RunUntil mirrors Engine.RunUntil.
func (e *refEngine) RunUntil(limit Cycles) Cycles {
	for !e.halted && len(e.events) > 0 && e.events[0].when <= limit {
		e.Step()
	}
	if !e.halted {
		e.now = max(e.now, limit)
	}
	return e.now
}

// JumpTo mirrors Engine.JumpTo.
func (e *refEngine) JumpTo(when Cycles) {
	if next, ok := e.NextWhen(); when < e.now || ok && next < when {
		panic("refEngine: clock jump into the past or past a pending event")
	}
	e.now = when
}
