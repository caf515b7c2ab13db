package mem

// refNVM, refWPQ and refXPBuffer are the map- and pointer-based
// implementations the shipped slabs replaced, kept test-only as the
// reference the differential tests drive side by side with NVM, WPQ and
// XPBuffer.

type refNVM struct {
	lines         map[Line]Token
	writes, reads uint64
}

func newRefNVM() *refNVM { return &refNVM{lines: make(map[Line]Token)} }

func (n *refNVM) Write(l Line, t Token) { n.lines[l] = t; n.writes++ }
func (n *refNVM) Read(l Line) Token     { n.reads++; return n.lines[l] }
func (n *refNVM) Peek(l Line) Token     { return n.lines[l] }

type refWPQ struct {
	capacity  int
	order     []Line
	pending   map[Line]Token
	coalesced uint64
	maxOcc    int
}

func newRefWPQ(capacity int) *refWPQ {
	return &refWPQ{capacity: capacity, pending: make(map[Line]Token)}
}

func (w *refWPQ) Len() int   { return len(w.order) }
func (w *refWPQ) Full() bool { return w.Len() >= w.capacity }

func (w *refWPQ) Contains(l Line) (Token, bool) {
	t, ok := w.pending[l]
	return t, ok
}

func (w *refWPQ) Insert(l Line, t Token) bool {
	if _, ok := w.pending[l]; ok {
		w.pending[l] = t
		w.coalesced++
		return true
	}
	if w.Full() {
		return false
	}
	w.order = append(w.order, l)
	w.pending[l] = t
	w.maxOcc = max(w.maxOcc, w.Len())
	return true
}

func (w *refWPQ) Pop() (Line, Token) {
	l := w.order[0]
	w.order = w.order[1:]
	t := w.pending[l]
	delete(w.pending, l)
	return l, t
}

func (w *refWPQ) Drain(n *refNVM) {
	for w.Len() > 0 {
		n.Write(w.Pop())
	}
}

type refXPBuffer struct {
	capacity     int
	entries      map[Line]*refXPNode
	head, tail   *refXPNode // most and least recently used
	hits, misses uint64
}

type refXPNode struct {
	line       Line
	token      Token
	prev, next *refXPNode
}

func newRefXPBuffer(capacity int) *refXPBuffer {
	return &refXPBuffer{capacity: capacity, entries: make(map[Line]*refXPNode)}
}

func (x *refXPBuffer) Len() int { return len(x.entries) }

func (x *refXPBuffer) Lookup(l Line) (Token, bool) {
	n, ok := x.entries[l]
	if !ok {
		x.misses++
		return 0, false
	}
	x.hits++
	x.moveToFront(n)
	return n.token, true
}

func (x *refXPBuffer) Insert(l Line, t Token) {
	if x.capacity == 0 {
		return
	}
	if n, ok := x.entries[l]; ok {
		n.token = t
		x.moveToFront(n)
		return
	}
	if len(x.entries) >= x.capacity {
		lru := x.tail
		x.unlink(lru)
		delete(x.entries, lru.line)
	}
	n := &refXPNode{line: l, token: t}
	x.entries[l] = n
	x.pushFront(n)
}

// order lists the cached lines from most to least recently used.
func (x *refXPBuffer) order() []Line {
	var out []Line
	for n := x.head; n != nil; n = n.next {
		out = append(out, n.line)
	}
	return out
}

func (x *refXPBuffer) moveToFront(n *refXPNode) {
	if x.head == n {
		return
	}
	x.unlink(n)
	x.pushFront(n)
}

func (x *refXPBuffer) pushFront(n *refXPNode) {
	n.prev, n.next = nil, x.head
	if x.head != nil {
		x.head.prev = n
	}
	x.head = n
	if x.tail == nil {
		x.tail = n
	}
}

func (x *refXPBuffer) unlink(n *refXPNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		x.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		x.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
