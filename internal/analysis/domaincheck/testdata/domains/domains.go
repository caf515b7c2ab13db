// Package fixture exercises domaincheck: event callbacks (RunEvent and
// what it reaches) may only mutate their own component's state.
package fixture

// Package-level state: off-limits to every event domain.
var counter int
var registry = map[string]int{}

type subState struct{ x int }

// Station is a component: it has RunEvent(int, uint64).
type Station struct {
	n    int
	sub  *subState
	peer *Link
}

// Link is a second component, pointed to by Station.
type Link struct {
	n    int
	back *Station
}

func (s *Station) RunEvent(kind int, arg uint64) {
	s.n++             // ok: own field
	s.sub.x = 3       // ok: own subtree through a non-component pointer
	counter++         // want `write to package-level var counter`
	registry["k"] = 1 // want `write to package-level var registry`
	s.peer.n = 4      // want `write to field n of component Link`
	b := s.peer
	b.n++       // want `write to field n of component Link`
	*b = Link{} // want `write through pointer into component Link`
	s.helper(arg)
	func() {
		counter += 2 // want `write to package-level var counter`
		s.n--        // ok: closures run in the owning domain
	}()
	s.detach() //asaplint:ignore domaincheck teardown runs once, engine drained
}

// helper is in Station's domain via the static call in RunEvent.
func (s *Station) helper(arg uint64) {
	s.n = int(arg) // ok
	s.peer.n -= 2  // want `write to field n of component Link`
	touchGlobals()
}

// touchGlobals is a free function: it executes inline in whichever
// callback calls it, so its writes are the caller's writes.
func touchGlobals() {
	counter = 9 // want `write to package-level var counter`
}

// detach sits behind an ignored call edge: the directive cuts it out of
// the domain, so nothing here is a finding.
func (s *Station) detach() {
	counter = 0
	s.peer.back = nil
}

// audit is not reachable from any RunEvent: identical writes are not
// findings.
func (s *Station) audit() {
	counter = 7
	s.peer.n = 1
}

func (l *Link) RunEvent(kind int, arg uint64) {
	l.n++ // ok: own field
	if l.back != nil {
		l.back.n = 5 // want `write to field n of component Station`
	}
}
