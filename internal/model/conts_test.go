package model

import "asap/internal/sim"

// testConts runs test closures as the continuations models resume: the
// continuation's kind indexes the closure. One table serves one engine.
type testConts struct {
	eng      *sim.Engine
	closures []func()
}

func (t *testConts) RunEvent(kind int, _ uint64) { t.closures[kind]() }

var contTables = map[*sim.Engine]*testConts{}

// cont returns a continuation on eng that runs fn.
func cont(eng *sim.Engine, fn func()) sim.Cont {
	t := contTables[eng]
	if t == nil {
		t = &testConts{eng: eng}
		contTables[eng] = t
	}
	t.closures = append(t.closures, fn)
	return eng.Cont(t, len(t.closures)-1, 0)
}
