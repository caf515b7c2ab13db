package model

import (
	"testing"

	"asap/internal/mem"
)

// TestConformance drives every model through the same scripted sequence and
// checks protocol invariants shared by all designs:
//
//   - done callbacks fire exactly once per operation;
//   - CurrentTS never decreases;
//   - after StartDrain completes, the persist buffer is empty and every
//     line written is durable (except eADR, whose domain is the cache);
//   - an immediately repeated dfence completes without new work.
func TestConformance(t *testing.T) {
	for _, name := range ExtendedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			env, eng := testEnv(t, name)
			m, err := New(name, env)
			if err != nil {
				t.Fatal(err)
			}

			doneCalls := 0
			lastTS := uint64(0)
			checkTS := func() {
				ts := m.CurrentTS(0)
				if ts < lastTS {
					t.Fatalf("CurrentTS went backwards: %d -> %d", lastTS, ts)
				}
				lastTS = ts
			}

			lines := []mem.Line{10, 11, 4_000, 4_001, 10} // spans both MCs, repeats one line
			var drained, refenced bool
			var step func(i int)
			step = func(i int) {
				doneCalls++
				checkTS()
				if i >= len(lines) {
					m.StartDrain(0, cont(eng, func() {
						drained = true
						// A dfence right after a drain has nothing to wait for.
						m.Dfence(0, cont(eng, func() { refenced = true }))
					}))
					return
				}
				m.Store(0, lines[i], mem.Token(i+1), cont(eng, func() {
					if i%2 == 0 {
						m.Ofence(0, cont(eng, func() { step(i + 1) }))
					} else {
						step(i + 1)
					}
				}))
			}
			step(0)
			eng.Run(20_000_000)

			if !drained || !refenced {
				t.Fatalf("drain=%v refence=%v", drained, refenced)
			}
			if doneCalls != len(lines)+1 {
				t.Fatalf("done callbacks = %d, want %d", doneCalls, len(lines)+1)
			}
			if occ := m.PBOccupancy(0); occ != 0 {
				t.Fatalf("persist buffer not empty after drain: %d", occ)
			}
			if m.PBBlocked(0) {
				t.Fatal("PBBlocked true on an empty buffer")
			}
			if m.PBHasLine(0, lines[0]) {
				t.Fatal("PBHasLine true after drain")
			}
			if name == NameEADR {
				return
			}
			for _, l := range lines {
				mc := env.MCs[env.IL.Home(l)]
				if _, inWPQ := mc.WPQ.Contains(l); !inWPQ && mc.NVM.Peek(l) == 0 {
					t.Fatalf("line %d not durable after drain", l)
				}
			}
		})
	}
}

// TestConformanceReleaseAcquire: the release/acquire pair completes on every
// model and never decreases the timestamp.
func TestConformanceReleaseAcquire(t *testing.T) {
	for _, name := range ExtendedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			env, eng := testEnv(t, name)
			m, err := New(name, env)
			if err != nil {
				t.Fatal(err)
			}
			done := false
			m.Store(0, 100, 1, cont(eng, func() {
				pre := m.CurrentTS(0)
				m.Release(0, 900, cont(eng, func() {
					if m.CurrentTS(0) < pre {
						t.Errorf("Release decreased TS")
					}
					m.Acquire(1, 900)
					m.Store(1, 104, 2, cont(eng, func() {
						m.StartDrain(1, cont(eng, func() { done = true }))
					}))
				}))
			}))
			eng.Run(20_000_000)
			if !done {
				t.Fatal("release/acquire sequence never drained")
			}
		})
	}
}
