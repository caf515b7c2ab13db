package checkpoint

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/workload"
)

// modelField returns the named field of the machine's model (promoted
// fields of an embedded flusher included).
func modelField(m *machine.Machine, name string) reflect.Value {
	return reflect.ValueOf(m.Model).Elem().FieldByName(name)
}

// anyElem reports whether probe holds for an element of the slice v,
// dereferencing pointer elements.
func anyElem(v reflect.Value, probe func(reflect.Value) bool) bool {
	for i := 0; i < v.Len(); i++ {
		if probe(reflect.Indirect(v.Index(i))) {
			return true
		}
	}
	return false
}

// parked returns a probe for a non-empty stall slot of some core.
func parked(slot string) func(*machine.Machine) bool {
	return func(m *machine.Machine) bool {
		return anyElem(modelField(m, "cores"), func(c reflect.Value) bool { return !c.FieldByName(slot).IsZero() })
	}
}

// TestImageMidStall saves machines in the middle of each kind of blocked
// operation — each holding a parked continuation — and requires the
// restored machine, and the saver itself, to finish exactly as an
// uninterrupted run does. Each case advances cycle by cycle to the
// first cycle its probe finds the stall in place.
func TestImageMidStall(t *testing.T) {
	for _, c := range []struct {
		name  string
		model string
		wl    string
		tweak func(*config.Config)
		probe func(*machine.Machine) bool
	}{
		{"store on a full persist buffer", model.NameHOPSRP, "cceh",
			func(cfg *config.Config) { cfg.PBEntries = 2 }, parked("store")},
		{"asap store on a full persist buffer", model.NameASAPEP, "cceh",
			func(cfg *config.Config) { cfg.PBEntries = 2 }, parked("store")},
		{"ofence on a full epoch table", model.NameASAPRP, "cceh",
			func(cfg *config.Config) { cfg.ETEntries = 2 }, parked("fence")},
		{"lbpp fence on a full epoch table", model.NameLBPP, "cceh",
			func(cfg *config.Config) { cfg.ETEntries = 2 }, parked("fence")},
		{"dfence mid-drain", model.NameDPO, "cceh", nil, parked("dfence")},
		{"strand drain", model.NameStrandWeaver, "echo", nil, parked("dfence")},
		{"lrp acquire stall", model.NameLRP, "atlas_queue", nil, func(m *machine.Machine) bool {
			return anyElem(modelField(m, "acq"), func(a reflect.Value) bool { return a.FieldByName("stalled").Bool() })
		}},
		{"parked vorpal flush", model.NameVorpal, "cceh", nil, func(m *machine.Machine) bool {
			return anyElem(modelField(m, "pending"), func(p reflect.Value) bool { return p.Len() > 0 })
		}},
		{"pmem-spec recovery window", model.NamePMEMSpec, "cceh", nil, func(m *machine.Machine) bool {
			return anyElem(modelField(m, "cores"), func(c reflect.Value) bool {
				return c.FieldByName("recoverUntil").Uint() > m.Eng.Now()
			})
		}},
		{"baseline sfence", model.NameBaseline, "echo", nil, func(m *machine.Machine) bool {
			return anyElem(modelField(m, "cores"), func(c reflect.Value) bool { return !c.FieldByName("fence").IsZero() })
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			if c.tweak != nil {
				c.tweak(&cfg)
			}
			tr, err := workload.Generate(c.wl, workload.Params{Threads: 3, OpsPerThread: 80, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			build := func() *machine.Machine {
				m, err := machine.New(cfg, c.model, tr)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			oracle := build()
			res := oracle.Run(0)
			want := summarize(oracle, res)

			m := build()
			at := uint64(1)
			for ; at < res.Cycles; at++ {
				m.Advance(at)
				if c.probe(m) {
					break
				}
			}
			if at >= res.Cycles {
				t.Fatalf("the stall never occurred in %d cycles", res.Cycles)
			}
			img, err := Save(m)
			if err != nil {
				t.Fatalf("save at cycle %d: %v", at, err)
			}
			lm, err := Load(img)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if lm.Eng.Now() != at || !c.probe(lm) {
				t.Fatalf("restored machine at cycle %d (want %d) lost the stall", lm.Eng.Now(), at)
			}
			compare(t, "saver-continue", want, summarize(m, m.Run(0)))
			compare(t, "load-continue", want, summarize(lm, lm.Run(0)))
		})
	}
}

// walkMachineTypes calls visit once for every type in the static type
// graph reachable from machine.Machine and from each model's dynamic type,
// with the field path that first reached it. Observability sinks, which
// the snapshot paths skip, are not entered.
func walkMachineTypes(t *testing.T, visit func(ty reflect.Type, path string)) {
	t.Helper()
	tr, err := workload.Generate("cceh", workload.Params{Threads: 1, OpsPerThread: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	roots := []reflect.Type{reflect.TypeOf(machine.Machine{})}
	for _, mn := range model.ExtendedNames() {
		m, err := machine.New(config.Default(), mn, tr)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, reflect.TypeOf(m.Model).Elem())
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] || skipType(ty) {
			return
		}
		seen[ty] = true
		visit(ty, path)
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path)
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[]")
		}
	}
	for _, r := range roots {
		walk(r, r.Name())
	}
}

// TestMachineGraphHasNoFuncs pins what makes every cycle checkpointable:
// no func value can sit anywhere in a machine's object graph — not in the
// machine, the engine, the controllers, nor any model — so all pending
// work is data (typed events and sim.Cont continuations).
func TestMachineGraphHasNoFuncs(t *testing.T) {
	walkMachineTypes(t, func(ty reflect.Type, path string) {
		if ty.Kind() == reflect.Func {
			t.Errorf("func value reachable at %s (%v)", path, ty)
		}
	})
}

// TestMachineGraphHasNoMaps pins what lets the snapshot walker and the
// image codec do without a map path: every component of the machine and
// of each model is slices, pointers and plain values. Bookkeeping that a
// map once held lives on the records it describes (dependents on the
// source epoch's entry) or in a fixed slice shaped like the hardware
// structure (recovery table, write-back buffer).
func TestMachineGraphHasNoMaps(t *testing.T) {
	walkMachineTypes(t, func(ty reflect.Type, path string) {
		if ty.Kind() == reflect.Map {
			t.Errorf("map reachable at %s (%v)", path, ty)
		}
	})
}

// TestMachineGraphLeafKinds pins the leaf kinds the image codec encodes:
// bools and integers. A float, string or other leaf added to the machine
// or a model needs a codec case (and a format version) first.
func TestMachineGraphLeafKinds(t *testing.T) {
	walkMachineTypes(t, func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Struct, reflect.Array, reflect.Slice, reflect.Pointer, reflect.Interface, reflect.Map:
		default:
			t.Errorf("%v leaf reachable at %s (%v); the image codec has no case for it", ty.Kind(), path, ty)
		}
	})
}

// TestSnapshotRejectsMapsAndChannels pins that both snapshot paths refuse
// a map the way they refuse a channel, with the same message, instead of
// silently restoring a stale map: the walker panics on capture, and the
// codec fails the encode and the decode.
func TestSnapshotRejectsMapsAndChannels(t *testing.T) {
	type withMap struct{ m map[int]int }
	type withChan struct{ c chan int }
	type boxed struct{ v any }
	const want = "map- and channel-free"
	for _, c := range []struct {
		name string
		root any
	}{
		{"map", &withMap{m: map[int]int{1: 2}}},
		{"channel", &withChan{c: make(chan int)}},
		{"boxed map", &boxed{v: map[int]int{1: 2}}},
		{"boxed channel", &boxed{v: make(chan int)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rv := reflect.ValueOf(c.root)
			ptr, typ := rv.UnsafePointer(), rv.Type().Elem()
			msg := func(fn func()) (m string) {
				defer func() {
					switch r := recover().(type) {
					case nil:
					case codecFail:
						m = r.err.Error()
					default:
						m = fmt.Sprint(r)
					}
				}()
				fn()
				return ""
			}
			var w walker
			if m := msg(func() { w.capture(ptr, typ) }); !strings.Contains(m, want) {
				t.Errorf("walker capture: %q, want a panic naming %q", m, want)
			}
			for _, cd := range []*codec{{enc: true}, {buf: []byte{1, 1, 1, 1}}} {
				cd.seen = map[seenKey]unsafe.Pointer{}
				if m := msg(func() { cd.value(ptr, ptr, typ) }); !strings.Contains(m, "cannot "+cd.dir()) || !strings.Contains(m, want) {
					t.Errorf("%s: %q, want a failure naming %q", cd.dir(), m, want)
				}
			}
		})
	}
}
