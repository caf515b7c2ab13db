package workload

import (
	"asap/internal/pmds"
	"asap/internal/rng"
	"asap/internal/trace"
)

// heapSize is the simulated PM heap's cap for a run of p: it scales with
// the op count. The heap backs the pages a run writes (pmds.NewHeap), so
// the cap bounds a run's footprint but is not allocated up front.
func heapSize(p Params) int {
	sz := 8 << 20
	need := p.Threads * p.OpsPerThread * (p.ValueSize + 512)
	for sz < need {
		sz <<= 1
	}
	return sz
}

// pmdsDriver runs one pmds structure's workload over a caller-built heap.
type pmdsDriver struct {
	heapScale int // multiple of heapSize the structure may use
	drive     func(h *pmds.Heap, p Params) *trace.Trace
}

// pmdsDrivers holds every pmds workload's driver by name, so a test can
// replay the run Generate makes over a heap that captures line images.
var pmdsDrivers = map[string]pmdsDriver{}

// registerPMDS registers a pmds workload whose generator drives its
// structure over a fresh heap capped at heapScale×heapSize.
func registerPMDS(name string, heapScale int, drive func(*pmds.Heap, Params) *trace.Trace) {
	d := pmdsDriver{heapScale: heapScale, drive: drive}
	pmdsDrivers[name] = d
	register(name, func(p Params) *trace.Trace {
		return d.drive(d.newHeap(p), p)
	})
}

// newHeap returns the heap Generate drives the structure over.
func (d pmdsDriver) newHeap(p Params) *pmds.Heap {
	return pmds.NewHeap(heapSize(p)*d.heapScale, p.Threads)
}

// driveKV interleaves update-intensive key/value operations (80% insert,
// 20% lookup) across logical threads, zipf-skewed so threads collide on hot
// keys — the source of the cross-thread dependencies in Figure 2.
func driveKV(h *pmds.Heap, p Params, name string,
	insert func(key, val uint64), lookup func(key uint64)) *trace.Trace {
	r := rng.New(p.Seed)
	zip := rng.NewZipf(r, int(p.KeyRange), 0.9)
	total := p.Threads * p.OpsPerThread
	for i := 0; i < total; i++ {
		t := i % p.Threads
		h.SetThread(t)
		key := uint64(zip.Next()) + 1
		if p.Strands {
			// Each operation is its own strand: ops on independent keys
			// have no inter-op ordering requirement (strand persistency).
			h.NewStrand()
		}
		h.Compute(uint32(80 + r.Intn(160))) // application work between ops
		if r.Bool(0.8) {
			insert(key, r.Uint64())
		} else {
			lookup(key)
		}
	}
	// Each thread finishes with a durability point, as real benchmark
	// harnesses do before reporting.
	for t := 0; t < p.Threads; t++ {
		h.SetThread(t)
		h.Dfence()
	}
	return h.Trace(name)
}

func driveCCEH(h *pmds.Heap, p Params) *trace.Trace {
	c := pmds.NewCCEH(h, 4, p.ValueSize)
	return driveKV(h, p, "cceh",
		func(k, v uint64) { c.Insert(k, v) },
		func(k uint64) { c.Get(k) })
}

func driveFastFair(h *pmds.Heap, p Params) *trace.Trace {
	f := pmds.NewFastFair(h, 14, p.ValueSize)
	// Table III: FAST&FAIR runs insert/search/delete. Reuse the KV driver
	// mix but convert one in eight inserts into a delete of the same key.
	r := rng.New(p.Seed ^ 0xFA57)
	n := 0
	return driveKV(h, p, "fast_fair",
		func(k, v uint64) {
			n++
			if n%8 == 0 && r.Bool(0.9) {
				f.Delete(k)
			} else {
				f.Insert(k, v)
			}
		},
		func(k uint64) { f.Get(k) })
}

func driveDashLH(h *pmds.Heap, p Params) *trace.Trace {
	// Size the levels so resizes stay rare, as in the paper's setup.
	d := pmds.NewDashLH(h, p.KeyRange, p.ValueSize)
	return driveKV(h, p, "dash_lh",
		func(k, v uint64) { d.Insert(k, v) },
		func(k uint64) { d.Get(k) })
}

func driveDashEH(h *pmds.Heap, p Params) *trace.Trace {
	d := pmds.NewDashEH(h, 4, p.KeyRange/16+1, p.ValueSize)
	return driveKV(h, p, "dash_eh",
		func(k, v uint64) { d.Insert(k, v) },
		func(k uint64) { d.Get(k) })
}

func drivePART(h *pmds.Heap, p Params) *trace.Trace {
	a := pmds.NewART(h, p.ValueSize)
	return driveKV(h, p, "p_art",
		func(k, v uint64) { a.Insert(k, v) },
		func(k uint64) { a.Get(k) })
}

func drivePCLHT(h *pmds.Heap, p Params) *trace.Trace {
	c := pmds.NewCLHT(h, p.KeyRange/2+1, p.ValueSize)
	return driveKV(h, p, "p_clht",
		func(k, v uint64) { c.Insert(k, v) },
		func(k uint64) { c.Get(k) })
}

func drivePMasstree(h *pmds.Heap, p Params) *trace.Trace {
	m := pmds.NewMasstree(h, 15, p.ValueSize)
	return driveKV(h, p, "p_masstree",
		func(k, v uint64) { m.Insert(k, v) },
		func(k uint64) { m.Get(k) })
}

func driveAtlasQueue(h *pmds.Heap, p Params) *trace.Trace {
	q := pmds.NewAtlasQueue(h, p.ValueSize)
	r := rng.New(p.Seed)
	total := p.Threads * p.OpsPerThread
	for i := 0; i < total; i++ {
		h.SetThread(i % p.Threads)
		h.Compute(uint32(60 + r.Intn(120)))
		if r.Bool(0.6) || q.Len() == 0 {
			q.Enqueue(r.Uint64())
		} else {
			q.Dequeue()
		}
	}
	for t := 0; t < p.Threads; t++ {
		h.SetThread(t)
		h.Dfence()
	}
	return h.Trace("atlas_queue")
}

func driveAtlasHeap(h *pmds.Heap, p Params) *trace.Trace {
	a := pmds.NewAtlasHeap(h, p.Threads*p.OpsPerThread+16)
	r := rng.New(p.Seed)
	total := p.Threads * p.OpsPerThread
	for i := 0; i < total; i++ {
		h.SetThread(i % p.Threads)
		h.Compute(uint32(60 + r.Intn(120)))
		if r.Bool(0.65) || a.Size() == 0 {
			a.Insert(r.Uint64() % (p.KeyRange * 16))
		} else {
			a.PopMin()
		}
	}
	for t := 0; t < p.Threads; t++ {
		h.SetThread(t)
		h.Dfence()
	}
	return h.Trace("atlas_heap")
}

func driveAtlasSkiplist(h *pmds.Heap, p Params) *trace.Trace {
	s := pmds.NewAtlasSkipList(h, p.ValueSize)
	r := rng.New(p.Seed)
	zip := rng.NewZipf(r, int(p.KeyRange), 0.9)
	total := p.Threads * p.OpsPerThread
	for i := 0; i < total; i++ {
		h.SetThread(i % p.Threads)
		h.Compute(uint32(60 + r.Intn(120)))
		key := uint64(zip.Next()) + 1
		switch {
		case r.Bool(0.6):
			s.Insert(key, r.Uint64())
		case r.Bool(0.5):
			s.Delete(key)
		default:
			s.Get(key)
		}
	}
	for t := 0; t < p.Threads; t++ {
		h.SetThread(t)
		h.Dfence()
	}
	return h.Trace("atlas_skiplist")
}
