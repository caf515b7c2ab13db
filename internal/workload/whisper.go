package workload

import (
	"asap/internal/rng"
	"asap/internal/trace"
)

// WHISPER-profile generators. Each reproduces the persistence behaviour the
// WHISPER analysis [6] and Figures 2/3 of the ASAP paper report for the
// application: epoch sizes, fence frequency, locking discipline, the split
// between persistent and volatile traffic, and (low) cross-thread
// dependency rates. Addresses spread across both memory controllers via the
// machine's 256 B interleaving.

const (
	wPMBase   = uint64(1) << 32
	wLockBase = uint64(1) << 24
	wLine     = 64
)

// region gives thread t a private PM area plus a shared area.
func wPrivate(t int, slot uint64) uint64 { return wPMBase + uint64(t)<<24 + slot*wLine }
func wShared(slot uint64) uint64         { return wPMBase + uint64(1)<<30 + slot*wLine }
func wVolatile(t int, slot uint64) uint64 {
	return uint64(1)<<28 + uint64(t)<<16 + slot*wLine
}

// genNstore models a PM-native DBMS (N-Store): transactions append a
// multi-line log record, fence, update 2–4 tuple lines in a mostly
// partitioned table, and end with a durable commit. Epochs are large and
// cross-thread dependencies rare.
func genNstore(p Params) *trace.Trace {
	r := rng.New(p.Seed)
	bs := make([]trace.Builder, p.Threads)
	for t := 0; t < p.Threads; t++ {
		b := &bs[t]
		logHead := uint64(0)
		for i := 0; i < p.OpsPerThread; i++ {
			b.Compute(uint32(200 + r.Intn(400))) // query processing
			// Log record: 2-3 lines, appended sequentially.
			logLines := 2 + r.Intn(2)
			for l := 0; l < logLines; l++ {
				b.StoreP(wPrivate(t, 4096+logHead))
				logHead = (logHead + 1) % 2048
			}
			b.Ofence()
			// Tuple updates: mostly private partition, occasionally a
			// shared table region (cross-thread but rarely conflicting).
			tuples := 2 + r.Intn(3)
			for u := 0; u < tuples; u++ {
				if r.Bool(0.05) {
					b.StoreP(wShared(uint64(r.Intn(512))))
				} else {
					b.StoreP(wPrivate(t, uint64(r.Intn(2048))))
				}
			}
			// Durable commit.
			b.Dfence()
		}
		b.Dfence()
	}
	return trace.Compile("nstore", bs)
}

// genEcho models Echo, a scalable key-value store with per-thread local
// logs that batch into a shared master store under a lock: medium epochs,
// occasional cross-thread dependencies at the batch boundary.
func genEcho(p Params) *trace.Trace {
	r := rng.New(p.Seed)
	bs := make([]trace.Builder, p.Threads)
	masterLock := wLockBase
	for t := 0; t < p.Threads; t++ {
		b := &bs[t]
		local := uint64(0)
		for i := 0; i < p.OpsPerThread; i++ {
			b.Compute(uint32(120 + r.Intn(240)))
			// Local log append (worker store): value then marker.
			for l := 0; l < 1+p.ValueSize/wLine; l++ {
				b.StoreP(wPrivate(t, 8192+local))
				local = (local + 1) % 1024
			}
			b.Ofence()
			b.StoreP(wPrivate(t, 8192+local)) // commit marker
			b.Ofence()
			// Every 8th op, merge the batch into the master store.
			if i%8 == 7 {
				b.Acquire(masterLock)
				for mds := 0; mds < 4; mds++ {
					b.StoreP(wShared(uint64(r.Intn(1024))))
					b.Ofence()
				}
				b.Release(masterLock)
				b.Dfence()
			}
		}
		b.Dfence()
	}
	return trace.Compile("echo", bs)
}

// genVacation models the PMDK-based STAMP Vacation port: a coarse-grained
// lock protects each reservation query, the transaction undo-logs each PM
// write (log line + fence + data line), and substantial *volatile*
// bookkeeping happens before the lock is released — which is why eager
// flushing buys little here (§VII-A): by the time another thread acquires
// the lock the writes have drained.
func genVacation(p Params) *trace.Trace {
	r := rng.New(p.Seed)
	bs := make([]trace.Builder, p.Threads)
	tableLock := wLockBase + 2*wLine
	for t := 0; t < p.Threads; t++ {
		b := &bs[t]
		for i := 0; i < p.OpsPerThread; i++ {
			b.Compute(uint32(250 + r.Intn(500))) // query planning
			b.Acquire(tableLock)
			writes := 2 + r.Intn(3)
			for u := 0; u < writes; u++ {
				// PMDK tx: undo-log entry, fence, then the data write.
				b.StoreP(wPrivate(t, 12288+uint64(r.Intn(256))))
				b.Ofence()
				b.StoreP(wShared(uint64(r.Intn(2048))))
				b.Ofence()
			}
			b.Dfence() // transaction commit
			// Volatile bookkeeping inside the critical section.
			for v := 0; v < 6+r.Intn(6); v++ {
				b.StoreV(wVolatile(t, uint64(r.Intn(64))))
				b.Compute(20)
			}
			b.Release(tableLock)
		}
		b.Dfence()
	}
	return trace.Compile("vacation", bs)
}

// genMemcached models PM-Memcached: per-bucket locks on a large hash table
// (low contention), PMDK-style undo logging per item update, and heavy
// volatile LRU bookkeeping.
func genMemcached(p Params) *trace.Trace {
	r := rng.New(p.Seed)
	bs := make([]trace.Builder, p.Threads)
	const buckets = 64
	for t := 0; t < p.Threads; t++ {
		b := &bs[t]
		for i := 0; i < p.OpsPerThread; i++ {
			b.Compute(uint32(150 + r.Intn(300))) // request parsing, hashing
			bkt := uint64(r.Intn(buckets))
			b.Acquire(wLockBase + (4+bkt)*wLine)
			// Undo-log entry then the item write (header + value lines).
			b.StoreP(wPrivate(t, 16384+uint64(r.Intn(128))))
			b.Ofence()
			itemLines := 1 + p.ValueSize/wLine
			for l := 0; l < itemLines; l++ {
				b.StoreP(wShared(bkt*64 + uint64(r.Intn(32))))
			}
			b.Ofence()
			b.Dfence()
			// Volatile LRU list maintenance.
			for v := 0; v < 4; v++ {
				b.StoreV(wVolatile(t, uint64(r.Intn(32))))
			}
			b.Release(wLockBase + (4+bkt)*wLine)
		}
		b.Dfence()
	}
	return trace.Compile("memcached", bs)
}

// genBandwidth is the Figure 13 microbenchmark: 256-byte writes (four
// lines) alternating across the two controllers, each write ordered with an
// ofence.
func genBandwidth(p Params) *trace.Trace {
	bs := make([]trace.Builder, p.Threads)
	for t := 0; t < p.Threads; t++ {
		b := &bs[t]
		base := wPMBase + uint64(t)<<26
		block := uint64(0)
		for i := 0; i < p.OpsPerThread; i++ {
			// One 256 B write: 4 consecutive lines, which with 256 B
			// interleaving land on one controller; the next block lands
			// on the other.
			for l := uint64(0); l < 4; l++ {
				b.StoreP(base + block*256 + l*wLine)
			}
			b.Ofence()
			block++
		}
		b.Dfence()
	}
	return trace.Compile("bandwidth", bs)
}

// BandwidthBytes returns the payload bytes written by one bandwidth-trace
// run, for GB/s computation in the Figure 13 harness.
func BandwidthBytes(p Params) uint64 {
	return uint64(p.Threads) * uint64(p.OpsPerThread) * 256
}
