package machine

import "asap/internal/stats"

// The machine harness's stat vocabulary: cache/WBB behaviour at the LLC
// boundary, lock contention, and the periodic occupancy sampler. See
// internal/model/vocab.go for the rationale. Registration returns the dense
// keys the machine resolves to Counter handles at construction, so the
// per-access path never hashes a stat name; the sampler observes the
// distributions by key too.
var (
	kCoreSampledCycles   = stats.Register("coreSampledCycles", "core-cycles covered by the periodic sampler")
	kCyclesBlocked       = stats.Register("cyclesBlocked", "sampled cycles during which a persist buffer could not flush")
	kLLCEvictionsDelayed = stats.Register("llcEvictionsDelayed", "LLC evictions of PM lines delayed behind the WBB")
	kLockContended       = stats.Register("lockContended", "lock acquisitions that found the lock held")
	kPBOccupancy         = stats.RegisterDist("pbOccupancy", "sampled persist-buffer occupancy distribution")
	kPMLinesDropped      = stats.Register("pmLinesDropped", "PM-line evictions dropped (clean or superseded)")
	kRTOccupancy         = stats.RegisterDist("rtOccupancy", "sampled recovery-table occupancy distribution")
	kWbbFullStalls       = stats.Register("wbbFullStalls", "evictions stalled on a full write-back buffer")
	kWbbParked           = stats.Register("wbbParked", "dirty PM lines parked in the write-back buffer")
)
