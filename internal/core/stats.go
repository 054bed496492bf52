package core

import "time"

// Stats is the per-rank (and aggregated) accounting that regenerates the
// paper's Table 2 breakdown: where the time went, how small the state
// stayed, and how well the block cache did.
type Stats struct {
	// Time breakdown (Table 2 rows).
	CompressTime   time.Duration
	DecompressTime time.Duration
	ComputeTime    time.Duration
	CommTime       time.Duration

	// Gates executed (unitary applications; measurements count too).
	Gates int

	// Block cache behaviour (§3.4).
	CacheLookups int64
	CacheHits    int64

	// Codec traffic: how many block encode/decode calls the engine
	// issued (cache hits and control-skipped blocks issue none). The
	// sweep scheduler exists to shrink these. A batch variant forked off
	// variant 0's walk inside a pass decodes nothing of its own: its
	// chunk decodes variant 0's inputs once, charged to the chunk's first
	// fork, so a batch's DecompressCalls count each chunk's decode once
	// (qaoa-grad: 18 for 79 variants, not 158). A measurement's
	// probability read charges one per distinct compact blob it reads
	// (GHZ-28, qubit 27: 2 for 32 768 blocks); inspectors charge none.
	CompressCalls   int64
	DecompressCalls int64

	// Codec calls a group's walk left out because an earlier member of
	// the same group had done the work: DecompressReused counts members
	// whose compact input blob equals an earlier member's, whose decoded
	// buffer they copy; CompressReused counts fired members whose
	// amplitudes are bit-equal to an earlier encoded member's, whose blob
	// they share. Calls plus reuses count the members the walks coded
	// (Grover-27 at one worker: 262 + 488 encodes, 265 + 483 decodes).
	CompressReused   int64
	DecompressReused int64

	// Sweep scheduler behaviour. Sweeps counts the group sweeps executed,
	// those that exchange groups with a peer rank included (none when the
	// scheduler is off), and SweepGates the gates they covered, the noise
	// channel's Paulis included; CodecPassesSaved is the
	// number of per-block decompress+recompress round trips avoided
	// versus gate-at-a-time execution: per block actually run through
	// the codec, the gates that fired on it minus one.
	Sweeps           int
	SweepGates       int
	CodecPassesSaved int64

	// Variant batching behaviour (RunBatch). CodecPassesShared counts
	// per-block codec round trips a variant avoided because the batch
	// memo had already produced the output for the same (op, level,
	// compressed input) — sharing across variants whose passes and blocks
	// have not diverged, and across byte-identical blocks within one
	// pass. A fork — a variant that parts from variant 0 inside a pass —
	// shares variant 0's decode and gate prefix but recompresses its own
	// blocks, so it counts here not at all (qaoa-grad: 0); its saving
	// shows in DecompressCalls and the compute time. VariantCount is the
	// batch width K of the most recent batched run (0 when the state has
	// only ever run solo).
	CodecPassesShared int64
	VariantCount      int

	// Footprint accounting. CurrentFootprint is Σ len(compressed
	// block) across both memory tiers; MaxFootprint is its high-water
	// mark, from which the minimum compression ratio of Table 2
	// derives. Both are maintained inside the block store and sampled
	// at sweep boundaries.
	CurrentFootprint int64
	MaxFootprint     int64

	// Tiered block-store behaviour (all zero unless spilling is
	// enabled; the in-RAM store keeps every block resident, so
	// ResidentFootprint == CurrentFootprint there). ResidentFootprint
	// is the compressed bytes currently held in RAM and MaxResident its
	// gate-boundary high-water mark — the RSS proxy of the out-of-core
	// experiments. SpilledBytes is the gauge of bytes on disk right
	// now; SpillWrites/SpillReads count blocks written to and
	// synchronously read back from the spill file; PrefetchReads counts
	// blocks the async prefetcher staged ahead of demand and
	// PrefetchHits how many Gets a staged block saved from a disk
	// stall.
	ResidentFootprint int64
	MaxResident       int64
	SpilledBytes      int64
	SpillWrites       int64
	SpillReads        int64
	PrefetchReads     int64
	PrefetchHits      int64

	// FinalLevel is the error-bound level reached (0 = still
	// lossless).
	FinalLevel int

	// Escalations counts §3.7 bound relaxations; each is followed by one
	// requantize pass over the rank's blocks at the new level.
	Escalations int
}

// TotalTime sums the tracked components.
func (s Stats) TotalTime() time.Duration {
	return s.CompressTime + s.DecompressTime + s.ComputeTime + s.CommTime
}

// Add accumulates o into s (for aggregating rank stats): merge, except
// that every rank executes the same gates and sweep schedule, so the
// aggregate reports the schedule once (max), not ranks × schedule, and
// each rank holds its own share of the state, so the footprints and
// their high-water marks sum.
func (s Stats) Add(o Stats) Stats {
	gates, sweeps, sweepGates := max(s.Gates, o.Gates), max(s.Sweeps, o.Sweeps), max(s.SweepGates, o.SweepGates)
	maxFootprint, maxResident := s.MaxFootprint+o.MaxFootprint, s.MaxResident+o.MaxResident
	s.merge(o)
	s.Gates, s.Sweeps, s.SweepGates = gates, sweeps, sweepGates
	s.MaxFootprint, s.MaxResident = maxFootprint, maxResident
	s.CurrentFootprint += o.CurrentFootprint
	s.ResidentFootprint += o.ResidentFootprint
	s.SpilledBytes += o.SpilledBytes
	return s
}

// merge folds accounting one rank accumulated elsewhere into its totals
// — a worker's shard after a fan-out, a worker process's run delta in
// ApplyDeltas: times and counters add, high-water marks, FinalLevel and
// VariantCount max. The footprint and spill gauges are left to the
// next syncStoreStats, which resamples them from the rank's own store.
func (s *Stats) merge(o Stats) {
	s.CompressTime += o.CompressTime
	s.DecompressTime += o.DecompressTime
	s.ComputeTime += o.ComputeTime
	s.CommTime += o.CommTime
	s.Gates += o.Gates
	s.CacheLookups += o.CacheLookups
	s.CacheHits += o.CacheHits
	s.CompressCalls += o.CompressCalls
	s.DecompressCalls += o.DecompressCalls
	s.CompressReused += o.CompressReused
	s.DecompressReused += o.DecompressReused
	s.Sweeps += o.Sweeps
	s.SweepGates += o.SweepGates
	s.CodecPassesSaved += o.CodecPassesSaved
	s.CodecPassesShared += o.CodecPassesShared
	s.VariantCount = max(s.VariantCount, o.VariantCount)
	s.MaxFootprint = max(s.MaxFootprint, o.MaxFootprint)
	s.MaxResident = max(s.MaxResident, o.MaxResident)
	s.SpillWrites += o.SpillWrites
	s.SpillReads += o.SpillReads
	s.PrefetchReads += o.PrefetchReads
	s.PrefetchHits += o.PrefetchHits
	s.FinalLevel = max(s.FinalLevel, o.FinalLevel)
	s.Escalations += o.Escalations
}

// MinCompressionRatio returns uncompressed-state-bytes / peak-footprint,
// the last row of Table 2. stateBytes is the full uncompressed size the
// stats cover.
func (s Stats) MinCompressionRatio(stateBytes float64) float64 {
	if s.MaxFootprint == 0 {
		return 0
	}
	return stateBytes / float64(s.MaxFootprint)
}
