package core

import (
	"fmt"

	"qcsim/internal/blockstore"
)

// Distributed-run state transfer. When a run executes over a process
// transport (Config.Launcher backed by qcsim/internal/mpi/tcpnet), the
// coordinator process holds the authoritative Simulator and each worker
// process holds a same-configuration Simulator of which exactly one
// rank is "live". The protocol is:
//
//  1. coordinator: ExportRankBlocks(r) for every rank → ship to workers
//  2. worker r:    InstallRank(r, blocks, level) → RunControlled →
//                  ExportDelta(r) → ship back
//  3. coordinator: ApplyDeltas(all deltas)
//
// InstallRank zeroes the worker rank's stats, so ExportDelta is a pure
// run delta; ApplyDeltas merges those deltas exactly the way the
// in-process transport would have accumulated them — counters add,
// gauges resample, high-water marks max, and the per-gate error levels
// fold into the Eq. 11 ledger after an elementwise max across ranks,
// mirroring the in-process CAS-max. A run shipped this way is
// bit-identical to the same run on the goroutine transport: state,
// ledger, measurements, and the deterministic Stats counters.

// RankDelta is what one worker rank sends back after a distributed
// run: the rank's post-run blocks and error level, the run's stats
// delta, and the rank's view of the shared per-run accounting.
type RankDelta struct {
	// Rank is the SPMD rank this delta describes.
	Rank int
	// Level is the rank's §3.7 error level after the run.
	Level int
	// OverBudget is the rank's budget latch after the run.
	OverBudget bool
	// Blocks are the rank's compressed blocks after the run, in block
	// order (self-describing: each carries its codec tag).
	Blocks [][]byte
	// Stats is the run's accounting delta (the rank's stats were
	// zeroed at InstallRank).
	Stats Stats
	// GateLevels is the error level this rank used per gate and
	// truncation round (s.gateLevel after the run); the coordinator
	// maxes the arrays elementwise across ranks before folding the
	// ledger.
	GateLevels []uint32
	// Measurements are the outcomes recorded this run. Only rank 0
	// records outcomes (it draws and broadcasts them), so the
	// coordinator appends rank 0's list.
	Measurements []int
	// Executed is the number of gates rank 0 completed (the length of
	// the run's completed prefix); meaningful on rank 0's delta.
	Executed int
	// BytesMoved is the cross-rank traffic this rank's comm sent.
	BytesMoved int64
}

// ExportRankBlocks returns a copy of one rank's compressed blocks (in
// block order) and its current error level — the state a distributed
// worker must start from. It never decompresses anything.
func (s *Simulator) ExportRankBlocks(r int) (blocks [][]byte, level int, err error) {
	if r < 0 || r >= len(s.ranks) {
		return nil, 0, fmt.Errorf("core: rank %d out of range", r)
	}
	rs := s.ranks[r]
	nb := s.blocksPerRank()
	blocks = make([][]byte, nb)
	for b := 0; b < nb; b++ {
		blob, err := rs.store.Peek(b)
		if err != nil {
			return nil, 0, err
		}
		blocks[b] = append([]byte(nil), blob...)
	}
	return blocks, rs.level, nil
}

// InstallRank overwrites one rank's state with shipped blocks and
// error level, and zeroes the rank's stats so the following run
// accumulates a pure delta for ExportDelta. The blocks are copied in.
func (s *Simulator) InstallRank(r int, blocks [][]byte, level int) error {
	if r < 0 || r >= len(s.ranks) {
		return fmt.Errorf("core: rank %d out of range", r)
	}
	if len(blocks) != s.blocksPerRank() {
		return fmt.Errorf("core: rank %d: %d blocks shipped, geometry has %d", r, len(blocks), s.blocksPerRank())
	}
	if level < 0 || level > len(s.cfg.ErrorLevels) {
		return fmt.Errorf("core: rank %d: error level %d out of range", r, level)
	}
	rs := s.ranks[r]
	for b, blob := range blocks {
		if len(blob) == 0 {
			return fmt.Errorf("core: rank %d: empty block %d", r, b)
		}
		if err := rs.store.Put(b, append([]byte(nil), blob...)); err != nil {
			return err
		}
	}
	rs.level = level
	rs.overBudget = false
	rs.stats = Stats{}
	for _, w := range rs.workers {
		w.stats = Stats{}
	}
	rs.storeAcc = blockstore.Stats{}
	rs.storeBase = rs.store.Stats()
	s.syncStoreStats(rs)
	rs.stats.MaxFootprint = rs.stats.CurrentFootprint
	rs.stats.MaxResident = rs.stats.ResidentFootprint
	s.version++
	return nil
}

// ExportDelta gathers what this process's rank r changed during the
// preceding run: blocks, level, and the stats delta accumulated since
// InstallRank, plus the rank's view of the shared per-run accounting
// (gate levels, measurements, traffic).
func (s *Simulator) ExportDelta(r int) (*RankDelta, error) {
	if r < 0 || r >= len(s.ranks) {
		return nil, fmt.Errorf("core: rank %d out of range", r)
	}
	rs := s.ranks[r]
	s.syncStoreStats(rs)
	nb := s.blocksPerRank()
	blocks := make([][]byte, nb)
	for b := 0; b < nb; b++ {
		blob, err := rs.store.Peek(b)
		if err != nil {
			return nil, err
		}
		blocks[b] = append([]byte(nil), blob...)
	}
	d := &RankDelta{
		Rank:       r,
		Level:      rs.level,
		OverBudget: rs.overBudget,
		Blocks:     blocks,
		Stats:      rs.stats,
		GateLevels: append([]uint32(nil), s.gateLevel...),
		Executed:   s.gatesRun,
		BytesMoved: s.bytesMoved,
	}
	if r == 0 {
		d.Measurements = append([]int(nil), s.measurements...)
	}
	return d, nil
}

// ApplyDeltas merges one delta per rank (any order, each rank exactly
// once) into the coordinator's state, exactly as the in-process
// transport would have accumulated the same run: blocks and levels
// replace, stats counters add, footprint gauges resample with their
// high-water marks maxed, the per-gate levels max elementwise across
// ranks and fold into the Eq. 11 ledger, and rank 0's measurements and
// gate count append. On error the state may hold a partial import;
// callers treat that as a failed run and keep their own pre-export
// copy authoritative.
func (s *Simulator) ApplyDeltas(deltas []*RankDelta) error {
	if len(deltas) != len(s.ranks) {
		return fmt.Errorf("core: %d deltas for %d ranks", len(deltas), len(s.ranks))
	}
	byRank := make([]*RankDelta, len(s.ranks))
	for _, d := range deltas {
		if d == nil {
			return fmt.Errorf("core: nil rank delta")
		}
		if d.Rank < 0 || d.Rank >= len(s.ranks) {
			return fmt.Errorf("core: delta rank %d out of range", d.Rank)
		}
		if byRank[d.Rank] != nil {
			return fmt.Errorf("core: duplicate delta for rank %d", d.Rank)
		}
		byRank[d.Rank] = d
	}
	var maxLevels []uint32
	for _, d := range byRank {
		if len(d.Blocks) != s.blocksPerRank() {
			return fmt.Errorf("core: rank %d delta has %d blocks, geometry has %d", d.Rank, len(d.Blocks), s.blocksPerRank())
		}
		if maxLevels == nil {
			maxLevels = append([]uint32(nil), d.GateLevels...)
		} else {
			if len(d.GateLevels) != len(maxLevels) {
				return fmt.Errorf("core: rank %d delta has %d gate levels, rank 0 has %d", d.Rank, len(d.GateLevels), len(maxLevels))
			}
			for i, lvl := range d.GateLevels {
				if lvl > maxLevels[i] {
					maxLevels[i] = lvl
				}
			}
		}
	}
	s.version++
	for _, d := range byRank {
		rs := s.ranks[d.Rank]
		for b, blob := range d.Blocks {
			if err := rs.store.Put(b, append([]byte(nil), blob...)); err != nil {
				return err
			}
		}
		rs.level = d.Level
		// The budget latch persists across runs until Reset, like the
		// in-process transport's.
		rs.overBudget = rs.overBudget || d.OverBudget
		mergeRunDelta(&rs.stats, d.Stats)
		// Fold the worker's spill counters (a pure run delta — its
		// store was re-baselined at InstallRank) into the baseline
		// accumulator, so syncStoreStats reports worker I/O on top of
		// the coordinator store's own history.
		rs.storeAcc = rs.storeAcc.Plus(blockstore.Stats{
			SpillWrites:   d.Stats.SpillWrites,
			SpillReads:    d.Stats.SpillReads,
			PrefetchReads: d.Stats.PrefetchReads,
			PrefetchHits:  d.Stats.PrefetchHits,
		})
		s.syncStoreStats(rs)
		if rs.stats.CurrentFootprint > rs.stats.MaxFootprint {
			rs.stats.MaxFootprint = rs.stats.CurrentFootprint
		}
	}
	s.foldLedger(maxLevels)
	d0 := byRank[0]
	s.measurements = append(s.measurements, d0.Measurements...)
	s.gatesRun += d0.Executed
	for _, d := range byRank {
		s.bytesMoved += d.BytesMoved
	}
	return nil
}

// mergeRunDelta folds a worker rank's run delta into the coordinator's
// per-rank stats: durations and counters add, high-water marks max,
// and the footprint/spill gauges are left to the following
// syncStoreStats resample (the coordinator's store now holds the
// rank's blocks).
func mergeRunDelta(s *Stats, d Stats) {
	s.CompressTime += d.CompressTime
	s.DecompressTime += d.DecompressTime
	s.ComputeTime += d.ComputeTime
	s.CommTime += d.CommTime
	s.Gates += d.Gates
	s.CacheLookups += d.CacheLookups
	s.CacheHits += d.CacheHits
	s.CompressCalls += d.CompressCalls
	s.DecompressCalls += d.DecompressCalls
	s.Sweeps += d.Sweeps
	s.SweepGates += d.SweepGates
	s.CodecPassesSaved += d.CodecPassesSaved
	s.CodecPassesShared += d.CodecPassesShared
	if d.VariantCount > s.VariantCount {
		s.VariantCount = d.VariantCount
	}
	if d.MaxFootprint > s.MaxFootprint {
		s.MaxFootprint = d.MaxFootprint
	}
	if d.MaxResident > s.MaxResident {
		s.MaxResident = d.MaxResident
	}
	if d.FinalLevel > s.FinalLevel {
		s.FinalLevel = d.FinalLevel
	}
	s.Escalations += d.Escalations
}
