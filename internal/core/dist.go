package core

import "fmt"

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
// Blobs cross by reference, under blockstore.Store's immutability rule:
// the exports hand out the stored blobs, InstallRank and ApplyDeltas
// store the shipped ones, and nobody copies or writes through them.
// InstallRank is an install (core.go), so the worker's ExportDelta is a
// pure run delta. ApplyDeltas checks every delta before it changes
// anything, then merges them as the in-process transport would have
// accumulated the same run, so a shipped run is bit-identical to it:
// state, ledger, measurements, and the deterministic Stats counters.

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
	// order (self-describing: each carries its codec tag). ExportDelta
	// fills them with the worker's stored blobs and ApplyDeltas stores
	// them as they are: neither side may write through them.
	Blocks [][]byte
	// Stats is the run's accounting delta (the rank's stats restarted
	// at InstallRank).
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

// ExportRankBlocks returns one rank's stored compressed blocks (in
// block order) and its current error level — the state a distributed
// worker must start from. The slices are the store's own and
// read-only. It never decompresses anything.
func (s *Simulator) ExportRankBlocks(r int) (blocks [][]byte, level int, err error) {
	if r < 0 || r >= len(s.ranks) {
		return nil, 0, fmt.Errorf("core: rank %d out of range", r)
	}
	rs := s.ranks[r]
	if blocks, err = rs.blobs(); err != nil {
		return nil, 0, err
	}
	return blocks, rs.level, nil
}

// InstallRank overwrites one rank's state with shipped blocks and
// error level and restarts the rank's accounting (install), so the
// following run accumulates a pure delta for ExportDelta. The rank
// stores the blobs themselves: the caller hands them over and must not
// write through them afterwards. A refused image wraps ErrBadDelta.
func (s *Simulator) InstallRank(r int, blocks [][]byte, level int) error {
	if r < 0 || r >= len(s.ranks) {
		return fmt.Errorf("%w: rank %d out of range", ErrBadDelta, r)
	}
	if err := s.checkImage(blocks, level); err != nil {
		return fmt.Errorf("%w: rank %d: %v", ErrBadDelta, r, err)
	}
	return s.install(s.ranks[r], blobsOf(blocks), level, false)
}

// checkImage holds a shipped rank image to what a simulator of this
// configuration can hold: one non-empty blob per block (an empty one
// would read as "member untouched" in the next pass) and a level on
// the ladder.
func (s *Simulator) checkImage(blocks [][]byte, level int) error {
	if len(blocks) != s.blocksPerRank() {
		return fmt.Errorf("%d blocks, geometry has %d", len(blocks), s.blocksPerRank())
	}
	if level < 0 || level > len(s.cfg.ErrorLevels) {
		return fmt.Errorf("error level %d outside [0, %d]", level, len(s.cfg.ErrorLevels))
	}
	for b, blob := range blocks {
		if len(blob) == 0 {
			return fmt.Errorf("block %d is empty", b)
		}
	}
	return nil
}

// ExportDelta gathers what this process's rank r changed during the
// preceding run: the stored blocks (read-only, as ExportRankBlocks),
// level, and the stats delta accumulated since InstallRank, plus the
// rank's view of the shared per-run accounting (gate levels,
// measurements, traffic).
func (s *Simulator) ExportDelta(r int) (*RankDelta, error) {
	if r < 0 || r >= len(s.ranks) {
		return nil, fmt.Errorf("core: rank %d out of range", r)
	}
	rs := s.ranks[r]
	s.syncStoreStats(rs)
	blocks, err := rs.blobs()
	if err != nil {
		return nil, err
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
// replace, the stats merge (Stats.merge) and the footprint gauges
// resample with their high-water marks raised, the per-gate levels max
// elementwise across ranks and fold into the Eq. 11 ledger, and rank
// 0's measurements and gate count append.
//
// Every delta is checked before anything changes (checkDeltas); a
// refusal wraps ErrBadDelta and leaves the simulator as it was. A store
// failure while merging (a spill write) may leave a partial import;
// callers treat that as a failed run and keep their own pre-export copy
// authoritative.
func (s *Simulator) ApplyDeltas(deltas []*RankDelta) error {
	byRank, maxLevels, err := s.checkDeltas(deltas)
	if err != nil {
		return err
	}
	s.version++
	for _, d := range byRank {
		rs := s.ranks[d.Rank]
		if err := blobsOf(d.Blocks)(rs.store.Put); err != nil {
			return err
		}
		rs.level = d.Level
		// The budget latch persists across runs until Reset, like the
		// in-process transport's.
		rs.overBudget = rs.overBudget || d.OverBudget
		rs.stats.merge(d.Stats)
		s.sampleFootprint(rs)
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

// checkDeltas holds deltas to what the workers of one run of this
// configuration send — one delta per rank, each rank image valid
// (checkImage), gate-level arrays of one length, a whole number of
// ledger rounds, every entry a ladder level, Executed within the gates
// the array covers, and no more measurements than executed gates, each
// 0 or 1 — and returns them by rank with the elementwise max of their
// gate levels.
func (s *Simulator) checkDeltas(deltas []*RankDelta) (byRank []*RankDelta, maxLevels []uint32, err error) {
	bad := func(format string, args ...any) ([]*RankDelta, []uint32, error) {
		return nil, nil, fmt.Errorf("%w: %s", ErrBadDelta, fmt.Sprintf(format, args...))
	}
	if len(deltas) != len(s.ranks) {
		return bad("%d deltas for %d ranks", len(deltas), len(s.ranks))
	}
	byRank = make([]*RankDelta, len(s.ranks))
	for _, d := range deltas {
		switch {
		case d == nil:
			return bad("nil rank delta")
		case d.Rank < 0 || d.Rank >= len(s.ranks):
			return bad("delta rank %d out of range", d.Rank)
		case byRank[d.Rank] != nil:
			return bad("duplicate delta for rank %d", d.Rank)
		}
		byRank[d.Rank] = d
	}
	rounds, top := s.ledgerRounds(), uint32(len(s.cfg.ErrorLevels))
	for _, d := range byRank {
		if err := s.checkImage(d.Blocks, d.Level); err != nil {
			return bad("rank %d: %v", d.Rank, err)
		}
		if len(d.GateLevels)%rounds != 0 {
			return bad("rank %d: %d gate levels, not a whole number of %d-round gates", d.Rank, len(d.GateLevels), rounds)
		}
		if d.Executed < 0 || d.Executed > len(d.GateLevels)/rounds {
			return bad("rank %d: %d gates executed of %d", d.Rank, d.Executed, len(d.GateLevels)/rounds)
		}
		if len(d.Measurements) > d.Executed {
			return bad("rank %d: %d measurements in %d gates", d.Rank, len(d.Measurements), d.Executed)
		}
		for i, m := range d.Measurements {
			if m != 0 && m != 1 {
				return bad("rank %d: measurement %d has outcome %d", d.Rank, i, m)
			}
		}
		if maxLevels == nil {
			maxLevels = make([]uint32, len(d.GateLevels))
		} else if len(d.GateLevels) != len(maxLevels) {
			return bad("rank %d: %d gate levels, another rank has %d", d.Rank, len(d.GateLevels), len(maxLevels))
		}
		for i, lvl := range d.GateLevels {
			if lvl > top {
				return bad("rank %d: gate level %d above the ladder's %d", d.Rank, lvl, top)
			}
			maxLevels[i] = max(maxLevels[i], lvl)
		}
	}
	return byRank, maxLevels, nil
}
