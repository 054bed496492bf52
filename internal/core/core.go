package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qcsim/internal/blockstore"
	"qcsim/internal/compress"
	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// Block storage tags: the first byte of every stored block identifies
// how it was compressed so checkpoints are self-describing.
const (
	tagLossless byte = 0
	tagLossy    byte = 1
	tagRaw      byte = 2
)

// rawPrefix, losslessPrefix and lossyPrefix are what the blobs of each
// tag grow from. None is ever written: each one's capacity is its
// length, so appending to it always allocates, and a shared read-only
// prefix saves the one-byte allocation a literal costs per block.
var (
	rawPrefix      = []byte{tagRaw}
	losslessPrefix = []byte{tagLossless}
	lossyPrefix    = []byte{tagLossy}
)

// Simulator is the compressed-state engine. Construct with New, run
// circuits with Run (repeatable — state persists across calls), inspect
// with Amplitude/FullState/Stats, persist with Save/Load.
type Simulator struct {
	cfg Config

	// Geometry (paper Fig. 3): global amplitude index =
	// [rank bits | block bits | offset bits].
	offsetBits int // log2(amplitudes per block)
	blockBits  int // log2(blocks per rank)
	rankBits   int // log2(ranks)

	ranks []*rankState

	gatesRun     int
	measurements []int
	bytesMoved   int64
	// rng drives measurement collapse. sampleRng is the dedicated stream
	// Sample falls back to when the caller passes no rng; keeping it
	// separate makes sampling side-effect-free: drawing samples never
	// perturbs later measurement outcomes. Both are seeded from the
	// configured seed on first use, so a batch's clones — which mostly
	// never measure or sample — skip seeding two generators each.
	rng       *rand.Rand
	sampleRng *rand.Rand
	// noise is the depolarizing channel's stream (drawPauli), seeded on
	// first use like the two above, and noiseDraws the gates it has drawn
	// for: where rewindNoise puts it back to after a run that stopped
	// early.
	noise      *rand.Rand
	noiseDraws int

	// ledger is the fidelity lower bound Π(1-δᵢ) over executed gates
	// (Eq. 11).
	ledger float64

	// version counts state mutations (runs, resets, checkpoint loads) so
	// a Sampler can detect that its CDF no longer describes the state.
	version uint64

	// gateLevel is the current Run's ledger grid (atomic access): entry
	// gi*ledgerRounds()+round is the max error level any rank used for
	// truncation number round of the boundary after gate gi — round 0
	// the sweep's own recompression, later rounds the requantize passes
	// of the at-rest budget rule (one row unless a budget is set).
	gateLevel []uint32
}

// rankState is one rank's share: a block store holding nb compressed
// blocks plus a pool of workers, each of which holds its share of the
// MCDRAM working set of Eq. 8 only while a Run runs (workerState). The
// store owns the footprint accounting; block slots need no coordination
// at all — during one gate each block index is owned by exactly one
// worker.
type rankState struct {
	id      int
	store   blockstore.Store
	workers []*workerState
	level   int
	cache   *blockCache
	stats   Stats
	// seen is the store's spill counters at the last syncStoreStats,
	// which adds their growth since to the rank's Stats.
	seen blockstore.Stats
	// overBudget latches when a sweep boundary finds the footprint above
	// the memory budget with no escalation level left — the state was
	// recompressed at the loosest bound and still did not fit.
	overBudget bool
}

// workerState is one worker of a rank's pool. Its scratch is one group
// (see group): allocated on the worker's first pass of a Run (hold) and
// dropped when the Run returns (runLockstep), so between runs no worker
// holds any — an idle Simulator, and a batch variant, whose passes run
// on variant 0's pool, hold none. The Table 2 accounting a pass makes is
// charged to Stats shards its caller owns, never to the worker.
type workerState struct {
	id   int // index in the rank's pool
	size int // floats in one block's scratch: two per amplitude
	grp  *group
	// applied counts the gates this worker's kernels have run, one per
	// gate per group: what a fork's shared prefix saves, as a number no
	// clock enters.
	applied int64
}

// hold returns the worker's group, allocated on its first pass of a Run.
func (w *workerState) hold() *group {
	if w.grp == nil {
		w.grp = &group{w: w}
	}
	return w.grp
}

// New builds a Simulator initialized to |0...0⟩.
func New(cfg Config) (*Simulator, error) {
	s, err := alloc(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Reset(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// alloc builds a Simulator whose block tables are still empty: the
// caller installs every rank (Reset, Clone).
func alloc(cfg Config) (*Simulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:      cfg,
		rankBits: bits.TrailingZeros(uint(cfg.Ranks)),
		ledger:   1,
	}
	perRank := cfg.Qubits - s.rankBits
	s.offsetBits = bits.TrailingZeros(uint(cfg.BlockAmps))
	if s.offsetBits > perRank {
		s.offsetBits = perRank
	}
	s.blockBits = perRank - s.offsetBits

	s.ranks = make([]*rankState, cfg.Ranks)
	for r := range s.ranks {
		rs := &rankState{
			id:      r,
			workers: make([]*workerState, cfg.Workers),
			cache:   newBlockCache(cfg.CacheLines),
		}
		store, err := s.newStore(r)
		if err != nil {
			s.Close()
			return nil, err
		}
		rs.store = store
		for w := range rs.workers {
			rs.workers[w] = &workerState{id: w, size: 2 * s.blockAmps()}
		}
		s.ranks[r] = rs
	}
	return s, nil
}

// newStore builds one rank's block table: the plain in-RAM table by
// default, the tiered RAM→disk store when the configuration enables
// spilling. Checkpoint Load uses it too, for its staging stores.
func (s *Simulator) newStore(rank int) (blockstore.Store, error) {
	nb := s.blocksPerRank()
	if !s.cfg.spillEnabled() {
		return blockstore.NewRAM(nb), nil
	}
	return blockstore.NewTiered(nb, s.cfg.SpillDir, fmt.Sprintf("rank%d", rank), s.cfg.SpillRAMBudget)
}

// Close releases the per-rank block stores — for a spill-enabled
// simulator, the spill files on disk. Idempotent; a no-op for the
// default in-RAM configuration. The simulator must not be used after
// Close.
func (s *Simulator) Close() error {
	var firstErr error
	for _, rs := range s.ranks {
		if rs == nil || rs.store == nil {
			continue
		}
		if err := rs.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// launcher returns the transport that runs the SPMD rank bodies: the
// configured one, defaulting to the in-process goroutine runtime.
func (s *Simulator) launcher() mpi.Launcher {
	if s.cfg.Launcher != nil {
		return s.cfg.Launcher
	}
	return mpi.Goroutines{}
}

// blockAmps returns the amplitudes per block.
func (s *Simulator) blockAmps() int { return 1 << uint(s.offsetBits) }

// blocksPerRank returns nb.
func (s *Simulator) blocksPerRank() int { return 1 << uint(s.blockBits) }

// Qubits returns the register width.
func (s *Simulator) Qubits() int { return s.cfg.Qubits }

// Config returns the effective (defaulted) configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Reset reinitializes the state to |0...0⟩: basis at index 0.
func (s *Simulator) Reset() error { return s.basis(0) }

// basis reinitializes the state to |idx⟩: ledger 1, no gates, no
// measurements, every rank at level 0 with its accounting restarted
// (install). The install's own codec work is then charged: one compress
// call per rank for the all-zero block and one for the block holding
// the |idx⟩ amplitude, R+1 in all, each from a block buffer of basis's
// own, so no worker holds scratch after it.
func (s *Simulator) basis(idx uint64) error {
	r, b, o := s.locate(idx)
	scratch := make([]float64, 2*s.blockAmps())
	for _, rs := range s.ranks {
		var st Stats
		// Every block but the one holding |idx⟩ is all zero: compress it
		// once and let every slot share the one immutable blob, so a wide
		// register (2^28 amplitudes and beyond) initializes with at most
		// two codec calls and two blobs per rank instead of one per block.
		zero, err := s.compressBlock(0, scratch, &st)
		if err != nil {
			return err
		}
		one := zero
		if rs.id == r {
			scratch[2*o] = 1
			one, err = s.compressBlock(0, scratch, &st)
			scratch[2*o] = 0
			if err != nil {
				return err
			}
		}
		err = s.install(rs, func(put func(b int, blob []byte) error) error {
			for blk := range s.blocksPerRank() {
				blob := zero
				if blk == b {
					blob = one
				}
				if err := put(blk, blob); err != nil {
					return err
				}
			}
			return nil
		}, 0, false)
		if err != nil {
			return err
		}
		rs.stats.merge(st)
	}
	s.ledger = 1
	s.gatesRun = 0
	s.measurements = nil
	return nil
}

// blobWalk hands every block of a rank image to fn in block order: a
// rank's store (rankState.walk) or a shipped list (blobsOf).
type blobWalk func(fn func(b int, blob []byte) error) error

// walk is the one bulk read of a rank's blocks (Clone, Save,
// ExportRankBlocks, ExportDelta). It Peeks, so the resident set the hot
// path relies on is not disturbed, and fn receives the stored blobs
// themselves: read-only, under blockstore.Store's immutability rule.
func (rs *rankState) walk(fn func(b int, blob []byte) error) error {
	for b := range rs.store.Len() {
		blob, err := rs.store.Peek(b)
		if err != nil {
			return err
		}
		if err := fn(b, blob); err != nil {
			return err
		}
	}
	return nil
}

// blobs collects walk: the rank's stored blobs, in block order.
func (rs *rankState) blobs() ([][]byte, error) {
	out := make([][]byte, rs.store.Len())
	return out, rs.walk(func(b int, blob []byte) error {
		out[b] = blob
		return nil
	})
}

// blobsOf walks a block list the way rankState.walk walks a store.
func blobsOf(blocks [][]byte) blobWalk {
	return func(fn func(b int, blob []byte) error) error {
		for b, blob := range blocks {
			if err := fn(b, blob); err != nil {
				return err
			}
		}
		return nil
	}
}

// install is the one way a rank's block table is replaced whole (Reset,
// Clone, InstallRank). Every blob src walks is Put by reference, the
// §3.7 level and the budget latch are set, and the rank's accounting
// restarts: Stats zero except FinalLevel = level, the spill counters
// baselined at the store's counters after the Puts (evictions the
// install itself causes belong to no run), and the footprint gauges
// resampled, with their high-water marks starting at them.
func (s *Simulator) install(rs *rankState, src blobWalk, level int, overBudget bool) error {
	if err := src(rs.store.Put); err != nil {
		return err
	}
	s.version++
	rs.level, rs.overBudget = level, overBudget
	rs.stats, rs.seen = Stats{FinalLevel: level}, rs.store.Stats()
	s.sampleFootprint(rs)
	return nil
}

// SetBasisState re-initializes to |idx⟩ (basis).
func (s *Simulator) SetBasisState(idx uint64) error {
	if idx >= 1<<uint(s.cfg.Qubits) {
		return fmt.Errorf("core: basis state %d out of range", idx)
	}
	return s.basis(idx)
}

// locate splits a global amplitude index into (rank, block, offset) per
// the paper's Fig. 3 segmentation.
func (s *Simulator) locate(idx uint64) (rank, block, offset int) {
	offset = int(idx & uint64(s.blockAmps()-1))
	block = int(idx >> uint(s.offsetBits) & uint64(s.blocksPerRank()-1))
	rank = int(idx >> uint(s.offsetBits+s.blockBits))
	return rank, block, offset
}

// compose rebuilds a global index from segments.
func (s *Simulator) compose(rank, block, offset int) uint64 {
	return uint64(rank)<<uint(s.offsetBits+s.blockBits) |
		uint64(block)<<uint(s.offsetBits) | uint64(offset)
}

// compressBlock encodes scratch under the given error level, appending
// the codec tag. Timing is charged to st — a worker's shard on the
// parallel paths, the rank totals on sequential ones.
func (s *Simulator) compressBlock(level int, scratch []float64, st *Stats) ([]byte, error) {
	start := time.Now()
	st.CompressCalls++
	defer func() { st.CompressTime += time.Since(start) }()
	if s.cfg.Uncompressed {
		return compress.AppendFloats(rawPrefix, scratch), nil
	}
	if level == 0 {
		blob, err := s.cfg.Lossless.Compress(losslessPrefix, scratch, compress.Options{Mode: compress.Lossless})
		if err != nil {
			return nil, fmt.Errorf("core: lossless compress: %w", err)
		}
		return blob, nil
	}
	bound := s.cfg.ErrorLevels[level-1]
	blob, err := s.cfg.Lossy.Compress(lossyPrefix, scratch, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
	if err != nil {
		return nil, fmt.Errorf("core: lossy compress: %w", err)
	}
	return blob, nil
}

// decompressBlock is decodeBlob charged to st: the call count and the
// time it took.
func (s *Simulator) decompressBlock(blob []byte, scratch []float64, st *Stats) error {
	start := time.Now()
	st.DecompressCalls++
	err := s.decodeBlob(blob, scratch)
	st.DecompressTime += time.Since(start)
	return err
}

// decodeBlob decodes a stored block into scratch without touching any
// Stats — directly, it is the inspection path, so reading the state
// never skews the Table 2 time breakdown.
func (s *Simulator) decodeBlob(blob []byte, scratch []float64) error {
	if len(blob) == 0 {
		return fmt.Errorf("core: empty block")
	}
	switch blob[0] {
	case tagRaw:
		if len(blob) != 1+len(scratch)*8 {
			return fmt.Errorf("core: raw block size %d", len(blob))
		}
		compress.GetFloats(scratch, blob[1:])
		return nil
	case tagLossless:
		return s.cfg.Lossless.Decompress(scratch, blob[1:])
	case tagLossy:
		return s.cfg.Lossy.Decompress(scratch, blob[1:])
	default:
		return fmt.Errorf("core: unknown block tag %d", blob[0])
	}
}

// syncStoreStats resamples the rank Stats' footprint and spill gauges
// from the block store and adds the growth of its spill counters since
// the last call (rankState.seen). Called at gate boundaries and before
// Stats reads — never mid-fan-out, so the numbers are worker-schedule
// independent.
func (s *Simulator) syncStoreStats(rs *rankState) {
	cur := rs.store.Stats()
	rs.stats.SpillWrites += cur.SpillWrites - rs.seen.SpillWrites
	rs.stats.SpillReads += cur.SpillReads - rs.seen.SpillReads
	rs.stats.PrefetchReads += cur.PrefetchReads - rs.seen.PrefetchReads
	rs.stats.PrefetchHits += cur.PrefetchHits - rs.seen.PrefetchHits
	rs.seen = cur
	rs.stats.SpilledBytes = cur.SpilledBytes
	rs.stats.CurrentFootprint = rs.store.Footprint()
	rs.stats.ResidentFootprint = rs.store.Resident()
	rs.stats.MaxResident = max(rs.stats.MaxResident, rs.stats.ResidentFootprint)
}

// sampleFootprint refreshes the footprint gauges at a sweep boundary
// and raises the MaxFootprint high-water mark. The mark is sampled
// here and never per Put — the store keeps the footprint accounting
// itself, workers racing on distinct block indices share its counters —
// because a mid-gate running peak would depend on block completion
// order and make MaxFootprint irreproducible under a worker pool.
func (s *Simulator) sampleFootprint(rs *rankState) {
	s.syncStoreStats(rs)
	if rs.stats.CurrentFootprint > rs.stats.MaxFootprint {
		rs.stats.MaxFootprint = rs.stats.CurrentFootprint
	}
}

// ledgerRounds is how many truncations one boundary can charge: the
// sweep's own and, under a budget, one requantize per level. A noise
// Pauli is a gate of the trajectory with its own slot, never a round.
func (s *Simulator) ledgerRounds() int {
	if s.cfg.budgeted() {
		return 1 + len(s.cfg.ErrorLevels)
	}
	return 1
}

// foldLedger multiplies the run's charges into the ledger (Eq. 11).
// Gates past an abort boundary were never executed, so their entries
// are still 0; a k-gate sweep recompresses once and charges one factor,
// at its last gate's index.
func (s *Simulator) foldLedger(levels []uint32) {
	for _, lvl := range levels {
		if lvl > 0 {
			s.ledger *= 1 - s.cfg.ErrorLevels[lvl-1]
		}
	}
}

// noteLevel records the level a rank used for truncation number round
// of the boundary after gate gi, for the fidelity ledger.
func (s *Simulator) noteLevel(rs *rankState, gi, round, level int) {
	lvl := uint32(level)
	if level > rs.stats.FinalLevel {
		rs.stats.FinalLevel = level
	}
	slot := &s.gateLevel[gi*s.ledgerRounds()+round]
	for {
		cur := atomic.LoadUint32(slot)
		if cur >= lvl || atomic.CompareAndSwapUint32(slot, cur, lvl) {
			return
		}
	}
}

// forBlocks fans fn out over all of the rank's block indices on the
// worker pool; see forEach.
func (s *Simulator) forBlocks(rs *rankState, fn func(w *workerState, b int) error) error {
	return s.forEach(rs, s.blocksPerRank(), fn)
}

// forEach fans fn out over the indices 0..n-1 — every block of the rank
// (forBlocks), or the entries of a block list the caller holds — on the
// rank's worker pool. fn receives a worker whose group it owns
// exclusively; forEach allocates none — a pass allocates it (hold) —
// and charges no Stats: fn charges shards of its caller's. Shared rank
// state may only be touched through the block store and the
// (concurrency-safe) block cache. Index assignment is dynamic (an atomic
// counter handing out short runs), which is safe because no fan-out path
// depends on iteration order: per-index results are bit-identical for
// every worker count.
func (s *Simulator) forEach(rs *rankState, n int, fn func(w *workerState, i int) error) error {
	nw := len(rs.workers)
	if nw > n {
		nw = n
	}
	var firstErr error
	if nw <= 1 {
		w := rs.workers[0]
		for i := 0; i < n; i++ {
			if firstErr = fn(w, i); firstErr != nil {
				break
			}
		}
	} else {
		// Workers claim runs of consecutive indices, not single ones:
		// when a block costs a cache hit (~100 ns) a per-block claim
		// would make this counter the hottest contended word of the
		// pass. Runs stay short enough (at least 32 per worker) that
		// the tail of a pass still balances when blocks are dear.
		chunk := int64(max(1, min(64, n/(32*nw))))
		var (
			next int64
			fail int32
			once sync.Once
			wg   sync.WaitGroup
			// The workers' first error, declared here so that only a
			// fan-out moves it to the heap, not the serial loop.
			shared error
		)
		for i := 0; i < nw; i++ {
			w := rs.workers[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					lo := atomic.AddInt64(&next, chunk) - chunk
					hi := min(lo+chunk, int64(n))
					if lo >= hi {
						return
					}
					for i := lo; i < hi; i++ {
						if atomic.LoadInt32(&fail) != 0 {
							return
						}
						if err := fn(w, int(i)); err != nil {
							once.Do(func() { shared = err })
							atomic.StoreInt32(&fail, 1)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		firstErr = shared
	}
	return firstErr
}

// RunControl carries the optional per-gate hooks RunControlled consults
// at sweep boundaries. The zero value disables both hooks, making
// RunControlled identical to Run.
type RunControl struct {
	// PollAbort, when non-nil, is consulted on rank 0 before every sweep
	// (every gate when the sweep scheduler is off) that starts at a
	// circuit gate — never between a gate and its noise Pauli — so the
	// cancel latency is one group sweep: one codec pass over the state,
	// however many gates it carries. A non-nil return stops execution at that
	// sweep boundary on every rank (the decision is broadcast, so all
	// ranks agree and no cross-rank exchange is left half-paired) and
	// RunControlled returns an error wrapping it. Gates already executed
	// are kept: state, stats, and the fidelity ledger reflect exactly
	// the completed prefix and the simulator stays fully inspectable.
	PollAbort func() error
	// OnGate, when non-nil, is invoked on rank 0 once per circuit gate,
	// in order, after the sweep completing the gate and its noise Pauli,
	// with the gate's index, the circuit's gate count, and the gate
	// itself; never for a Pauli. It runs on
	// the rank-0 goroutine and must not call back into the Simulator.
	OnGate func(gi, total int, g quantum.Gate)
}

// Run executes the circuit on the current state. It may be called
// repeatedly; state, stats, and the fidelity ledger accumulate.
func (s *Simulator) Run(c *quantum.Circuit) error {
	return s.RunControlled(c, RunControl{})
}

// errPeerRankFailed marks a rank that stopped because the sweep error
// barrier reported a failure on ANOTHER rank; the run loop prefers the
// failing rank's real error over this placeholder.
var errPeerRankFailed = errors.New("core: gate failed on a peer rank")

// RunControlled is Run with sweep-boundary hooks: cooperative abort
// (PollAbort) and progress reporting (OnGate). With zero hooks the
// execution path — every collective, every compressed bit — is
// identical to Run. It is the K = 1 case of the lockstep run loop
// (runLockstep), which RunBatch drives with K ≥ 1.
func (s *Simulator) RunControlled(c *quantum.Circuit, ctl RunControl) error {
	if c.N != s.cfg.Qubits {
		return fmt.Errorf("core: circuit has %d qubits, simulator %d", c.N, s.cfg.Qubits)
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidGate, err)
	}
	if c.Parametric() {
		return fmt.Errorf("core: circuit has unbound parameters; Bind it first")
	}
	return runLockstep([]*Simulator{s}, []*quantum.Circuit{c}, ctl)
}

// runLockstep is the run loop: cs[v] on sims[v] for K ≥ 1 state
// variants of one shape and one configuration, every gate well formed
// (the callers validate all three) — one trajectory (splice: the noise
// channel's Paulis drawn up front and spliced in after their gates), the
// sweep plans (trajectory.plans: one read off every variant's gates, a
// ZZ unit one in each, until a Pauli fires; then each variant's solo
// plan), one set of SPMD ranks, one error barrier per step, and ctl's
// hooks firing once per run, not per variant, and only for the circuit's
// own gates.
//
// Execution walks the plans in steps (trajectory.step): a step runs
// every variant whose next sweep ends at the same place in the circuit
// — all K of them while the plans agree — and each sweep of unitaries,
// Paulis included, is one codec pass over the step's variants — one
// that carries a rank-segment target exchanges its groups with the peer
// rank inside the pass — and a measurement a collective; after each the
// budget is settled (settleBudget). A measurement's outcome draw consumes
// per-variant randomness: it runs variant by variant from that variant's
// own stream, every rank walking the variants in the same order so the
// collectives stay aligned. After every step an error barrier (an
// allreduce of per-rank failure flags) makes all ranks agree on whether
// any rank's codec failed on any variant, so a failure stops every rank
// after the same step and surfaces as an error — never a panic and never
// a hung collective. On error each variant's state reflects its
// completed prefix, except that the failing sweep itself may be
// partially applied on some ranks or variants; the prefixes are one
// unless the variants' plans part there. The simulators stay inspectable
// either way, and each noise stream is rewound to the circuit gates its
// variant completed (rewindNoise).
func runLockstep(sims []*Simulator, cs []*quantum.Circuit, ctl RunControl) error {
	s0, K := sims[0], len(sims)
	nGates := len(cs[0].Gates)
	traj := splice(sims, cs)
	for v, s := range sims {
		if nGates > 0 {
			// Any gate may mutate the state (even a failed run leaves a
			// completed prefix), so samplers built earlier are now stale.
			s.version++
		}
		s.gateLevel = make([]uint32, len(traj.gates[v])*s.ledgerRounds())
	}
	defer func() {
		// Cache lines and the workers' groups, which hold blobs and
		// scratch, must not outlive the run (see blockCache.release and
		// workerState).
		for _, s := range sims {
			for _, rs := range s.ranks {
				rs.cache.release()
				for _, w := range rs.workers {
					w.grp = nil
				}
			}
		}
	}()
	plans := traj.plans(sims)
	counted := !s0.cfg.DisableSweeps // one-gate schedules report no sweeps
	rankErrs := make([]error, s0.cfg.Ranks)
	// abortErr, executed and the measurement logs are written only by
	// the rank-0 goroutine and read after the launcher's completion
	// establishes happens-before.
	var abortErr error
	executed := make([]int, K) // per variant: circuit gates complete
	comms, err := s0.launcher().Launch(s0.cfg.Ranks, func(comm mpi.Comm) {
		r := comm.Rank()
		next := make([]int, K)     // per variant: its next sweep in plans[v]
		bound := make([]int, K)    // per variant: the gates of its list run
		outcomes := make([]int, K) // held back until the barrier clears
		// A step's variants, their sweeps' gates, ZZ units and last gates.
		step, sub := make([]int, 0, K), make([]*Simulator, 0, K)
		gates, units, gis := make([][]quantum.Gate, 0, K), make([][]int, 0, K), make([]int, 0, K)
		ran := 0 // circuit gates complete in every variant
		for {
			if step = traj.step(plans, next, step[:0]); len(step) == 0 {
				break
			}
			if ctl.PollAbort != nil && traj.aligned(bound) {
				// Rank 0 decides; the broadcast makes every rank stop at
				// the same sweep boundary (a rank aborting unilaterally
				// would strand its cross-rank partners mid-exchange).
				var stop float64
				if r == 0 {
					if abortErr = ctl.PollAbort(); abortErr != nil {
						stop = 1
					}
				}
				if comm.Bcast(0, stop) != 0 {
					break
				}
			}
			sub, gates, units, gis = sub[:0], gates[:0], units[:0], gis[:0]
			for _, v := range step {
				sw := plans[v][next[v]]
				sub, gis = append(sub, sims[v]), append(gis, sw.End-1)
				gates, units = append(gates, traj.gates[v][sw.Start:sw.End]), append(units, sw.Units)
			}
			var swErr error
			// A measurement ends every variant's sweep at one place, so
			// a step is all measurements or none.
			measure := gates[0][0].Kind == quantum.KindMeasure
			if measure {
				swErr = eachVariant(sub, func(i int, s *Simulator) (err error) {
					outcomes[step[i]], err = s.measureRank(comm, s.ranks[r], gates[i][0].Target, gis[i])
					return err
				})
			} else {
				swErr = applyUnitaries(comm, sub, gates, units, gis)
			}
			// The at-rest budget rule, per variant: each requantizes
			// exactly where its solo run would.
			for i, s := range sub {
				if swErr == nil {
					swErr = s.settleBudget(s.ranks[r], gis[i])
				}
			}
			// Error barrier: every rank learns whether any rank failed
			// this step, so all stop after it.
			if anyRankFailed(comm, &swErr) {
				rankErrs[r] = swErr
				break
			}
			for _, v := range step {
				sw := plans[v][next[v]]
				if sw.Pass && counted {
					sims[v].ranks[r].stats.Sweeps++
					sims[v].ranks[r].stats.SweepGates += sw.Len()
				}
				next[v], bound[v] = next[v]+1, sw.End
			}
			done := nGates
			for v, j := range bound {
				done = min(done, traj.at[v][j])
			}
			if r == 0 {
				if measure {
					for _, v := range step {
						sims[v].measurements = append(sims[v].measurements, outcomes[v])
					}
				}
				if ctl.OnGate != nil {
					for gi := ran; gi < done; gi++ {
						ctl.OnGate(gi, nGates, cs[0].Gates[gi])
					}
				}
			}
			ran = done
		}
		for v, s := range sims {
			at := traj.at[v][bound[v]]
			s.ranks[r].stats.Gates += at
			if K > 1 {
				s.ranks[r].stats.VariantCount = K
			}
			if r == 0 {
				executed[v] = at
			}
		}
	})
	for v, s := range sims {
		s.rewindNoise(cs[v].Gates[executed[v]:])
	}
	if err != nil {
		return err
	}
	// One set of comms served every variant; the communication time and
	// traffic are charged to variant 0.
	for i, comm := range comms {
		if comm == nil {
			continue // remote rank: its accounting arrives via ApplyDeltas
		}
		s0.ranks[i].stats.CommTime += comm.CommTime()
		s0.bytesMoved += comm.BytesMoved()
	}
	for v, s := range sims {
		s.foldLedger(s.gateLevel)
		s.gatesRun += executed[v]
	}
	var gateErr error
	for _, e := range rankErrs {
		if e != nil && (gateErr == nil || errors.Is(gateErr, errPeerRankFailed)) {
			gateErr = e
		}
	}
	if abortErr != nil {
		return fmt.Errorf("core: run aborted after %d of %d gates: %w", executed[0], nGates, abortErr)
	}
	if gateErr != nil {
		return fmt.Errorf("core: run failed after %d of %d gates: %w", slices.Min(executed), nGates, gateErr)
	}
	return nil
}

// anyRankFailed is the failure agreement: an allreduce of per-rank
// failure flags. It reports whether any rank holds an error, giving a
// rank that does not the errPeerRankFailed placeholder.
func anyRankFailed(comm mpi.Comm, err *error) bool {
	var flag float64
	if *err != nil {
		flag = 1
	}
	failed := comm.AllreduceSum(flag) != 0
	if failed && *err == nil {
		*err = errPeerRankFailed
	}
	return failed
}

// splitControls partitions control qubits into offset-, block-, and
// rank-segment masks (§3.3's three cases for the control position).
func (s *Simulator) splitControls(controls []int) (offMask uint64, blkMask, rankMask int) {
	for _, c := range controls {
		switch {
		case c < s.offsetBits:
			offMask |= 1 << uint(c)
		case c < s.offsetBits+s.blockBits:
			blkMask |= 1 << uint(c-s.offsetBits)
		default:
			rankMask |= 1 << uint(c-s.offsetBits-s.blockBits)
		}
	}
	return offMask, blkMask, rankMask
}

// applyUnitaries executes one group sweep of unitaries — gates[v] on
// sims[v], with the ZZ units units[v] its plan named — on this rank: one
// codec pass over all variants (runPass), whose recompression is the
// first truncation round of the boundary after variant v's gate gi[v]. A sweep with a
// rank-segment target exchanges its groups with the peer rank inside
// that pass's walk. The K passes are compiled on variant 0's worker
// pool: a gradient's batch compiles 79.
func applyUnitaries(comm mpi.Comm, sims []*Simulator, gates [][]quantum.Gate, units [][]int, gi []int) error {
	r := comm.Rank()
	passes := make([]*blockPass, len(sims))
	// compilePass cannot fail, so neither can this fan-out.
	_ = sims[0].forEach(sims[0].ranks[r], len(sims), func(_ *workerState, v int) error {
		passes[v] = sims[v].compilePass(comm, sims[v].ranks[r], gates[v], units[v])
		return nil
	})
	return runPass(sims, r, passes, gi, 0)
}

// eachVariant runs fn on every variant, in the order every rank walks
// them, and returns the first error. It never stops early: fn may hold
// collectives (a block exchange, a measurement's reductions) whose
// peer ranks cannot know that an earlier variant failed here, and
// skipping the rest would strand them mid-protocol. The sweep error
// barrier stops all ranks afterwards.
func eachVariant(sims []*Simulator, fn func(v int, s *Simulator) error) error {
	var firstErr error
	for v, s := range sims {
		if err := fn(v, s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SampleStream derives the dedicated seeded sampling rng from a
// simulator seed. It is the single source of the derivation for every
// backend — the facade's MPS engine uses it too, so WithSeed fixes an
// equivalent sampling-stream contract regardless of engine.
func SampleStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
}
