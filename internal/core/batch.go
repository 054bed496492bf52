package core

import (
	"errors"
	"fmt"
	"sync"

	"qcsim/internal/blockstore"
	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// Variant-batched execution: one run drives K state variants — K
// bindings of one circuit shape — in lockstep. The schedule is planned
// once (shapes are identical, and the pair-sweep planner reads only
// shape), and every pass walks the block pairs index-first: for pair b,
// all K variants are processed back to back through the same passBlock
// as a solo run, with a content-addressed memo keyed like the block
// cache deduplicating codec work across variants whose blocks have not
// diverged yet. A parameter-shift batch — K-1 variants each differing
// from the base in a single gate — shares the entire pre-divergence
// prefix, so it costs ~1× codec traffic there instead of K×.
//
// The results are bit-identical to running each variant alone: a memo
// hit hands back the exact blob the (deterministic) codec produced for
// the same signature, level, and input bytes.

// VariantSeed derives the seed of batch variant v from a base seed.
// Variant 0 keeps the base seed — its samplers and measurement streams
// match a solo run of the parent simulator exactly — and later
// variants decorrelate by a splitmix-style odd multiplier.
func VariantSeed(base int64, v int) int64 {
	if v == 0 {
		return base
	}
	return base ^ int64(uint64(v)*0x9E3779B97F4A7C15)
}

// Clone builds an independent simulator with the same configuration
// (seeded with seed) holding the current state: the clone's slots share
// the (immutable) compressed blobs with this simulator until either
// side overwrites them, the per-rank error levels, fidelity ledger,
// gate count, and measurement log carry over, and the stats start
// fresh from the cloned footprint. The clone owns its stores
// (and, under a spill configuration, its own spill files) and must be
// Closed like any simulator.
func (s *Simulator) Clone(seed int64) (*Simulator, error) {
	cfg := s.cfg
	cfg.Seed = seed
	clone, err := New(cfg)
	if err != nil {
		return nil, err
	}
	clone.noise = s.noise
	for ri, rs := range s.ranks {
		crs := clone.ranks[ri]
		crs.level = rs.level
		crs.overBudget = rs.overBudget
		crs.stats = Stats{FinalLevel: rs.level}
		crs.storeAcc = blockstore.Stats{}
		crs.storeBase = crs.store.Stats()
		for b := 0; b < s.blocksPerRank(); b++ {
			blob, err := rs.store.Peek(b)
			if err != nil {
				clone.Close()
				return nil, err
			}
			if err := crs.store.Put(b, blob); err != nil {
				clone.Close()
				return nil, err
			}
		}
		clone.syncStoreStats(crs)
		crs.stats.MaxFootprint = crs.stats.CurrentFootprint
		crs.stats.MaxResident = crs.stats.ResidentFootprint
	}
	clone.ledger = s.ledger
	clone.gatesRun = s.gatesRun
	clone.measurements = append([]int(nil), s.measurements...)
	return clone, nil
}

// RunBatch executes circuits[v] on sims[v] for every v in one batched
// run. All simulators must share one geometry and configuration (use
// Clone) and all circuits one shape (use quantum.Circuit.Bind on one
// parametric circuit); K == 1 degenerates to RunControlled.
//
// Measurement gates and a live noise channel break lockstep — both
// consume per-variant randomness mid-circuit — so those batches run
// variant-at-a-time with no codec sharing (VariantCount still records
// K). Everything else runs block-index-first with cross-variant codec
// deduplication; Stats gains CodecPassesShared and VariantCount.
//
// ctl hooks fire once per batch, not per variant: PollAbort stops all
// K variants at the same sweep boundary, OnGate reports batch progress
// against variant 0's gates.
func RunBatch(sims []*Simulator, circuits []*quantum.Circuit, ctl RunControl) error {
	if len(sims) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBatchMismatch)
	}
	if len(sims) != len(circuits) {
		return fmt.Errorf("%w: %d simulators for %d circuits", ErrBatchMismatch, len(sims), len(circuits))
	}
	s0 := sims[0]
	for v, s := range sims {
		if s == nil || circuits[v] == nil {
			return fmt.Errorf("%w: nil simulator or circuit at variant %d", ErrBatchMismatch, v)
		}
		if circuits[v].N != s.cfg.Qubits {
			return fmt.Errorf("%w: variant %d circuit has %d qubits, simulator %d", ErrBatchMismatch, v, circuits[v].N, s.cfg.Qubits)
		}
		if circuits[v].Parametric() {
			return fmt.Errorf("%w: variant %d circuit has unbound parameters; Bind it first", ErrBatchMismatch, v)
		}
		if v > 0 {
			if err := sameBatchConfig(s0, s); err != nil {
				return fmt.Errorf("variant %d: %w", v, err)
			}
			if !quantum.SameShape(circuits[v], circuits[0]) {
				return fmt.Errorf("%w: variant %d circuit shape differs from variant 0 (lockstep needs one shape)", ErrBatchMismatch, v)
			}
		}
	}
	if len(sims) == 1 {
		return s0.RunControlled(circuits[0], ctl)
	}

	lockstep := true
	for _, s := range sims {
		if s.noiseActive() {
			lockstep = false
		}
	}
	for _, g := range circuits[0].Gates {
		if g.Kind == quantum.KindMeasure {
			lockstep = false
			break
		}
	}
	if !lockstep {
		// Per-variant randomness (measurement collapse, noise Paulis)
		// makes the variants' states diverge unpredictably; run them
		// one at a time so each consumes exactly its own streams.
		var firstErr error
		for v, s := range sims {
			if err := s.RunControlled(circuits[v], ctl); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, s := range sims {
			for _, rs := range s.ranks {
				rs.stats.VariantCount = len(sims)
			}
		}
		return firstErr
	}
	return runBatchLockstep(sims, circuits, ctl)
}

// sameBatchConfig verifies two simulators can run in lockstep: the
// block geometry, codec ladder, and scheduling switches must agree —
// Clone guarantees all of it.
func sameBatchConfig(a, b *Simulator) error {
	switch {
	case a.cfg.Qubits != b.cfg.Qubits,
		a.cfg.Ranks != b.cfg.Ranks,
		a.offsetBits != b.offsetBits,
		a.cfg.Uncompressed != b.cfg.Uncompressed,
		a.cfg.DisableSweeps != b.cfg.DisableSweeps,
		a.cfg.FuseGates != b.cfg.FuseGates,
		a.cfg.MemoryBudget != b.cfg.MemoryBudget:
		return fmt.Errorf("%w: simulator configuration differs from variant 0", ErrBatchMismatch)
	}
	if len(a.cfg.ErrorLevels) != len(b.cfg.ErrorLevels) {
		return fmt.Errorf("%w: error-level ladder differs from variant 0", ErrBatchMismatch)
	}
	for i := range a.cfg.ErrorLevels {
		if a.cfg.ErrorLevels[i] != b.cfg.ErrorLevels[i] {
			return fmt.Errorf("%w: error-level ladder differs from variant 0", ErrBatchMismatch)
		}
	}
	return nil
}

// runBatchLockstep is the batched analogue of RunControlled: one sweep
// plan, one set of SPMD ranks, one error barrier per sweep — K states.
func runBatchLockstep(sims []*Simulator, circuits []*quantum.Circuit, ctl RunControl) error {
	s0 := sims[0]
	K := len(sims)
	// Fuse per variant. Fusion decisions read only gate structure
	// (kind, target, controls), which is identical across bindings, so
	// the shapes stay aligned; the check below is a tripwire.
	cs := make([]*quantum.Circuit, K)
	for v, c := range circuits {
		if sims[v].cfg.FuseGates {
			c = quantum.FuseSingleQubitGates(c)
		}
		cs[v] = c
	}
	for v := 1; v < K; v++ {
		if !quantum.SameShape(cs[v], cs[0]) {
			return fmt.Errorf("%w: variant %d shape diverged after fusion", ErrBatchMismatch, v)
		}
	}
	nGates := len(cs[0].Gates)
	if nGates > 0 {
		for _, s := range sims {
			s.version++
		}
	}
	plan := s0.planSweeps(cs[0].Gates)
	counted := s0.sweepsEnabled()
	for _, s := range sims {
		s.gateLevel = make([]uint32, nGates*s.ledgerRounds())
	}
	defer func() {
		// Only a variant's requantize passes go through its block cache.
		for _, s := range sims {
			s.releaseCaches()
		}
	}()
	rankErrs := make([]error, s0.cfg.Ranks)
	var abortErr error
	var executed int
	comms, err := s0.launcher().Launch(s0.cfg.Ranks, func(comm mpi.Comm) {
		r := comm.Rank()
		ran := 0
		for _, sw := range plan {
			if ctl.PollAbort != nil {
				var stop float64
				if r == 0 {
					if aerr := ctl.PollAbort(); aerr != nil {
						abortErr = aerr
						stop = 1
					}
				}
				if comm.Bcast(0, stop) != 0 {
					break
				}
			}
			gi := sw.End - 1
			var swErr error
			if sw.Pass {
				swErr = batchPass(sims, cs, r, sw)
			} else {
				// A rank-segment target: the block exchange dominates and
				// the SendRecv protocol is already sequential per variant;
				// no codec sharing. Every variant's exchange must run even
				// after an earlier variant failed — the peer rank cannot
				// know, and skipping would strand it mid-protocol.
				for v, s := range sims {
					if err := s.applyCrossRank(comm, s.ranks[r], cs[v].Gates[gi], gi); err != nil && swErr == nil {
						swErr = err
					}
				}
			}
			// The at-rest budget rule, per variant: each requantizes
			// exactly where its solo run would.
			for _, s := range sims {
				if swErr == nil {
					swErr = s.settleBudget(s.ranks[r], gi)
				}
			}
			var flag float64
			if swErr != nil {
				flag = 1
			}
			if comm.AllreduceSum(flag) != 0 {
				if swErr == nil {
					swErr = errPeerRankFailed
				}
				rankErrs[r] = swErr
				break
			}
			ran += sw.Len()
			if sw.Pass && counted {
				for _, s := range sims {
					s.ranks[r].stats.Sweeps++
					s.ranks[r].stats.SweepGates += sw.Len()
				}
			}
			if r == 0 && ctl.OnGate != nil {
				for gi := sw.Start; gi < sw.End; gi++ {
					ctl.OnGate(gi, nGates, cs[0].Gates[gi])
				}
			}
		}
		for _, s := range sims {
			s.ranks[r].stats.Gates += ran
			s.ranks[r].stats.VariantCount = K
		}
		if r == 0 {
			executed = ran
		}
	})
	if err != nil {
		return err
	}
	// One set of comms served the whole batch; the communication time
	// and traffic are charged to variant 0.
	for i, comm := range comms {
		if comm == nil {
			continue
		}
		s0.ranks[i].stats.CommTime += comm.CommTime()
		s0.bytesMoved += comm.BytesMoved()
	}
	for _, s := range sims {
		s.foldLedger(s.gateLevel)
		s.gatesRun += executed
	}
	var gateErr error
	for _, e := range rankErrs {
		if e != nil && (gateErr == nil || errors.Is(gateErr, errPeerRankFailed)) {
			gateErr = e
		}
	}
	if abortErr != nil {
		return fmt.Errorf("core: batched run aborted after %d of %d gates: %w", executed, nGates, abortErr)
	}
	if gateErr != nil {
		return fmt.Errorf("core: batched run failed after %d of %d gates: %w", executed, nGates, gateErr)
	}
	return nil
}

// batchMemo is the per-pass content-addressed dedup table: (signature,
// level, control variant, compressed input blob(s)) → compressed output
// blob(s). Two variants whose blocks have not diverged — or two
// byte-identical blocks within one variant — resolve to the same key,
// and the second lookup reuses the first's output instead of paying the
// codec. Workers racing on the same key may both compute (benign:
// deterministic codecs make the results identical); cross-VARIANT
// sharing never races, since one worker owns all K variants of its
// block. Keys and lines are the block cache's (cache.go): hashed,
// verified on a hit, blobs shared.
type batchMemo struct {
	mu    sync.RWMutex
	lines map[uint64]*cacheLine
}

func newBatchMemo() *batchMemo {
	return &batchMemo{lines: make(map[uint64]*cacheLine)}
}

func (m *batchMemo) enabled() bool { return true }

// get charges a hit to st as one shared codec pass per block reused.
func (m *batchMemo) get(k blockKey, st *Stats) (out1, out2 []byte, ok bool) {
	m.mu.RLock()
	l := find(m.lines, &k)
	m.mu.RUnlock()
	if l == nil {
		return nil, nil, false
	}
	if l.out1 != nil {
		st.CodecPassesShared++
	}
	if l.out2 != nil {
		st.CodecPassesShared++
	}
	return l.out1, l.out2, true
}

func (m *batchMemo) put(k blockKey, out1, out2 []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lines[k.hash] = &cacheLine{key: k, out1: out1, out2: out2}
}

// batchPass is the batch executor's pass: one pair sweep for all K
// variants on rank r, block-index-first — each block pair is processed
// for all K variants back to back by one worker of variant 0's pool, so
// the memo turns undiverged variants into shared blobs. Codec calls are
// charged to the variant that actually issued them; a memo hit charges
// the saved variant's CodecPassesShared instead. The per-rank §3.4
// block cache is not consulted — the memo subsumes it within a pass,
// and feeding K variants' traffic through one LRU would thrash its
// probation logic.
func batchPass(sims []*Simulator, cs []*quantum.Circuit, r int, sw quantum.PairSweep) error {
	s0 := sims[0]
	rs0 := s0.ranks[r]
	K := len(sims)
	passes := make([]*blockPass, K)
	for v, s := range sims {
		passes[v] = s.compilePass(s.ranks[r], cs[v].Gates[sw.Start:sw.End])
	}
	if passes[0] == nil {
		return nil // rank controls are shape: silenced for one, silenced for all
	}
	for v, s := range sims {
		s.hintPass(s.ranks[r], passes[v])
	}
	memo := newBatchMemo()
	// Per-worker, per-variant stat shards (the rank's own worker shards
	// would attribute every variant's codec work to variant 0).
	shards := make([][]Stats, len(rs0.workers))
	for i := range shards {
		shards[i] = make([]Stats, K)
	}
	err := s0.forBlocks(rs0, func(w *workerState, b int) error {
		for v, s := range sims {
			if err := s.passBlock(s.ranks[r], passes[v], memo, w, &shards[w.id][v], b); err != nil {
				return err
			}
		}
		return nil
	})
	for _, shard := range shards {
		for v, s := range sims {
			s.ranks[r].stats.addShard(shard[v])
		}
	}
	if err != nil {
		return err
	}
	for v, s := range sims {
		s.noteLevel(s.ranks[r], sw.End-1, 0, passes[v].key.level)
	}
	return nil
}
