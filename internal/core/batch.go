package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qcsim/internal/blockstore"
	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// Variant-batched execution: one run drives K state variants — K
// bindings of one circuit shape — in lockstep. The schedule is planned
// once (shapes are identical, and PlanSweeps reads only shape), and
// every pass walks the blocks index-first: for block b, all K variants
// are processed back to back, with a content-addressed memo keyed on
// (op signature, error level, compressed input) deduplicating codec
// work across variants whose blocks have not diverged yet. A
// parameter-shift batch — K-1 variants each differing from the base in
// a single gate — shares the entire pre-divergence prefix, so it costs
// ~1× codec traffic there instead of K×.
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
	var plan []quantum.Sweep
	if s0.sweepsEnabled() {
		plan = quantum.PlanSweeps(cs[0].Gates, s0.offsetBits)
	} else {
		plan = quantum.SingletonSweeps(cs[0].Gates)
	}
	for _, s := range sims {
		s.gateLevel = make([]uint32, nGates)
	}
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
			var swErr error
			if sw.Local {
				swErr = batchSweepRank(sims, cs, r, sw)
			} else {
				// Non-local sweeps are singletons by construction.
				for gi := sw.Start; gi < sw.End; gi++ {
					if gerr := batchGateRank(comm, sims, cs, r, gi); gerr != nil && swErr == nil {
						swErr = gerr
					}
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
		for _, lvl := range s.gateLevel {
			if lvl > 0 {
				s.ledger *= 1 - s.cfg.ErrorLevels[lvl-1]
			}
		}
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

// batchGateRank executes one non-block-local gate for all K variants on
// rank r, dispatching on the (shared) target segment.
func batchGateRank(comm mpi.Comm, sims []*Simulator, cs []*quantum.Circuit, r, gi int) error {
	s0 := sims[0]
	g0 := cs[0].Gates[gi]
	offCtrl, blkCtrl, rankCtrl := s0.splitControls(g0.Controls)
	if r&rankCtrl != rankCtrl {
		return nil
	}
	q := g0.Target
	switch {
	case q < s0.offsetBits:
		return batchLocalGate(sims, cs, r, gi, offCtrl, blkCtrl)
	case q < s0.offsetBits+s0.blockBits:
		return batchCrossBlock(sims, cs, r, gi, offCtrl, blkCtrl)
	default:
		// Cross-rank: the block exchange dominates and the SendRecv
		// protocol is already sequential per variant; no codec sharing.
		// Every variant's exchange must run even after an earlier
		// variant failed — the peer rank cannot know, and skipping
		// would strand it mid-protocol. applyCrossRank itself keeps the
		// exchange alive internally on error.
		var firstErr error
		for v, s := range sims {
			if err := s.applyCrossRank(comm, s.ranks[r], cs[v].Gates[gi], gi, offCtrl, blkCtrl); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
}

// batchSweepRank executes one block-local sweep for all K variants in a
// single block-index-first pass.
func batchSweepRank(sims []*Simulator, cs []*quantum.Circuit, r int, sw quantum.Sweep) error {
	s0 := sims[0]
	K := len(sims)
	k := sw.Len()
	ba := s0.blockAmps()
	passes := make([]passKey, K)
	appliers := make([]func([]float64), K)
	for v, s := range sims {
		gates := cs[v].Gates[sw.Start:sw.End]
		passes[v] = newPassKey(quantum.SweepSignature(gates), s.ranks[r].level)
		lg := make([]localGate, k)
		for i, g := range gates {
			offCtrl, _, _ := s.splitControls(g.Controls)
			lg[i] = localGate{tMask: 1 << uint(g.Target), offCtrl: offCtrl, u: g.U}
		}
		appliers[v] = func(x []float64) {
			for _, g := range lg {
				for base := 0; base < ba; base += g.tMask << 1 {
					for o := base; o < base+g.tMask; o++ {
						if uint64(o)&g.offCtrl != g.offCtrl {
							continue
						}
						applyPair(g.u, x, o, o|g.tMask)
					}
				}
			}
		}
	}
	if err := batchBlockPass(sims, r, passes, appliers, 0, int64(k-1)); err != nil {
		return err
	}
	for v, s := range sims {
		rs := s.ranks[r]
		rs.stats.Sweeps++
		rs.stats.SweepGates += k
		s.noteLevel(rs, sw.End-1, passes[v].level)
		s.maybeEscalate(rs)
	}
	return nil
}

// batchLocalGate executes one offset-segment-target gate (a singleton
// sweep with block/rank controls, or any gate with sweeps disabled) for
// all K variants in one shared pass.
func batchLocalGate(sims []*Simulator, cs []*quantum.Circuit, r, gi int, offCtrl uint64, blkCtrl int) error {
	s0 := sims[0]
	K := len(sims)
	ba := s0.blockAmps()
	tMask := 1 << uint(cs[0].Gates[gi].Target)
	passes := make([]passKey, K)
	appliers := make([]func([]float64), K)
	for v, s := range sims {
		g := cs[v].Gates[gi]
		passes[v] = newPassKey(g.Signature(), s.ranks[r].level)
		u := g.U
		appliers[v] = func(x []float64) {
			for base := 0; base < ba; base += tMask << 1 {
				for o := base; o < base+tMask; o++ {
					if uint64(o)&offCtrl != offCtrl {
						continue
					}
					applyPair(u, x, o, o|tMask)
				}
			}
		}
	}
	if err := batchBlockPass(sims, r, passes, appliers, blkCtrl, 0); err != nil {
		return err
	}
	for v, s := range sims {
		rs := s.ranks[r]
		s.noteLevel(rs, gi, passes[v].level)
		s.maybeEscalate(rs)
	}
	return nil
}

// batchMemo is the per-pass content-addressed dedup table: (signature,
// level, compressed input blob(s)) → compressed output blob(s). Two
// variants whose blocks have not diverged — or two byte-identical
// blocks within one variant — resolve to the same key, and the second
// lookup reuses the first's output instead of paying the codec. Workers
// racing on the same key may both compute (benign: deterministic codecs
// make the results identical); cross-VARIANT sharing never races, since
// one worker owns all K variants of its block. Keys and lines are the
// block cache's (cache.go): hashed, verified on a hit, blobs shared.
type batchMemo struct {
	mu    sync.RWMutex
	lines map[uint64]*cacheLine
}

func newBatchMemo() *batchMemo {
	return &batchMemo{lines: make(map[uint64]*cacheLine)}
}

func (m *batchMemo) get(k blockKey) *cacheLine {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return find(m.lines, &k)
}

func (m *batchMemo) put(k blockKey, out1, out2 []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lines[k.hash] = &cacheLine{key: k, out1: out1, out2: out2}
}

// batchBlockPass fans one decompress → apply-K-variants → recompress
// pass over rank r's blocks, block-index-first: each block is processed
// for all K variants back to back by one worker, so the memo turns
// undiverged variants into shared blobs. Codec calls are charged to the
// variant that actually issued them; a memo hit charges the saved
// variant's CodecPassesShared instead. The per-rank §3.4 block cache is
// not consulted — the memo subsumes it within a pass, and feeding K
// variants' traffic through one LRU would thrash its probation logic.
func batchBlockPass(sims []*Simulator, r int, passes []passKey, appliers []func([]float64), blkCtrl int, passesSaved int64) error {
	s0 := sims[0]
	rs0 := s0.ranks[r]
	K := len(sims)
	for _, s := range sims {
		s.hintBlocks(s.ranks[r], blkCtrl, 0)
	}
	memo := newBatchMemo()
	nb := s0.blocksPerRank()
	nw := len(rs0.workers)
	if nw > nb {
		nw = nb
	}
	// Per-worker, per-variant stat shards (the rank's own worker shards
	// would attribute every variant's codec work to variant 0).
	shards := make([][]Stats, nw)
	for i := range shards {
		shards[i] = make([]Stats, K)
	}
	process := func(w *workerState, shard []Stats, b int) error {
		if b&blkCtrl != blkCtrl {
			return nil
		}
		for v, s := range sims {
			rs := s.ranks[r]
			cur, err := rs.store.Get(b)
			if err != nil {
				return err
			}
			key := passes[v].block(cur, nil)
			if e := memo.get(key); e != nil {
				if err := s.updateBlock(rs, b, e.out1); err != nil {
					return err
				}
				shard[v].CodecPassesShared++
				continue
			}
			st := &shard[v]
			if err := s.decompressBlock(cur, w.x, st); err != nil {
				return err
			}
			start := time.Now()
			appliers[v](w.x)
			st.ComputeTime += time.Since(start)
			blob, err := s.compressBlock(passes[v].level, w.x, st)
			if err != nil {
				return err
			}
			if err := s.updateBlock(rs, b, blob); err != nil {
				return err
			}
			memo.put(key, blob, nil)
			st.CodecPassesSaved += passesSaved
		}
		return nil
	}
	firstErr := batchForBlocks(rs0, nw, nb, s0.blockAmps(), shards, process)
	for i := 0; i < nw; i++ {
		for v, s := range sims {
			s.ranks[r].stats.addShard(shards[i][v])
		}
	}
	return firstErr
}

// batchForBlocks is forBlocks with per-variant shards: dynamic block
// assignment over variant 0's worker pool, bit-identical results for
// every worker count (no path depends on iteration order).
func batchForBlocks(rs0 *rankState, nw, nb, blockAmps int, shards [][]Stats, process func(w *workerState, shard []Stats, b int) error) error {
	var firstErr error
	if nw <= 1 {
		w := rs0.w0()
		for b := 0; b < nb; b++ {
			if firstErr = process(w, shards[0], b); firstErr != nil {
				break
			}
		}
		return firstErr
	}
	var (
		next int64 = -1
		fail int32
		once sync.Once
		wg   sync.WaitGroup
	)
	for i := 0; i < nw; i++ {
		w := rs0.workers[i]
		shard := shards[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.ensure(2 * blockAmps)
			for atomic.LoadInt32(&fail) == 0 {
				b := atomic.AddInt64(&next, 1)
				if b >= int64(nb) {
					return
				}
				if err := process(w, shard, int(b)); err != nil {
					once.Do(func() { firstErr = err })
					atomic.StoreInt32(&fail, 1)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// batchCrossBlock executes one block-segment-target gate for all K
// variants: each worker owns a block pair at a time (two blobs per memo
// key), all K variants of the pair back to back.
func batchCrossBlock(sims []*Simulator, cs []*quantum.Circuit, r, gi int, offCtrl uint64, blkCtrl int) error {
	s0 := sims[0]
	K := len(sims)
	ba := s0.blockAmps()
	g0 := cs[0].Gates[gi]
	tb := 1 << uint(g0.Target-s0.offsetBits)
	passes := make([]passKey, K)
	us := make([]quantum.Matrix2, K)
	for v, s := range sims {
		passes[v] = newPassKey(cs[v].Gates[gi].Signature(), s.ranks[r].level)
		us[v] = cs[v].Gates[gi].U
	}
	for _, s := range sims {
		s.hintBlocks(s.ranks[r], blkCtrl, tb)
	}
	memo := newBatchMemo()
	rs0 := s0.ranks[r]
	nb := s0.blocksPerRank()
	nw := len(rs0.workers)
	if nw > nb {
		nw = nb
	}
	shards := make([][]Stats, nw)
	for i := range shards {
		shards[i] = make([]Stats, K)
	}
	process := func(w *workerState, shard []Stats, b int) error {
		if b&tb != 0 || b&blkCtrl != blkCtrl {
			return nil
		}
		pb := b | tb
		for v, s := range sims {
			rs := s.ranks[r]
			curB, err := rs.store.Get(b)
			if err != nil {
				return err
			}
			curP, err := rs.store.Get(pb)
			if err != nil {
				return err
			}
			key := passes[v].block(curB, curP)
			if e := memo.get(key); e != nil {
				if err := s.updateBlock(rs, b, e.out1); err != nil {
					return err
				}
				if err := s.updateBlock(rs, pb, e.out2); err != nil {
					return err
				}
				shard[v].CodecPassesShared += 2
				continue
			}
			st := &shard[v]
			if err := s.decompressBlock(curB, w.x, st); err != nil {
				return err
			}
			if err := s.decompressBlock(curP, w.y, st); err != nil {
				return err
			}
			start := time.Now()
			x, y := w.x, w.y
			for o := 0; o < ba; o++ {
				if uint64(o)&offCtrl != offCtrl {
					continue
				}
				applyPairSplit(us[v], x, y, o)
			}
			st.ComputeTime += time.Since(start)
			blobX, err := s.compressBlock(passes[v].level, w.x, st)
			if err != nil {
				return err
			}
			if err := s.updateBlock(rs, b, blobX); err != nil {
				return err
			}
			blobY, err := s.compressBlock(passes[v].level, w.y, st)
			if err != nil {
				return err
			}
			if err := s.updateBlock(rs, pb, blobY); err != nil {
				return err
			}
			memo.put(key, blobX, blobY)
		}
		return nil
	}
	firstErr := batchForBlocks(rs0, nw, nb, ba, shards, process)
	for i := 0; i < nw; i++ {
		for v, s := range sims {
			s.ranks[r].stats.addShard(shards[i][v])
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for v, s := range sims {
		rs := s.ranks[r]
		s.noteLevel(rs, gi, passes[v].level)
		s.maybeEscalate(rs)
	}
	return nil
}
