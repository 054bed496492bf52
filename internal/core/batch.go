package core

import (
	"fmt"
	"slices"
	"sync"

	"qcsim/internal/quantum"
)

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
// (seeded with seed) holding the current state: each rank is installed
// from this one's blobs, which both sides share (immutable) until
// either overwrites them, so a clone costs no codec call. The per-rank
// error levels and budget latches, fidelity ledger, gate count, and
// measurement log carry over, and the stats start fresh from the cloned
// footprint. The clone owns its stores (and, under a spill
// configuration, its own spill files) and must be Closed like any
// simulator.
func (s *Simulator) Clone(seed int64) (*Simulator, error) {
	cfg := s.cfg
	cfg.Seed = seed
	clone, err := alloc(cfg)
	if err != nil {
		return nil, err
	}
	for ri, rs := range s.ranks {
		if err := clone.install(clone.ranks[ri], rs.walk, rs.level, rs.overBudget); err != nil {
			clone.Close()
			return nil, err
		}
	}
	clone.ledger = s.ledger
	clone.gatesRun = s.gatesRun
	clone.measurements = append([]int(nil), s.measurements...)
	return clone, nil
}

// RunBatch executes circuits[v] on sims[v] for every v in one lockstep
// run of K state variants — the loop RunControlled enters with K = 1.
// All simulators must be distinct and share one configuration (use
// Clone), and all circuits must be well formed and of one shape
// (use quantum.Circuit.Bind on one parametric circuit); nothing else is
// rejected. The schedule is planned once — shapes are identical, and
// the group-sweep planner reads only shape — and every pass shares what
// the variants have in common (runPass). A variant whose pass equals
// variant 0's and whose blocks have not diverged takes the output blobs
// from the batch memo (CodecPassesShared). A variant whose pass parts
// from variant 0's at gate d runs as a fork (forkPlan): variant 0's
// blocks are decoded and gates [0, d) applied once for a chunk of such
// variants, and the variant's own gates from d and its recompression
// are all it pays. A parameter-shift batch — K−1 variants each differing
// from the base in one gate — shares whole passes before that gate's
// and forks inside it: perf's qaoa-grad (13 qubits, one pass, K = 79)
// decodes 18 blocks instead of 158 and applies 1 847 gates to its block
// pair instead of 4 108. Stats gains CodecPassesShared and VariantCount.
//
// Measurement gates consume per-variant randomness mid-circuit: they run
// inside the same loop, variant by variant from each variant's own seeded
// stream, and the sweeps around them keep sharing codec work until the
// states actually diverge. A live noise channel draws each variant's
// Paulis from its own stream before planning (splice); once one fires,
// each variant runs the plan its solo run would, and the variants whose
// sweeps end at the same place run them as one pass (runLockstep), so a
// variant whose Pauli falls inside a pass forks off variant 0's walk
// there. Every variant ends bit-identical to its solo run, under every
// codec and budget: it runs its solo run's sweeps, and a memo hit hands
// back the exact blob the (deterministic) codec produced for the same
// signature, level, and input bytes.
//
// ctl hooks fire once per batch, not per variant: PollAbort, consulted
// where every variant stands at the same circuit gate, stops all K
// variants at the same sweep boundary; OnGate reports a gate once every
// variant has completed it.
func RunBatch(sims []*Simulator, circuits []*quantum.Circuit, ctl RunControl) error {
	if len(sims) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBatchMismatch)
	}
	if len(sims) != len(circuits) {
		return fmt.Errorf("%w: %d simulators for %d circuits", ErrBatchMismatch, len(sims), len(circuits))
	}
	seen := make(map[*Simulator]bool, len(sims))
	for v, s := range sims {
		if s == nil || circuits[v] == nil {
			return fmt.Errorf("%w: nil simulator or circuit at variant %d", ErrBatchMismatch, v)
		}
		if seen[s] {
			// Aliased slots would race: two workers on one block store.
			return fmt.Errorf("%w: variant %d is the same simulator as an earlier variant", ErrBatchMismatch, v)
		}
		seen[s] = true
		if circuits[v].N != s.cfg.Qubits {
			return fmt.Errorf("%w: variant %d circuit has %d qubits, simulator %d", ErrBatchMismatch, v, circuits[v].N, s.cfg.Qubits)
		}
		if err := circuits[v].Validate(); err != nil {
			return fmt.Errorf("%w: variant %d: %w", ErrInvalidGate, v, err)
		}
		if circuits[v].Parametric() {
			return fmt.Errorf("%w: variant %d circuit has unbound parameters; Bind it first", ErrBatchMismatch, v)
		}
		if v > 0 {
			if !sameBatchConfig(sims[0], s) {
				return fmt.Errorf("%w: variant %d simulator configuration differs from variant 0", ErrBatchMismatch, v)
			}
			if !quantum.SameShape(circuits[v], circuits[0]) {
				return fmt.Errorf("%w: variant %d circuit shape differs from variant 0 (lockstep needs one shape)", ErrBatchMismatch, v)
			}
		}
	}
	return runLockstep(sims, circuits, ctl)
}

// sameBatchConfig reports whether two simulators can run in lockstep:
// the block geometry, codecs, ladder, noise channel and scheduling
// switches must agree — Clone guarantees all of it. The codecs matter
// because the per-pass memo keys on compressed bytes, not on who
// produced them; the noise probability because a batch is K
// trajectories of one channel.
func sameBatchConfig(a, b *Simulator) bool {
	return a.cfg.Qubits == b.cfg.Qubits &&
		a.cfg.Ranks == b.cfg.Ranks &&
		a.offsetBits == b.offsetBits &&
		a.cfg.Uncompressed == b.cfg.Uncompressed &&
		a.cfg.DisableSweeps == b.cfg.DisableSweeps &&
		a.cfg.MemoryBudget == b.cfg.MemoryBudget &&
		a.cfg.Lossless.Name() == b.cfg.Lossless.Name() &&
		a.cfg.Lossy.Name() == b.cfg.Lossy.Name() &&
		a.cfg.Noise == b.cfg.Noise &&
		slices.Equal(a.cfg.ErrorLevels, b.cfg.ErrorLevels)
}

// batchMemo is the per-pass content-addressed dedup table: (signature,
// level, control variant, compressed input blob(s)) → compressed output
// blob(s). Two variants whose blocks have not diverged — or two
// byte-identical blocks within one variant — resolve to the same key, and
// exactly one of them pays the codec, whatever the worker count: a
// pass's (block, variant) units run on different workers (runPass), so
// get is claim-or-wait. The first arrival on a key inserts a pending
// line and computes (its leader); later arrivals park on that line until
// the leader's put publishes the blobs — or the error that stopped it,
// which fails them too. A leader holds its claim only across its own
// round trip and never calls get while holding it, so nothing waits in a
// cycle; the compute, shared and codec-call totals of a batch are
// functions of its keys, not of the schedule. Keys are the block
// cache's (cache.go): hashed, verified on a hit, blobs shared.
type batchMemo struct {
	mu    sync.Mutex
	lines map[uint64]*memoLine
}

// memoLine is one key's entry. out and err are written by the leader
// before it closes done and read only after.
type memoLine struct {
	key  blockKey
	out  [groupSize][]byte // nil for a member the pass left untouched
	err  error
	done chan struct{}
}

func newBatchMemo() *batchMemo {
	return &batchMemo{lines: make(map[uint64]*memoLine)}
}

func (m *batchMemo) enabled() bool { return true }

// get claims k for the caller (a miss: it owes the put) or waits for the
// claimant and charges st one shared codec pass per block reused.
func (m *batchMemo) get(k blockKey, st *Stats) (out [groupSize][]byte, ok bool, err error) {
	m.mu.Lock()
	l := m.lines[k.hash]
	if l == nil {
		m.lines[k.hash] = &memoLine{key: k, done: make(chan struct{})}
	}
	m.mu.Unlock()
	if l == nil || !l.key.equal(&k) {
		// A different key under the same hash computes unshared; its put
		// finds no claim of its own and publishes nothing.
		return out, false, nil
	}
	<-l.done
	if l.err != nil {
		return out, false, l.err
	}
	for _, blob := range l.out {
		if blob != nil {
			st.CodecPassesShared++
		}
	}
	return l.out, true, nil
}

// put publishes the claimant's result for k and releases its waiters.
func (m *batchMemo) put(k blockKey, out [groupSize][]byte, err error) {
	m.mu.Lock()
	l := m.lines[k.hash]
	m.mu.Unlock()
	if l.key.equal(&k) {
		l.out, l.err = out, err
		close(l.done)
	}
}
