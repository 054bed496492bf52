package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qcsim/internal/blockstore"
	"qcsim/internal/compress"
	"qcsim/internal/compress/szlike"
	"qcsim/internal/compress/xortrunc"
	"qcsim/internal/quantum"
)

// Failure injection: the engine must fail loudly and cleanly, never
// silently corrupt state.

func TestCorruptedBlockFailsRun(t *testing.T) {
	s := newSim(t, 6, 2, 8, nil)
	if err := s.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	// Corrupt a stored block through the same store seam production
	// code uses (store-returned slices are read-only views, so the
	// corruption goes in as a fresh blob).
	blob, err := s.ranks[1].store.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	for i := range bad {
		bad[i] ^= 0xA5
	}
	if err := s.ranks[1].store.Put(0, bad); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(quantum.NewCircuit(6).H(0)); err == nil {
		t.Fatal("run succeeded over a corrupted block")
	}
}

func TestCorruptedBlockFailsInspection(t *testing.T) {
	s := newSim(t, 6, 1, 8, nil)
	if err := s.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	if err := s.ranks[0].store.Put(2, []byte{0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FullState(); err == nil {
		t.Fatal("FullState succeeded over garbage block")
	}
	if _, err := s.Norm(); err == nil {
		t.Fatal("Norm succeeded over garbage block")
	}
	if _, err := s.Amplitude(uint64(2 * 8)); err == nil {
		t.Fatal("Amplitude succeeded over garbage block")
	}
}

func TestCheckpointCodecMismatch(t *testing.T) {
	// A checkpoint written with one lossy codec cannot silently load
	// into a simulator configured with another: block magics differ.
	// A 1-byte budget escalates at the first gate boundary, so the
	// state is guaranteed to hold lossy (xortrunc-tagged) blocks by the
	// end of the run — no geometry or codec tuning can skip this path.
	mkA := func() *Simulator {
		s, err := New(Config{Qubits: 6, Ranks: 1, BlockAmps: 8, Seed: 1,
			Lossy: xortrunc.New(), MemoryBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mkA()
	if err := a.Run(quantum.QFT(6, 4)); err != nil {
		t.Fatal(err)
	}
	if a.Stats().FinalLevel == 0 {
		t.Fatal("1-byte budget failed to force lossy blocks; mismatch path not exercised")
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Qubits: 6, Ranks: 1, BlockAmps: 8, Seed: 1,
		Lossy: szlike.NewA(), MemoryBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checkpoint with mismatched lossy codec loaded")
	} else if !strings.Contains(err.Error(), "undecodable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEmptyBlockRejected(t *testing.T) {
	s := newSim(t, 4, 1, 4, nil)
	if err := s.ranks[0].store.Put(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FullState(); err == nil {
		t.Fatal("nil block accepted")
	}
}

// failingCodec always errors on compression, to exercise the engine's
// error path out of mpi.Run.
type failingCodec struct{ compress.Codec }

func (failingCodec) Compress([]byte, []float64, compress.Options) ([]byte, error) {
	return nil, compress.ErrCorrupt
}

func TestCompressorFailurePropagates(t *testing.T) {
	_, err := New(Config{Qubits: 4, Ranks: 2, BlockAmps: 4, Lossless: failingCodec{}})
	if err == nil {
		t.Fatal("construction succeeded with a failing codec")
	}
}

// faultCodec wraps a working codec and, once a switch is thrown, fails
// that direction with compress.ErrCorrupt — every later call, or with
// once only the first, which throws the switch back. Name() stays the
// wrapped codec's, so a sabotaged variant still passes RunBatch's
// validation.
type faultCodec struct {
	compress.Codec
	enc, dec *atomic.Bool
	once     bool
}

// trips reports whether a call guarded by switch sw fails: while it is
// thrown, or with once only the first call, which throws it back.
func trips(sw *atomic.Bool, once bool) bool {
	if once {
		return sw.CompareAndSwap(true, false)
	}
	return sw.Load()
}

func (c faultCodec) Compress(dst []byte, data []float64, opt compress.Options) ([]byte, error) {
	if trips(c.enc, c.once) {
		return nil, compress.ErrCorrupt
	}
	return c.Codec.Compress(dst, data, opt)
}

func (c faultCodec) Decompress(dst []float64, blob []byte) error {
	if trips(c.dec, c.once) {
		return compress.ErrCorrupt
	}
	return c.Codec.Decompress(dst, blob)
}

// faultStore wraps a rank's block store and, once a switch is thrown,
// fails Get or Put with an error wrapping blockstore.ErrSpill, by
// faultCodec's rule. Peek, the fork capture's read, never fails.
type faultStore struct {
	blockstore.Store
	get, put *atomic.Bool
	once     bool
}

func (s faultStore) Get(b int) ([]byte, error) {
	if trips(s.get, s.once) {
		return nil, fmt.Errorf("%w: injected read failure of block %d", blockstore.ErrSpill, b)
	}
	return s.Store.Get(b)
}

func (s faultStore) Put(b int, blob []byte) error {
	if trips(s.put, s.once) {
		return fmt.Errorf("%w: injected write failure of block %d", blockstore.ErrSpill, b)
	}
	return s.Store.Put(b, blob)
}

// codecFault says what breaks — a codec in one direction, or the block
// store on reads or writes; of variant 0, or of every variant — whether
// once or for good, and before which sweep of the plan.
type codecFault struct {
	all      bool // every variant, not just variant 0
	lossy    bool // the Lossy codec instead of the Lossless one
	enc, dec bool
	get, put bool // the store instead of a codec
	once     bool // only the first call after arming fails
	at       int
}

// runWithFault is the failure-path contract of the one run loop, for K
// variants on 2 ranks (6 qubits, 4 blocks per rank): c runs healthy up
// to PollAbort's call f.at — it is consulted before every sweep that
// starts at a circuit gate, not at a noise Pauli — where the fault is
// armed — on variant 0 only unless
// f.all: it is the one that leads every undiverged key (a pass's index
// order is variant-major and each worker's first unit is one of variant
// 0's; a later variant is served by the memo and never calls its codec).
// The run must return —
// a hung collective trips the test-level timeout — with the typed codec
// error, and every variant and every rank must have stopped at that
// same sweep boundary: GatesRun and the fidelity ledger report the
// completed prefix (a healthy variant may have truncated once more
// inside the failing sweep, which can only lower its bound).
func runWithFault(t *testing.T, k int, cfg func(*Config), c *quantum.Circuit, f codecFault) ([]*Simulator, error) {
	t.Helper()
	sims := batchSims(t, 6, 2, 8, k, cfg)
	// Drawn on twins, so sims keep their noise streams. The run loop's
	// steps, replayed: the fault fires in the first step after poll f.at
	// that runs a faulty variant, and the completed prefix is where the
	// steps before it leave every variant.
	traj := splice(batchSims(t, 6, 2, 8, k, cfg), repeatCircuit(c, k))
	plans := traj.plans(sims)
	next, bound := make([]int, k), make([]int, k)
	for polls, armed := 0, false; ; {
		step := traj.step(plans, next, nil)
		if len(step) == 0 {
			t.Fatalf("K=%d: the fault is armed at poll %d, but the run polls only %d times", k, f.at, polls)
		}
		if traj.aligned(bound) {
			armed = armed || polls == f.at
			polls++
		}
		if armed && (f.all || step[0] == 0) {
			break
		}
		for _, v := range step {
			next[v], bound[v] = next[v]+1, plans[v][next[v]].End
		}
	}
	prefix := traj.at[0][bound[0]]
	for v, j := range bound {
		if traj.at[v][j] != prefix {
			t.Fatalf("K=%d: the variants' plans part before the fault (%v); the contract below needs a circuit where they agree", k, bound)
		}
	}
	var enc, dec, get, put atomic.Bool
	faulty := sims[:1]
	if f.all {
		faulty = sims
	}
	for _, s := range faulty {
		if bc := &s.cfg; f.lossy {
			bc.Lossy = faultCodec{bc.Lossy, &enc, &dec, f.once}
		} else {
			bc.Lossless = faultCodec{bc.Lossless, &enc, &dec, f.once}
		}
		for _, rs := range s.ranks {
			rs.store = faultStore{rs.store, &get, &put, f.once}
		}
	}
	// PollAbort runs on rank 0 while every other rank waits for its
	// broadcast, so the switch is thrown between sweeps.
	polls := 0
	ctl := RunControl{PollAbort: func() error {
		if polls == f.at {
			enc.Store(f.enc)
			dec.Store(f.dec)
			get.Store(f.get)
			put.Store(f.put)
		}
		polls++
		return nil
	}}
	done := make(chan error, 1)
	go func() { done <- RunBatch(sims, repeatCircuit(c, k), ctl) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatalf("K=%d: run hung after a %+v failure", k, f)
	}
	want := compress.ErrCorrupt
	if f.get || f.put {
		want = blockstore.ErrSpill
	}
	if !errors.Is(err, want) {
		t.Fatalf("K=%d: error does not wrap %v: %v", k, want, err)
	}
	ref := newSim(t, 6, 2, 8, cfg)
	if err := ref.Run(&quantum.Circuit{N: c.N, Gates: c.Gates[:prefix]}); err != nil {
		t.Fatal(err)
	}
	for v, s := range sims {
		if s.GatesRun() != prefix {
			t.Fatalf("K=%d: variant %d ran %d gates, the completed prefix is %d", k, v, s.GatesRun(), prefix)
		}
		for r, rs := range s.ranks {
			if rs.stats.Gates != prefix {
				t.Fatalf("K=%d: variant %d rank %d stopped after %d gates, want %d", k, v, r, rs.stats.Gates, prefix)
			}
		}
		got, want := s.FidelityLowerBound(), ref.FidelityLowerBound()
		if got > want || (v == 0 && got != want) {
			t.Fatalf("K=%d: variant %d ledger %v, the completed prefix charges %v", k, v, got, want)
		}
	}
	return sims, err
}

// TestRunFailurePropagatesFromRank: a lossy codec that breaks under
// budget pressure, after the ladder has escalated, surfaces as an error
// from every rank — not a hang.
func TestRunFailurePropagatesFromRank(t *testing.T) {
	for _, k := range []int{1, 3} {
		sims, _ := runWithFault(t, k, func(c *Config) { c.MemoryBudget = 1 },
			quantum.QFT(6, 2), codecFault{lossy: true, enc: true, at: 2})
		if sims[0].Stats().Escalations == 0 {
			t.Fatal("the budget never escalated; the lossy codec was not in use")
		}
	}
}
