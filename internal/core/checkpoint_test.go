package core

import (
	"bytes"
	"os"
	"testing"

	"qcsim/internal/compress"
	"qcsim/internal/compress/lossless"
	"qcsim/internal/quantum"
)

func TestCheckpointRoundTrip(t *testing.T) {
	// Run half a deep circuit, checkpoint, resume in a fresh simulator
	// (§3.5's wall-time workflow), finish, and compare against an
	// uninterrupted run.
	full := quantum.QFT(8, 21)
	half := len(full.Gates) / 2
	first := &quantum.Circuit{N: 8, Gates: full.Gates[:half]}
	second := &quantum.Circuit{N: 8, Gates: full.Gates[half:]}

	s1 := newSim(t, 8, 2, 16, nil)
	if err := s1.Run(first); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := newSim(t, 8, 2, 16, nil)
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.GatesRun() != half {
		t.Fatalf("restored GatesRun = %d, want %d", s2.GatesRun(), half)
	}
	if err := s2.Run(second); err != nil {
		t.Fatal(err)
	}

	sFull := newSim(t, 8, 2, 16, nil)
	if err := sFull.Run(full); err != nil {
		t.Fatal(err)
	}
	a, _ := s2.FullState()
	b, _ := sFull.FullState()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed state differs at %d", i)
		}
	}
}

// TestCheckpointFromBeforeLayoutFlags loads a checkpoint written by the
// commit before the lossless codec had its stored and dictionary
// layouts (testdata/checkpoint_pr15_qft8_half.bin: TestCheckpointRoundTrip's
// first half, every block a flag-0 DEFLATE blob) and finishes the
// circuit on it: old checkpoints stay loadable, and what they resume to
// is bit-identical to an uninterrupted run of today's engine.
func TestCheckpointFromBeforeLayoutFlags(t *testing.T) {
	ckpt, err := os.ReadFile("testdata/checkpoint_pr15_qft8_half.bin")
	if err != nil {
		t.Fatal(err)
	}
	full := quantum.QFT(8, 21)
	half := len(full.Gates) / 2
	s := newSim(t, 8, 2, 16, nil)
	if err := s.Load(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if s.GatesRun() != half {
		t.Fatalf("restored GatesRun = %d, want %d", s.GatesRun(), half)
	}
	if err := s.Run(&quantum.Circuit{N: 8, Gates: full.Gates[half:]}); err != nil {
		t.Fatal(err)
	}
	sFull := newSim(t, 8, 2, 16, nil)
	if err := sFull.Run(full); err != nil {
		t.Fatal(err)
	}
	a, _ := s.FullState()
	b, _ := sFull.FullState()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed state differs at %d", i)
		}
	}
}

func TestCheckpointPreservesLedgerAndMeasurements(t *testing.T) {
	s := newSim(t, 6, 1, 8, func(c *Config) { c.MemoryBudget = 256 })
	c := quantum.NewCircuit(6)
	for q := 0; q < 6; q++ {
		c.H(q)
	}
	c.Measure(0)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := newSim(t, 6, 1, 8, func(c *Config) { c.MemoryBudget = 256 })
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.FidelityLowerBound() != s.FidelityLowerBound() {
		t.Fatalf("ledger lost: %v vs %v", s2.FidelityLowerBound(), s.FidelityLowerBound())
	}
	m1, m2 := s.Measurements(), s2.Measurements()
	if len(m1) != 1 || len(m2) != 1 || m1[0] != m2[0] {
		t.Fatalf("measurements lost: %v vs %v", m1, m2)
	}
}

// TestLoadClearsOverBudgetLatch: restoring a checkpoint replaces the
// state, so the per-rank over-budget latch (and the FinalLevel
// high-water mark) from the pre-restore timeline must not survive Load
// — a healthy checkpoint used to load with OverBudget() still true,
// making the next run report a phantom budget failure.
func TestLoadClearsOverBudgetLatch(t *testing.T) {
	mk := func(budget int64) *Simulator {
		return newSim(t, 6, 2, 8, func(c *Config) {
			c.MemoryBudget = budget
			c.ErrorLevels = []float64{1e-4}
		})
	}
	s := mk(400)
	if err := s.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	if s.OverBudget() {
		t.Fatal("GHZ run over budget; healthy-checkpoint precondition void")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	savedLevel := s.Stats().FinalLevel

	// Escalate past the single-level ladder: a dense, phase-varied state
	// cannot fit 400 bytes at any level.
	for i := 0; i < 4 && !s.OverBudget(); i++ {
		if err := s.Run(quantum.QFT(6, int64(30+i))); err != nil {
			t.Fatal(err)
		}
	}
	if !s.OverBudget() {
		t.Fatal("ladder never exhausted; latch scenario void")
	}

	if err := s.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s.OverBudget() {
		t.Fatal("restored a healthy checkpoint but the over-budget latch survived")
	}
	if got := s.Stats().FinalLevel; got != savedLevel {
		t.Fatalf("restored FinalLevel = %d, want the checkpoint's %d", got, savedLevel)
	}
	// The restored state must run cleanly and stay within budget.
	if err := s.Run(quantum.NewCircuit(6).H(0).H(0)); err != nil {
		t.Fatal(err)
	}
	if s.OverBudget() {
		t.Fatal("post-restore run of a tiny-support state tripped the budget")
	}
}

// TestLoadRelatchesOverBudgetCheckpoint is the other side of the latch
// contract: a state SAVED over budget at the loosest bound is still
// over budget after the restore, so Load must re-derive the latch from
// the restored footprint instead of clearing it unconditionally.
func TestLoadRelatchesOverBudgetCheckpoint(t *testing.T) {
	mk := func() *Simulator {
		return newSim(t, 6, 2, 8, func(c *Config) {
			c.MemoryBudget = 200
			c.ErrorLevels = []float64{1e-4}
		})
	}
	s := mk()
	for i := 0; i < 4 && !s.OverBudget(); i++ {
		if err := s.Run(quantum.QFT(6, int64(30+i))); err != nil {
			t.Fatal(err)
		}
	}
	if !s.OverBudget() {
		t.Fatal("ladder never exhausted; over-budget checkpoint scenario void")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := mk()
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !s2.OverBudget() {
		t.Fatal("restored an over-budget checkpoint but OverBudget() reports healthy")
	}
}

func TestCheckpointGeometryMismatch(t *testing.T) {
	s := newSim(t, 6, 2, 8, nil)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wrongQubits := newSim(t, 7, 2, 8, nil)
	if err := wrongQubits.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("qubit mismatch accepted")
	}
	wrongRanks := newSim(t, 6, 4, 8, nil)
	if err := wrongRanks.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	s := newSim(t, 6, 1, 8, nil)
	if err := s.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle: the checksum must catch it.
	raw := buf.Bytes()
	corrupted := append([]byte(nil), raw...)
	corrupted[len(corrupted)/2] ^= 0xFF
	s2 := newSim(t, 6, 1, 8, nil)
	if err := s2.Load(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
	// Truncation must also fail cleanly.
	if err := s2.Load(bytes.NewReader(raw[:len(raw)/3])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// Not-a-checkpoint input.
	if err := s2.Load(bytes.NewReader([]byte("definitely not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// A failed load must leave the simulator usable.
	if err := s2.Run(quantum.GHZ(6)); err != nil {
		t.Fatalf("simulator broken after failed load: %v", err)
	}
}

// decodeCounter counts Decompress calls.
type decodeCounter struct {
	compress.Codec
	calls *int
}

func (d decodeCounter) Decompress(dst []float64, data []byte) error {
	*d.calls++
	return d.Codec.Decompress(dst, data)
}

// TestLoadInternsIdenticalBlobs: restoring a redundant state validates
// each distinct blob once — not once per slot — and the restored slots
// share blobs exactly where the bytes are equal, so the restored
// simulator holds what the saved one held. A spill configuration caps
// what the intern table may pin but restores the same state.
func TestLoadInternsIdenticalBlobs(t *testing.T) {
	src := newSim(t, 10, 2, 16, func(c *Config) { c.CacheLines = 64 })
	cir := quantum.NewCircuit(10)
	cir.H(0).H(1).X(2).H(9) // block-local gates plus one cross-rank: few distinct blocks
	if err := src.Run(cir); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := src.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	want, _ := src.FullState()

	for name, mut := range map[string]func(*Config){
		"ram":   func(c *Config) {},
		"spill": func(c *Config) { c.SpillDir, c.SpillRAMBudget = t.TempDir(), 100 },
	} {
		decodes := 0
		dst := newSim(t, 10, 2, 16, func(c *Config) {
			c.Lossless = decodeCounter{lossless.New(false), &decodes}
			mut(c)
		})
		if err := dst.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slots := len(dst.ranks) * dst.blocksPerRank()
		byContent, byPointer := map[string]bool{}, map[*byte]bool{}
		for _, rs := range dst.ranks {
			for b := 0; b < rs.store.Len(); b++ {
				blob, err := rs.store.Peek(b)
				if err != nil {
					t.Fatal(err)
				}
				byContent[string(blob)], byPointer[&blob[0]] = true, true
			}
		}
		if len(byContent) >= slots/4 {
			t.Fatalf("state not redundant: %d distinct blobs in %d slots", len(byContent), slots)
		}
		if name == "ram" {
			if decodes != len(byContent) {
				t.Errorf("Load decoded %d blobs to validate %d distinct ones (%d slots)", decodes, len(byContent), slots)
			}
			if len(byPointer) != len(byContent) {
				t.Errorf("restored slots hold %d blobs for %d distinct contents", len(byPointer), len(byContent))
			}
		}
		got, err := dst.FullState()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: restored amplitude %d differs", name, i)
			}
		}
	}
}

// lossyCheckpointSim and lossyCheckpointCircuit are the geometry of
// testdata/checkpoint_pr18_qft_budget_lossy.bin: a 12-qubit QFT under
// a budget of a tenth of the raw state (the benchmark's qft-budget at
// test scale; a quarter does not bind this early), xor-c, cut at level 3
// of the ladder. The file is what Run(first) then Save wrote at PR 18.
func lossyCheckpointSim(t *testing.T) *Simulator {
	return newSim(t, 12, 1, 256, func(c *Config) {
		c.MemoryBudget = 1 << (12 + 4) / 10
		c.CacheLines = 8
		c.Workers = 2
	})
}

func lossyCheckpointCircuit() (first, second *quantum.Circuit) {
	full := quantum.QFT(12, 5)
	cut := len(full.Gates) * 3 / 4
	return &quantum.Circuit{N: 12, Gates: full.Gates[:cut]}, &quantum.Circuit{N: 12, Gates: full.Gates[cut:]}
}

// TestCheckpointWithLossyBlobs loads a checkpoint the commit before the
// lossy codec's word-at-a-time rewrite (PR 18) wrote from a budgeted
// QFT that had escalated to level ≥ 2 — every other fixture holds
// level-0 blobs only — and finishes the circuit on it: xor-c blobs of
// that commit decode, and what they resume to is bit-identical to the
// same two Runs of today's engine with no checkpoint in between (so
// today's encoder also wrote the same blobs up to the cut).
func TestCheckpointWithLossyBlobs(t *testing.T) {
	ckpt, err := os.ReadFile("testdata/checkpoint_pr18_qft_budget_lossy.bin")
	if err != nil {
		t.Fatal(err)
	}
	first, second := lossyCheckpointCircuit()

	through := lossyCheckpointSim(t)
	if err := through.Run(first); err != nil {
		t.Fatal(err)
	}
	if lvl := through.Stats().FinalLevel; lvl < 2 {
		t.Fatalf("error level %d at the cut, the fixture needs ≥ 2", lvl)
	}
	var now bytes.Buffer
	if err := through.Save(&now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now.Bytes(), ckpt) {
		t.Error("today's engine writes a different checkpoint at the cut than PR 18 did")
	}
	if err := through.Run(second); err != nil {
		t.Fatal(err)
	}

	resumed := lossyCheckpointSim(t)
	if err := resumed.Load(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(second); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.FidelityLowerBound(), through.FidelityLowerBound(); got != want {
		t.Errorf("resumed fidelity bound %v, uninterrupted %v", got, want)
	}
	a, _ := resumed.FullState()
	b, _ := through.FullState()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed state differs at %d", i)
		}
	}
}
