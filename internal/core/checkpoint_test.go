package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"qcsim/internal/blockstore"
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

// saved is s's checkpoint bytes.
func saved(t testing.TB, s *Simulator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Offsets into a checkpoint: the header words after the magic, then the
// measurement outcomes.
const (
	ckptLedgerAt = 8 + 8*4
	ckptGatesAt  = 8 + 8*5
	ckptNMeasAt  = 8 + 8*6
	ckptMeasAt   = 8 + 8*7
)

// TestLoadRefusesHostileHeaders: a checkpoint whose header no Save
// writes is refused with ErrBadCheckpoint, even when its checksum holds,
// and the refused Load leaves the simulator as it was. Length fields
// that promise more bytes than the stream holds cost no allocation of
// that size: the 2^50-measurement header used to panic in makeslice
// before the checksum was read, and a 2^36 one asked for 512 GiB.
func TestLoadRefusesHostileHeaders(t *testing.T) {
	src := newSim(t, 6, 1, 8, nil)
	if err := src.Run(quantum.NewCircuit(6).H(0).H(4).Measure(0).H(1)); err != nil {
		t.Fatal(err)
	}
	good := saved(t, src)
	// edit rewrites a copy of good and recomputes its trailing checksum.
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		h := fnv.New64a()
		h.Write(b[:len(b)-8])
		binary.LittleEndian.PutUint64(b[len(b)-8:], h.Sum64())
		return b
	}
	word := func(at int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[at:], v) }
	}
	// cut is good's first end bytes with the words at the given offsets
	// replaced: a header whose promised bytes never arrive.
	cut := func(end int, words map[int]uint64) []byte {
		b := bytes.Clone(good[:end])
		for at, v := range words {
			binary.LittleEndian.PutUint64(b[at:], v)
		}
		return b
	}
	// One measurement, then rank 0's level byte and block count.
	blockLenAt := ckptMeasAt + 1 + 1 + 4
	cases := []struct {
		name string
		ckpt []byte
	}{
		{"ledger NaN", edit(word(ckptLedgerAt, math.Float64bits(math.NaN())))},
		{"ledger 2", edit(word(ckptLedgerAt, math.Float64bits(2)))},
		{"ledger -0.5", edit(word(ckptLedgerAt, math.Float64bits(-0.5)))},
		{"outcome 7", edit(func(b []byte) { b[ckptMeasAt] = 7 })},
		{"2^62 gates", edit(word(ckptGatesAt, 1<<62))},
		{"more measurements than gates", edit(word(ckptNMeasAt, 1<<20))},
		{"2^50 measurements", cut(ckptMeasAt, map[int]uint64{ckptGatesAt: 1 << 50, ckptNMeasAt: 1 << 50})},
		{"2^36 measurements", cut(ckptMeasAt, map[int]uint64{ckptGatesAt: 1 << 36, ckptNMeasAt: 1 << 36})},
		{"1 GiB block", append(cut(blockLenAt+4, nil), 1, 2, 3)},
	}
	binary.LittleEndian.PutUint32(cases[len(cases)-1].ckpt[blockLenAt:], 1<<30)
	s := newSim(t, 6, 1, 8, nil)
	if err := s.Load(bytes.NewReader(edit(func([]byte) {}))); err != nil {
		t.Fatalf("the unedited checkpoint with its checksum recomputed: %v", err)
	}
	if err := s.Run(quantum.NewCircuit(6).H(2).Measure(2)); err != nil {
		t.Fatal(err)
	}
	before := saved(t, s)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := s.Load(bytes.NewReader(tc.ckpt))
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("Load returned %v, want ErrBadCheckpoint", err)
			}
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 16<<20 {
				t.Errorf("the refused Load allocated %d MiB", grew>>20)
			}
			if !bytes.Equal(saved(t, s), before) {
				t.Error("the refused Load changed the simulator")
			}
		})
	}
}

// TestLoadRefusalLeavesNoSpillFiles: a refused Load closes every staging
// store it opened, so under a spill configuration the spill directory
// holds the simulator's own files and nothing else afterwards, and none
// once the simulator is closed.
func TestLoadRefusalLeavesNoSpillFiles(t *testing.T) {
	src := newSim(t, 6, 2, 8, nil)
	if err := src.Run(quantum.RandomCircuit(6, 20, 3)); err != nil {
		t.Fatal(err)
	}
	good := saved(t, src)
	dir := t.TempDir()
	s := newSim(t, 6, 2, 8, func(c *Config) { c.SpillDir, c.SpillRAMBudget = dir, 64 })
	files := func() []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	own := files()
	if len(own) != 2 {
		t.Fatalf("spill dir holds %v, want one file per rank", own)
	}
	checksumFlipped := bytes.Clone(good)
	checksumFlipped[len(checksumFlipped)-1] ^= 0xFF
	for name, ckpt := range map[string][]byte{
		"inside rank 1":    good[:len(good)*3/4],
		"before checksum":  good[:len(good)-8],
		"checksum flipped": checksumFlipped,
	} {
		if err := s.Load(bytes.NewReader(ckpt)); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: Load returned %v, want ErrBadCheckpoint", name, err)
		}
		if got := files(); !slices.Equal(got, own) {
			t.Fatalf("%s: spill dir holds %v after the refused Load, want %v", name, got, own)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left := files(); len(left) != 0 {
		t.Fatalf("spill dir holds %v after Close", left)
	}
}

// FuzzCheckpointLoad: Load never panics on arbitrary bytes. A refusal
// wraps ErrBadCheckpoint (or blockstore.ErrSpill) and leaves the
// simulator as it was; an accepted input is a checkpoint, so Save
// writes back exactly the bytes Load consumed. The seeds are both
// fixtures and a fresh 6-qubit Save, each loaded into a simulator of
// its own geometry; every input is tried on all three.
func FuzzCheckpointLoad(f *testing.F) {
	fresh := newSim(f, 6, 2, 8, nil)
	if err := fresh.Run(quantum.NewCircuit(6).H(0).H(3).Measure(3).CNOT(0, 5)); err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, fresh))
	for _, name := range []string{"checkpoint_pr15_qft8_half.bin", "checkpoint_pr18_qft_budget_lossy.bin"} {
		ckpt, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ckpt)
	}
	sims := []*Simulator{newSim(f, 6, 2, 8, nil), newSim(f, 8, 2, 16, nil), lossyCheckpointSim(f)}
	f.Fuzz(func(t *testing.T, ckpt []byte) {
		for _, s := range sims {
			before := saved(t, s)
			r := bytes.NewReader(ckpt)
			err := s.Load(r)
			if err != nil {
				if !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, blockstore.ErrSpill) {
					t.Fatalf("Load refused with an untyped error: %v", err)
				}
				if !bytes.Equal(saved(t, s), before) {
					t.Fatalf("the refused Load (%v) changed the simulator", err)
				}
				continue
			}
			if read := ckpt[:len(ckpt)-r.Len()]; !bytes.Equal(saved(t, s), read) {
				t.Fatalf("accepted %d bytes that Save does not write back", len(read))
			}
		}
	})
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
func lossyCheckpointSim(t testing.TB) *Simulator {
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
