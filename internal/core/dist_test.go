package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"qcsim/internal/quantum"
)

// workerDeltas runs c on s's state the way a process transport does,
// in one process: a worker simulator of s's configuration installs
// every rank from s's exports, runs c, and returns one delta per rank
// for s.ApplyDeltas. step, when non-nil, sees the worker after the
// install and after the run.
func workerDeltas(t testing.TB, s *Simulator, c *quantum.Circuit, step func(name string, w *Simulator)) []*RankDelta {
	t.Helper()
	w, err := New(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for r := range s.ranks {
		blocks, level, err := s.ExportRankBlocks(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.InstallRank(r, blocks, level); err != nil {
			t.Fatal(err)
		}
	}
	if step != nil {
		step("install", w)
	}
	if err := w.Run(c); err != nil {
		t.Fatal(err)
	}
	if step != nil {
		step("worker run", w)
	}
	deltas := make([]*RankDelta, len(s.ranks))
	for r := range deltas {
		if deltas[r], err = w.ExportDelta(r); err != nil {
			t.Fatal(err)
		}
	}
	return deltas
}

// TestApplyDeltasRefusesBadDeltas holds ApplyDeltas to what the workers
// of one run can send: each row breaks one field of an honest set of
// deltas, and the merge must refuse it with ErrBadDelta before changing
// anything. The honest set then merges into exactly the state a direct
// run produces.
func TestApplyDeltasRefusesBadDeltas(t *testing.T) {
	// A budget the state never reaches puts the ladder's requantize
	// rounds into the gate-level array (1 + 5 entries per gate).
	cfg := func(c *Config) { c.MemoryBudget = 1 << 30 }
	s := newSim(t, 6, 2, 8, cfg)
	cir := quantum.RandomCircuit(6, 12, 3)
	cir.Measure(1)
	good := workerDeltas(t, s, cir, nil)
	rounds, top := s.ledgerRounds(), len(s.cfg.ErrorLevels)
	if rounds < 2 || top >= 9 {
		t.Fatalf("%d ledger rounds, %d levels: the rows below need a budgeted default ladder", rounds, top)
	}
	gates := len(good[0].GateLevels) / rounds
	before := saved(t, s)
	rows := []struct {
		name   string
		mutate func(ds []*RankDelta) []*RankDelta
	}{
		{"one delta for two ranks", func(ds []*RankDelta) []*RankDelta { return ds[:1] }},
		{"nil delta", func(ds []*RankDelta) []*RankDelta { ds[1] = nil; return ds }},
		{"rank out of range", func(ds []*RankDelta) []*RankDelta { ds[1].Rank = 2; return ds }},
		{"duplicate rank", func(ds []*RankDelta) []*RankDelta { ds[1].Rank = 0; return ds }},
		{"short block list", func(ds []*RankDelta) []*RankDelta { ds[1].Blocks = ds[1].Blocks[:3]; return ds }},
		{"empty blob", func(ds []*RankDelta) []*RankDelta { ds[1].Blocks[3] = nil; return ds }},
		{"level -1", func(ds []*RankDelta) []*RankDelta { ds[0].Level = -1; return ds }},
		{"level 99", func(ds []*RankDelta) []*RankDelta { ds[1].Level = 99; return ds }},
		{"gate level 9", func(ds []*RankDelta) []*RankDelta { ds[1].GateLevels[2] = 9; return ds }},
		{"partial ledger round", func(ds []*RankDelta) []*RankDelta {
			for _, d := range ds {
				d.GateLevels = d.GateLevels[:len(d.GateLevels)-1]
			}
			return ds
		}},
		{"gate-level arrays of two lengths", func(ds []*RankDelta) []*RankDelta {
			ds[1].GateLevels = append(ds[1].GateLevels, make([]uint32, rounds)...)
			return ds
		}},
		{"negative gate count", func(ds []*RankDelta) []*RankDelta { ds[0].Executed = -1; return ds }},
		{"more gates than the array", func(ds []*RankDelta) []*RankDelta { ds[0].Executed = gates + 1; return ds }},
		{"more measurements than gates", func(ds []*RankDelta) []*RankDelta { ds[0].Executed = 0; return ds }},
		{"outcome 7", func(ds []*RankDelta) []*RankDelta { ds[0].Measurements[0] = 7; return ds }},
	}
	for _, row := range rows {
		ds := make([]*RankDelta, len(good))
		for r, d := range good {
			c := *d
			c.Blocks = append([][]byte(nil), d.Blocks...)
			c.GateLevels = append([]uint32(nil), d.GateLevels...)
			c.Measurements = append([]int(nil), d.Measurements...)
			ds[r] = &c
		}
		err := s.ApplyDeltas(row.mutate(ds))
		if !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: ApplyDeltas returned %v, want ErrBadDelta", row.name, err)
		}
		if !bytes.Equal(saved(t, s), before) {
			t.Fatalf("%s: a refused delta changed the state", row.name)
		}
	}
	if err := s.ApplyDeltas(good); err != nil {
		t.Fatal(err)
	}
	ref := newSim(t, 6, 2, 8, cfg)
	if err := ref.Run(cir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(t, s), saved(t, ref)) {
		t.Fatal("the honest deltas merged into a state other than the direct run's")
	}
}

// FuzzApplyDeltas holds ApplyDeltas to its contract on arbitrary input.
// The fuzz arguments make one rank's delta — rank, level, Executed, the
// blobs (each a uvarint length and its bytes), the gate levels (four
// bytes each) and the measurement outcomes (a byte each) — which goes
// beside the other rank's honest delta into a clone of a 2-rank
// simulator. ApplyDeltas must never panic; a refusal wraps ErrBadDelta
// and leaves the state's bits, Stats, the ledger and the measurement log
// exactly as they were. The seeds are both ranks' real ExportDelta.
func FuzzApplyDeltas(f *testing.F) {
	base := newSim(f, 6, 2, 8, nil)
	cir := quantum.RandomCircuit(6, 12, 3)
	cir.Measure(1)
	good := workerDeltas(f, base, cir, nil)
	for _, d := range good {
		var blobs, levels, meas []byte
		for _, b := range d.Blocks {
			blobs = append(binary.AppendUvarint(blobs, uint64(len(b))), b...)
		}
		for _, l := range d.GateLevels {
			levels = binary.LittleEndian.AppendUint32(levels, l)
		}
		for _, m := range d.Measurements {
			meas = append(meas, byte(m))
		}
		f.Add(d.Rank, d.Level, d.Executed, blobs, levels, meas)
	}
	type snapshot struct {
		state  []complex128
		stats  Stats
		ledger float64
		meas   []int
	}
	snap := func(t *testing.T, s *Simulator) snapshot {
		state, err := s.FullState()
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{state, s.Stats(), s.FidelityLowerBound(), s.Measurements()}
	}
	f.Fuzz(func(t *testing.T, rank, level, executed int, blobs, levels, meas []byte) {
		d := &RankDelta{Rank: rank, Level: level, Executed: executed}
		for len(blobs) > 0 && len(d.Blocks) < 64 {
			n, k := binary.Uvarint(blobs)
			if k <= 0 || n > uint64(len(blobs)-k) {
				break
			}
			d.Blocks = append(d.Blocks, blobs[k:k+int(n)])
			blobs = blobs[k+int(n):]
		}
		for ; len(levels) >= 4; levels = levels[4:] {
			d.GateLevels = append(d.GateLevels, binary.LittleEndian.Uint32(levels))
		}
		for _, m := range meas {
			d.Measurements = append(d.Measurements, int(m))
		}
		other := good[1]
		if rank == 1 {
			other = good[0]
		}
		if rank == 0 || rank == 1 {
			d.Stats = good[rank].Stats
		}
		s, err := base.Clone(1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		before := snap(t, s)
		err = s.ApplyDeltas([]*RankDelta{d, other})
		if err == nil {
			s.FullState() // an accepted blob may not decode; it must not panic either
			return
		}
		if !errors.Is(err, ErrBadDelta) {
			t.Fatalf("ApplyDeltas refused with an untyped error: %v", err)
		}
		after := snap(t, s)
		if !slices.EqualFunc(before.state, after.state, sameBits) || before.stats != after.stats ||
			before.ledger != after.ledger || !slices.Equal(before.meas, after.meas) {
			t.Fatalf("the refusal (%v) changed the simulator", err)
		}
	})
}
