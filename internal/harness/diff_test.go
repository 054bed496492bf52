package harness

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func baselineSnapshot() *BenchSnapshot {
	return &BenchSnapshot{
		Schema:   SnapshotSchema,
		Options:  Small(),
		Sweep:    []SweepRow{{Benchmark: "Grover-7q", Reduction: 100}},
		Batch:    []BatchRow{{Benchmark: "QAOA-10q", Variants: 9, Reduction: 7}},
		Sampling: []SamplingRow{{Benchmark: "GHZ-11q", Speedup: 50}},
		Crossover: []CrossoverRow{{
			Depth: 2, EstBond: 4, Auto: "mps",
		}},
		Spill: []SpillRow{{Benchmark: "QFT-10", SpillOverBudget: false, SpillFinalLevel: 0}},
	}
}

func TestDiffSnapshotsCleanWithinTolerance(t *testing.T) {
	old := baselineSnapshot()
	fresh := baselineSnapshot()
	// A small counter move inside 20%: not a regression. Timings are
	// not gated, however far they move.
	fresh.Sweep[0].Reduction = 90
	fresh.Sweep[0].ElapsedOn = time.Hour
	fresh.Sampling[0].Speedup = 1
	fresh.Spill[0].SpillElapsed = time.Hour
	regs, err := DiffSnapshots(old, fresh, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestDiffSnapshotsCatchesRegressions(t *testing.T) {
	old := baselineSnapshot()
	fresh := baselineSnapshot()
	fresh.Sweep[0].Reduction = 50          // reduction halved
	fresh.Batch[0].Reduction = 2           // batch cache sharing collapsed
	fresh.Batch[0].Variants = 5            // batch width drifted
	fresh.Crossover[0].Auto = "compressed" // routing flipped
	fresh.Spill[0].SpillOverBudget = true  // spill tier broke
	regs, err := DiffSnapshots(old, fresh, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"sweep/Grover-7q|reduction":   false,
		"batch/QAOA-10q|reduction":    false,
		"batch/QAOA-10q|variants":     false,
		"crossover/depth-2|auto-pick": false,
		"spill/QFT-10|over-budget":    false,
	}
	for _, r := range regs {
		key := r.Row + "|" + r.Metric
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected regression %v", r)
			continue
		}
		want[key] = true
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("expected regression %s not reported", key)
		}
	}
}

func TestDiffSnapshotsMissingRow(t *testing.T) {
	old := baselineSnapshot()
	fresh := baselineSnapshot()
	fresh.Sweep = nil
	regs, err := DiffSnapshots(old, fresh, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "row" || !strings.HasPrefix(regs[0].Row, "sweep/") {
		t.Fatalf("want one missing-row regression, got %v", regs)
	}
}

func TestDiffSnapshotsScaleMismatch(t *testing.T) {
	old := baselineSnapshot()
	fresh := baselineSnapshot()
	fresh.Options.BlockAmps = old.Options.BlockAmps * 2
	if _, err := DiffSnapshots(old, fresh, 0.20); err == nil {
		t.Fatal("differently-scaled snapshots must not diff cleanly")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	snap := baselineSnapshot()
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := DiffSnapshots(snap, back, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("round-tripped snapshot must diff clean, got %v", regs)
	}
}
