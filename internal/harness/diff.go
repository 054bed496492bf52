package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// Bench-regression gating: committed BENCH_N.json snapshots are diffed
// against a fresh run. The gate checks deterministic counters only —
// codec-call reductions, batch widths, bond estimates and routing
// picks, spill ladder levels — which repeat exactly on any machine, so
// a >tol move in the harmful direction is a real regression, not runner
// noise. The rows' elapsed times are reported (text tables, CSV) but
// never gated: at the -small scale they sit far under any floor a
// shared runner holds. Wall-clock performance is perf/'s job
// (BENCHMARK.json).

// Regression is one tracked metric that moved past the tolerance in
// the harmful direction between two snapshots.
type Regression struct {
	// Row names the workload, e.g. "sweep/Grover-7q" or "spill/QFT-10".
	Row string
	// Metric names the tracked quantity, e.g. "reduction" or "auto-pick".
	Metric string
	// Old and New are the baseline and fresh values.
	Old, New float64
	// Detail is a human-readable explanation of the failure.
	Detail string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.3g -> %.3g (%s)", r.Row, r.Metric, r.Old, r.New, r.Detail)
}

// ReadSnapshot parses a BENCH_N.json snapshot file.
func ReadSnapshot(path string) (*BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap BenchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("harness: snapshot %s: %w", path, err)
	}
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("harness: snapshot %s has schema %d, want %d", path, snap.Schema, SnapshotSchema)
	}
	return &snap, nil
}

// DiffSnapshots compares the tracked counters of a fresh snapshot
// against a committed baseline and returns every regression beyond tol
// (0.20 = a 20% move in the harmful direction); elapsed times are not
// compared. The two snapshots must have
// been produced at the same Options scale; comparing different scales
// is an error, not a clean bill.
func DiffSnapshots(old, fresh *BenchSnapshot, tol float64) ([]Regression, error) {
	if !reflect.DeepEqual(old.Options, fresh.Options) {
		return nil, fmt.Errorf("harness: snapshot scales differ (baseline %+v, fresh %+v)", old.Options, fresh.Options)
	}
	var regs []Regression
	add := func(row, metric string, oldV, newV float64, detail string) {
		regs = append(regs, Regression{Row: row, Metric: metric, Old: oldV, New: newV, Detail: detail})
	}
	// higherBetter flags newV < oldV·(1-tol); tolerated otherwise.
	higherBetter := func(row, metric string, oldV, newV float64) {
		if oldV > 0 && newV < oldV*(1-tol) {
			add(row, metric, oldV, newV, fmt.Sprintf("dropped more than %.0f%%", tol*100))
		}
	}

	sweepOld := make(map[string]SweepRow, len(old.Sweep))
	for _, r := range old.Sweep {
		sweepOld[r.Benchmark] = r
	}
	for _, n := range fresh.Sweep {
		o, ok := sweepOld[n.Benchmark]
		if !ok {
			continue // new workload: nothing to gate against
		}
		delete(sweepOld, n.Benchmark)
		// Codec-call reduction is deterministic — a drop means the
		// scheduler batches less than it used to.
		higherBetter("sweep/"+n.Benchmark, "reduction", o.Reduction, n.Reduction)
	}
	for name := range sweepOld {
		add("sweep/"+name, "row", 1, 0, "tracked row missing from fresh snapshot")
	}

	batchOld := make(map[string]BatchRow, len(old.Batch))
	for _, r := range old.Batch {
		batchOld[r.Benchmark] = r
	}
	for _, n := range fresh.Batch {
		o, ok := batchOld[n.Benchmark]
		if !ok {
			continue
		}
		delete(batchOld, n.Benchmark)
		// The codec-call reduction is deterministic (single-worker batch
		// experiment) — a drop means the batch cache shares less work.
		higherBetter("batch/"+n.Benchmark, "reduction", o.Reduction, n.Reduction)
		if n.Variants != o.Variants {
			add("batch/"+n.Benchmark, "variants", float64(o.Variants), float64(n.Variants),
				"batch width changed at the same scale")
		}
	}
	for name := range batchOld {
		add("batch/"+name, "row", 1, 0, "tracked row missing from fresh snapshot")
	}

	// Sampling rows carry timings only; a row that disappears is still
	// a regression.
	samplingOld := make(map[string]bool, len(old.Sampling))
	for _, r := range old.Sampling {
		samplingOld[r.Benchmark] = true
	}
	for _, n := range fresh.Sampling {
		delete(samplingOld, n.Benchmark)
	}
	for name := range samplingOld {
		add("sampling/"+name, "row", 1, 0, "tracked row missing from fresh snapshot")
	}

	crossOld := make(map[int]CrossoverRow, len(old.Crossover))
	for _, r := range old.Crossover {
		crossOld[r.Depth] = r
	}
	for _, n := range fresh.Crossover {
		o, ok := crossOld[n.Depth]
		if !ok {
			continue
		}
		delete(crossOld, n.Depth)
		row := fmt.Sprintf("crossover/depth-%d", n.Depth)
		// Structural outputs are deterministic: the bond estimate and
		// the auto router's pick must not drift.
		if n.EstBond != o.EstBond {
			add(row, "est-bond", float64(o.EstBond), float64(n.EstBond), "structural bond estimate changed")
		}
		if n.Auto != o.Auto {
			add(row, "auto-pick", 0, 0, fmt.Sprintf("auto routing flipped %s -> %s", o.Auto, n.Auto))
		}
	}
	for depth := range crossOld {
		add(fmt.Sprintf("crossover/depth-%d", depth), "row", 1, 0, "tracked row missing from fresh snapshot")
	}

	spillOld := make(map[string]SpillRow, len(old.Spill))
	for _, r := range old.Spill {
		spillOld[r.Benchmark] = r
	}
	for _, n := range fresh.Spill {
		o, ok := spillOld[n.Benchmark]
		if !ok {
			continue
		}
		delete(spillOld, n.Benchmark)
		row := "spill/" + n.Benchmark
		// The spill tier's whole claim: the budgeted run completes
		// without tripping the ladder.
		if !o.SpillOverBudget && n.SpillOverBudget {
			add(row, "over-budget", 0, 1, "spill run now exceeds the budget")
		}
		if n.SpillFinalLevel > o.SpillFinalLevel {
			add(row, "final-level", float64(o.SpillFinalLevel), float64(n.SpillFinalLevel), "spill run now escalates further")
		}
	}
	for name := range spillOld {
		add("spill/"+name, "row", 1, 0, "tracked row missing from fresh snapshot")
	}
	return regs, nil
}
