// Package bench is the public handle on the experiment harness that
// regenerates the paper's tables and figures (Table 1/2, Figs. 5–16).
// It exists so tools like cmd/qcbench — and any external driver — can
// enumerate, configure, and run the experiments without importing the
// module's internal packages.
package bench

import "qcsim/internal/harness"

// Options scales the experiments: qubit counts, block sizes, depths,
// and the rank/worker configuration of simulator runs.
type Options = harness.Options

// Experiment is one runnable experiment: an ID (e.g. "table2",
// "fig10"), a title, and a Run method writing its report to an
// io.Writer.
type Experiment = harness.Experiment

// Default returns the committed full-scale options.
func Default() Options { return harness.Default() }

// Small returns CI-sized options (seconds, not minutes).
func Small() Options { return harness.Small() }

// Experiments lists every experiment in presentation order.
func Experiments() []Experiment { return harness.Experiments() }

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) { return harness.Lookup(id) }

// IDs returns the experiment IDs in presentation order.
func IDs() []string { return harness.IDs() }

// ExportCSV writes every figure's data as CSV files into dir.
func ExportCSV(dir string, opt Options) error { return harness.ExportCSV(dir, opt) }

// Snapshot bundles one run of the structured experiments (sweep, batch,
// sampling, crossover, spill) for a committed BENCH_N.json baseline.
type Snapshot = harness.BenchSnapshot

// SpillRow is one workload of the out-of-core spill experiment.
type SpillRow = harness.SpillRow

// SpillResults runs the spill experiment and returns its rows.
func SpillResults(opt Options) ([]SpillRow, error) { return harness.SpillResults(opt) }

// BatchRow is one workload of the variant-batching experiment: a
// lockstep parameter-shift batch vs the same K circuits run
// sequentially.
type BatchRow = harness.BatchRow

// BatchResults runs the variant-batching experiment and returns its
// rows.
func BatchResults(opt Options) ([]BatchRow, error) { return harness.BatchResults(opt) }

// WriteJSONFile writes a Snapshot of the structured experiments at the
// given scale to path, indented.
func WriteJSONFile(path string, opt Options) error { return harness.WriteJSONFile(path, opt) }

// BuildSnapshot runs the structured experiments once and returns the
// bundle — the build-once entry for tools that both persist and diff.
func BuildSnapshot(opt Options) (*Snapshot, error) { return harness.BuildSnapshot(opt) }

// WriteSnapshotFile writes an already-built Snapshot to path, indented.
func WriteSnapshotFile(path string, snap *Snapshot) error {
	return harness.WriteSnapshotFile(path, snap)
}

// ReadSnapshot parses a committed BENCH_N.json snapshot.
func ReadSnapshot(path string) (*Snapshot, error) { return harness.ReadSnapshot(path) }

// Regression is one tracked benchmark metric that moved past the
// tolerance in the harmful direction between two snapshots.
type Regression = harness.Regression

// DiffSnapshots compares a fresh snapshot against a committed baseline
// and returns every tracked-row regression beyond tol (0.20 = 20%).
// Only deterministic counters are gated (codec-call reductions, batch
// widths, bond estimates and routing picks, spill ladder levels), never
// elapsed times, so a committed baseline from one machine holds on
// another; see the CI bench-regression step.
func DiffSnapshots(old, fresh *Snapshot, tol float64) ([]Regression, error) {
	return harness.DiffSnapshots(old, fresh, tol)
}
