// Package bench is the public handle on the experiment harness that
// regenerates the paper's tables and figures (Table 1/2, Figs. 5–16).
// It exists so tools like cmd/qcbench — and any external driver — can
// enumerate, configure, and run the experiments and export their rows
// as CSV without importing the module's internal packages.
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

// IDs returns the experiment IDs, sorted.
func IDs() []string { return harness.IDs() }

// ExportCSV writes every figure's data as CSV files into dir.
func ExportCSV(dir string, opt Options) error { return harness.ExportCSV(dir, opt) }
