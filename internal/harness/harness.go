// Package harness regenerates every table and figure of the paper's
// evaluation (§5) at laptop scale: the same workloads, the same
// comparisons, the same output rows — with qubit counts scaled down per
// the substitutions documented in DESIGN.md. Each experiment prints a
// paper-style table and returns a machine-readable result the tests and
// benchmarks assert shape properties on.
package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Options scales the experiments. Default() matches the committed
// EXPERIMENTS.md numbers; Small() keeps CI fast.
type Options struct {
	// SnapshotQubits sizes the qaoa_N / sup_N state snapshots used by
	// the compression experiments (paper: 36).
	SnapshotQubits int
	// SnapshotBlock is the per-block value count when splitting
	// snapshots for per-block statistics (paper: 2^21 doubles).
	SnapshotBlock int
	// Fig5Qubits sizes the rank-configuration sweep (paper: 35).
	Fig5Qubits int
	// Fig15MinQubits..Fig15MaxQubits bound the single-node scaling
	// sweep (paper: 34..40).
	Fig15MinQubits, Fig15MaxQubits int
	// Fig16Qubits sizes the strong-scaling run (paper: 51).
	Fig16Qubits int
	// Fig16MaxRanks is the largest rank count (paper: 512 nodes).
	Fig16MaxRanks int
	// Table2Scale shrinks the Table 2 benchmarks: Grover search
	// register, supremacy grid, QAOA width, QFT width.
	GroverSearch   int
	SupremacyGrids [][2]int
	QAOAQubits     []int
	QFTQubits      int
	SupremacyDepth int
	// Ranks used by Table 2 runs.
	Table2Ranks int
	// BlockAmps for simulator runs.
	BlockAmps int
	// Workers is the per-rank worker-pool width simulator runs use
	// (0 = the core default, runtime.NumCPU()/Ranks).
	Workers int
	// MaxWorkers is the largest pool width in the worker-scaling sweep
	// (the intra-rank analog of Fig. 16; the paper runs 64 OpenMP
	// threads per MPI rank).
	MaxWorkers int
	// DisableSweeps turns the sweep scheduler off in simulator runs,
	// reproducing the paper's one-codec-pass-per-gate cost model (the
	// "sweep" experiment compares both modes regardless).
	DisableSweeps bool
	// SampleShots is the shot count of the sampling experiment.
	SampleShots int
	// CrossoverQubits and CrossoverDepths shape the backend-crossover
	// sweep: a brickwork circuit of each depth on that many qubits.
	CrossoverQubits int
	CrossoverDepths []int
	// BondDim is the MPS bond-dimension cap χ used by the crossover
	// experiment (and the auto-selection threshold it reports).
	BondDim int
	// Backend restricts the crossover sweep to one engine ("mps" or
	// "compressed"); anything else runs both sides of the comparison.
	Backend string
	// BatchShifts is how many trailing parameter occurrences the batch
	// experiment shifts by ±π/2: the lockstep batch width is
	// K = 1 + 2·BatchShifts.
	BatchShifts int
}

// Default returns the committed experiment scale.
func Default() Options {
	return Options{
		SnapshotQubits:  16,
		SnapshotBlock:   4096,
		Fig5Qubits:      14,
		Fig15MinQubits:  12,
		Fig15MaxQubits:  18,
		Fig16Qubits:     16,
		Fig16MaxRanks:   8,
		GroverSearch:    8,
		SupremacyGrids:  [][2]int{{4, 4}, {3, 5}, {3, 4}},
		QAOAQubits:      []int{16, 14},
		QFTQubits:       14,
		SupremacyDepth:  11,
		Table2Ranks:     4,
		BlockAmps:       1024,
		MaxWorkers:      8,
		SampleShots:     4096,
		CrossoverQubits: 16,
		CrossoverDepths: []int{1, 2, 4, 6, 8, 10, 12},
		BondDim:         32,
		BatchShifts:     12,
	}
}

// Small returns a fast scale for tests. Its 64-amplitude blocks leave
// the 10-qubit workloads four block qubits, one more than a sweep
// carries, so the batch experiment's circuits span several passes and
// its variants have a common prefix to share; at 128 amplitudes every
// such circuit is one sweep and shares nothing.
func Small() Options {
	return Options{
		SnapshotQubits:  11,
		SnapshotBlock:   512,
		Fig5Qubits:      10,
		Fig15MinQubits:  8,
		Fig15MaxQubits:  11,
		Fig16Qubits:     11,
		Fig16MaxRanks:   4,
		GroverSearch:    5,
		SupremacyGrids:  [][2]int{{3, 3}},
		QAOAQubits:      []int{10},
		QFTQubits:       10,
		SupremacyDepth:  8,
		Table2Ranks:     2,
		BlockAmps:       64,
		MaxWorkers:      4,
		SampleShots:     256,
		CrossoverQubits: 10,
		CrossoverDepths: []int{1, 2, 4, 6},
		BondDim:         8,
		BatchShifts:     4,
	}
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, opt Options) error
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: supercomputer memory vs max fully-simulable qubits", runTable1},
		{"fig5", "Fig. 5: normalized execution time across rank configurations", runFig5},
		{"fig6", "Fig. 6: fidelity lower bounds vs gate count (Eq. 11)", runFig6},
		{"fig7", "Fig. 7: compression ratio, SZ vs ZFP (absolute error)", runFig7},
		{"fig8", "Fig. 8: compression ratio, SZ vs FPZIP vs ZFP (relative error)", runFig8},
		{"fig9", "Fig. 9: spikiness of quantum state data", runFig9},
		{"fig10", "Fig. 10: compression ratio of Solutions A-D", runFig10},
		{"fig11", "Fig. 11: compression/decompression rates of Solutions A-D", runFig11},
		{"fig12", "Fig. 12: distribution of per-block max pointwise relative errors", runFig12},
		{"fig13", "Fig. 13: discrete truncation errors (worked example)", runFig13},
		{"fig14", "Fig. 14: normalized error distribution and autocorrelation (Solution C)", runFig14},
		{"fig15", "Fig. 15: single-node execution time vs qubit count", runFig15},
		{"fig16", "Fig. 16: strong scaling of a Hadamard layer", runFig16},
		{"fig16w", "Fig. 16b: intra-rank worker-pool scaling (paper: OpenMP threads per rank)", runFig16Workers},
		{"sweep", "Sweep scheduler: codec passes per group sweep (Grover, QAOA)", runSweep},
		{"batch", "Variant batching: lockstep parameter-shift batch vs K sequential runs (QAOA, VQE)", runBatchExp},
		{"sampling", "Sampling: streaming compressed-domain sampler vs full-vector scan (GHZ, QAOA)", runSampling},
		{"spill", "Spill tier: out-of-core completion under a resident-memory budget (QFT, random)", runSpill},
		{"crossover", "Crossover: compressed full-state vs MPS backend over entanglement depth (§2.2)", runCrossover},
		{"table2", "Table 2: full benchmark results with time breakdown", runTable2},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// newTable returns a tabwriter for aligned paper-style output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
