package harness

import (
	"encoding/json"
	"os"
)

// JSON snapshot: a machine-readable bundle of the cheap structured
// experiments, versioned so committed BENCH_N.json files from
// successive changes can be diffed. Only the experiments whose rows
// carry performance-shaped numbers are included — the compression
// figures live in the CSV export.

// SnapshotSchema versions the BenchSnapshot layout.
const SnapshotSchema = 1

// BenchSnapshot bundles one harness run's structured results. (Not to
// be confused with the state-snapshot datasets of the compression
// experiments — see snapshots.go.)
type BenchSnapshot struct {
	Schema    int            `json:"schema"`
	Options   Options        `json:"options"`
	Sweep     []SweepRow     `json:"sweep"`
	Batch     []BatchRow     `json:"batch"`
	Sampling  []SamplingRow  `json:"sampling"`
	Crossover []CrossoverRow `json:"crossover"`
	Spill     []SpillRow     `json:"spill"`
}

// BuildSnapshot runs the snapshot experiments at the given scale.
func BuildSnapshot(opt Options) (*BenchSnapshot, error) {
	sweep, err := SweepResults(opt)
	if err != nil {
		return nil, err
	}
	batch, err := BatchResults(opt)
	if err != nil {
		return nil, err
	}
	sampling, err := SamplingResults(opt)
	if err != nil {
		return nil, err
	}
	crossover, err := CrossoverResults(opt)
	if err != nil {
		return nil, err
	}
	spill, err := SpillResults(opt)
	if err != nil {
		return nil, err
	}
	return &BenchSnapshot{
		Schema:    SnapshotSchema,
		Options:   opt,
		Sweep:     sweep,
		Batch:     batch,
		Sampling:  sampling,
		Crossover: crossover,
		Spill:     spill,
	}, nil
}

// WriteJSONFile builds a BenchSnapshot and writes it, indented, to a
// named file.
func WriteJSONFile(path string, opt Options) error {
	snap, err := BuildSnapshot(opt)
	if err != nil {
		return err
	}
	return WriteSnapshotFile(path, snap)
}

// WriteSnapshotFile writes an already-built snapshot to path,
// indented — the build-once path for tools that both persist and diff
// one run.
func WriteSnapshotFile(path string, snap *BenchSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
