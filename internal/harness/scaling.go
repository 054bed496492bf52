package harness

import (
	"fmt"
	"io"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/quantum"
	"qcsim/internal/stats"
)

// Table1Row is one machine of the paper's Table 1.
type Table1Row struct {
	System    string
	MemoryPB  float64
	MaxQubits int
}

// Table1Rows evaluates the Table 1 arithmetic: a machine with M bytes
// fully simulates n qubits iff 2^(n+4) ≤ M.
func Table1Rows() []Table1Row {
	machines := []struct {
		name string
		pb   float64
	}{
		{"Summit", 2.8},
		{"Sierra", 1.38},
		{"Sunway TaihuLight", 1.31},
		{"Theta", 0.8},
	}
	pb := float64(uint64(1) << 50)
	rows := make([]Table1Row, len(machines))
	for i, m := range machines {
		rows[i] = Table1Row{System: m.name, MemoryPB: m.pb, MaxQubits: core.MaxQubitsForMemory(m.pb * pb)}
	}
	return rows
}

func runTable1(w io.Writer, _ Options) error {
	header(w, "Table 1: supercomputers and the max qubits they can fully simulate")
	tw := newTable(w)
	fmt.Fprintln(tw, "System\tMemory (PB)\tMax Qubits")
	for _, r := range Table1Rows() {
		fmt.Fprintf(tw, "%s\t%.2f\t%d\n", r.System, r.MemoryPB, r.MaxQubits)
	}
	tw.Flush()
	fmt.Fprintf(w, "(2^(n+4) bytes per n-qubit state; 61 qubits would need %s)\n",
		stats.FormatBytes(core.MemoryRequirement(61)))
	return nil
}

// Fig5Config is one ranks×workers configuration of the Fig. 5 sweep.
type Fig5Config struct {
	Ranks      int
	Normalized float64 // execution time relative to the first config
	Elapsed    time.Duration
}

// rankSweepWorkers pins the pool width for experiments that sweep rank
// counts: the core default (NumCPU/Ranks) would hold total parallelism
// constant across the sweep and flatten the curve the figure exists to
// show, so an unset Workers means one worker per rank here.
func rankSweepWorkers(opt Options) int {
	if opt.Workers == 0 {
		return 1
	}
	return opt.Workers
}

// Fig5Results sweeps rank counts for a fixed random-circuit workload.
// The paper varies ranks×threads per node at fixed hardware; our analog
// varies rank counts at a fixed goroutine budget.
func Fig5Results(opt Options) ([]Fig5Config, error) {
	cir := quantum.RandomCircuit(opt.Fig5Qubits, 120, 35)
	var out []Fig5Config
	maxRanks := 1 << 3
	if 1<<uint(opt.Fig5Qubits-3) < maxRanks {
		maxRanks = 1 << uint(opt.Fig5Qubits-3)
	}
	for ranks := 1; ranks <= maxRanks; ranks *= 2 {
		s, err := core.New(core.Config{Qubits: opt.Fig5Qubits, Ranks: ranks, BlockAmps: opt.BlockAmps, Workers: rankSweepWorkers(opt), Seed: 1, DisableSweeps: opt.DisableSweeps})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Run(cir); err != nil {
			return nil, err
		}
		out = append(out, Fig5Config{Ranks: ranks, Elapsed: time.Since(start)})
	}
	base := out[0].Elapsed.Seconds()
	for i := range out {
		out[i].Normalized = out[i].Elapsed.Seconds() / base
	}
	return out, nil
}

func runFig5(w io.Writer, opt Options) error {
	header(w, fmt.Sprintf("Fig. 5: normalized execution time, %d-qubit random circuit, varying ranks", opt.Fig5Qubits))
	rs, err := Fig5Results(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "ranks\telapsed\tnormalized")
	for _, r := range rs {
		fmt.Fprintf(tw, "%d\t%v\t%.1f%%\n", r.Ranks, r.Elapsed.Round(time.Millisecond), 100*r.Normalized)
	}
	return tw.Flush()
}

func runFig6(w io.Writer, _ Options) error {
	header(w, "Fig. 6: fidelity lower bound vs number of gates (Eq. 11)")
	gateCounts := []int{0, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000}
	tw := newTable(w)
	fmt.Fprint(tw, "gates")
	for _, d := range core.DefaultErrorLevels {
		fmt.Fprintf(tw, "\tPWR=%.0e", d)
	}
	fmt.Fprintln(tw)
	for _, g := range gateCounts {
		fmt.Fprintf(tw, "%d", g)
		for _, d := range core.DefaultErrorLevels {
			fmt.Fprintf(tw, "\t%.4f", core.FidelityBound(constBounds(d, g)))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func constBounds(d float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = d
	}
	return b
}

// Fig15Point is one qubit-count measurement of the single-node sweep.
type Fig15Point struct {
	Qubits     int
	Elapsed    time.Duration
	Normalized float64
	// CodecCalls is the run's block encodes + decodes: the deterministic
	// measure of the work Elapsed times.
	CodecCalls int64
}

// Fig15Results times a Hadamard layer per qubit count on one rank.
func Fig15Results(opt Options) ([]Fig15Point, error) {
	var out []Fig15Point
	for n := opt.Fig15MinQubits; n <= opt.Fig15MaxQubits; n++ {
		s, err := core.New(core.Config{Qubits: n, Ranks: 1, BlockAmps: opt.BlockAmps, Workers: opt.Workers, Seed: 1, DisableSweeps: opt.DisableSweeps})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Run(quantum.HadamardAll(n)); err != nil {
			return nil, err
		}
		elapsed, st := time.Since(start), s.Stats()
		out = append(out, Fig15Point{Qubits: n, Elapsed: elapsed, CodecCalls: st.CompressCalls + st.DecompressCalls})
	}
	base := out[0].Elapsed.Seconds()
	for i := range out {
		out[i].Normalized = out[i].Elapsed.Seconds() / base
	}
	return out, nil
}

func runFig15(w io.Writer, opt Options) error {
	header(w, "Fig. 15: single-node execution time vs simulation size (Hadamard layer)")
	rs, err := Fig15Results(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "qubits\telapsed\tnormalized\tcodec calls")
	for _, r := range rs {
		fmt.Fprintf(tw, "%d\t%v\t%.1f%%\t%d\n", r.Qubits, r.Elapsed.Round(time.Millisecond), 100*r.Normalized, r.CodecCalls)
	}
	return tw.Flush()
}

// Fig16Point is one rank-count measurement of the strong-scaling run.
type Fig16Point struct {
	Ranks   int
	Elapsed time.Duration
	Speedup float64
}

// Fig16Results measures strong scaling of a Hadamard layer at fixed
// problem size.
func Fig16Results(opt Options) ([]Fig16Point, error) {
	cir := quantum.HadamardAll(opt.Fig16Qubits)
	var out []Fig16Point
	for ranks := 1; ranks <= opt.Fig16MaxRanks; ranks *= 2 {
		s, err := core.New(core.Config{Qubits: opt.Fig16Qubits, Ranks: ranks, BlockAmps: opt.BlockAmps, Workers: rankSweepWorkers(opt), Seed: 1, DisableSweeps: opt.DisableSweeps})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Run(cir); err != nil {
			return nil, err
		}
		out = append(out, Fig16Point{Ranks: ranks, Elapsed: time.Since(start)})
	}
	base := out[0].Elapsed.Seconds()
	for i := range out {
		out[i].Speedup = base / out[i].Elapsed.Seconds()
	}
	return out, nil
}

func runFig16(w io.Writer, opt Options) error {
	header(w, fmt.Sprintf("Fig. 16: strong scaling, %d-qubit Hadamard layer", opt.Fig16Qubits))
	rs, err := Fig16Results(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "ranks\telapsed\tspeedup vs 1 rank\tideal")
	for i, r := range rs {
		fmt.Fprintf(tw, "%d\t%v\t%.2f\t%d\n", r.Ranks, r.Elapsed.Round(time.Millisecond), r.Speedup, 1<<uint(i))
	}
	return tw.Flush()
}

// WorkerScalingPoint is one pool-width measurement of the intra-rank
// scaling run — the in-process analog of the paper's 64 OpenMP threads
// per MPI rank.
type WorkerScalingPoint struct {
	Workers int
	Elapsed time.Duration
	Speedup float64
}

// WorkerScalingResults measures the same fixed workload as Fig. 16 at
// one rank while widening the worker pool over the block loop. The
// final states are bit-identical across the sweep (the pool's
// determinism contract), so every point does the same arithmetic.
func WorkerScalingResults(opt Options) ([]WorkerScalingPoint, error) {
	cir := quantum.HadamardAll(opt.Fig16Qubits)
	maxW := opt.MaxWorkers
	if maxW < 1 {
		maxW = 1
	}
	var out []WorkerScalingPoint
	for workers := 1; workers <= maxW; workers *= 2 {
		s, err := core.New(core.Config{Qubits: opt.Fig16Qubits, Ranks: 1, BlockAmps: opt.BlockAmps, Workers: workers, Seed: 1, DisableSweeps: opt.DisableSweeps})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Run(cir); err != nil {
			return nil, err
		}
		out = append(out, WorkerScalingPoint{Workers: workers, Elapsed: time.Since(start)})
	}
	base := out[0].Elapsed.Seconds()
	for i := range out {
		out[i].Speedup = base / out[i].Elapsed.Seconds()
	}
	return out, nil
}

func runFig16Workers(w io.Writer, opt Options) error {
	header(w, fmt.Sprintf("Fig. 16b: intra-rank worker scaling, %d-qubit Hadamard layer, 1 rank", opt.Fig16Qubits))
	rs, err := WorkerScalingResults(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "workers\telapsed\tspeedup vs 1 worker\tideal")
	for i, r := range rs {
		fmt.Fprintf(tw, "%d\t%v\t%.2f\t%d\n", r.Workers, r.Elapsed.Round(time.Millisecond), r.Speedup, 1<<uint(i))
	}
	return tw.Flush()
}
