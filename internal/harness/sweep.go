package harness

import (
	"fmt"
	"io"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/quantum"
)

// SweepRow is one workload × scheduler-mode measurement of the sweep
// experiment: how much codec traffic the sweep scheduler removes from
// the Grover and QAOA example circuits, whose layers of single-qubit
// gates on different qubits pay one codec round trip per gate under the
// paper's cost model.
type SweepRow struct {
	Benchmark string `csv:"benchmark"`
	Qubits    int    `csv:"qubits"`
	Gates     int    `csv:"gates"`

	CodecCallsOff int64         `csv:"codec_calls_off"` // compress+decompress invocations, gate-at-a-time
	CodecCallsOn  int64         `csv:"codec_calls_on"`  // same with the sweep scheduler
	Reduction     float64       `csv:"reduction"`
	Sweeps        int           `csv:"sweeps"`
	SweepGates    int           `csv:"sweep_gates"`
	PassesSaved   int64         `csv:"passes_saved"`
	ElapsedOff    time.Duration `csv:"elapsed_off_seconds"`
	ElapsedOn     time.Duration `csv:"elapsed_on_seconds"`
}

// sweepWorkloads scales the example circuits the experiment measures:
// the examples/grover search and the examples/qaoa MAXCUT instance.
func sweepWorkloads(opt Options) []struct {
	name string
	cir  *quantum.Circuit
} {
	grover := quantum.Grover(opt.GroverSearch,
		0x2D>>uint(max(0, 6-opt.GroverSearch)),
		quantum.GroverOptimalIterations(opt.GroverSearch))
	var qaoaN int
	for _, n := range opt.QAOAQubits {
		if n > qaoaN {
			qaoaN = n
		}
	}
	return []struct {
		name string
		cir  *quantum.Circuit
	}{
		{fmt.Sprintf("Grover-%dq", grover.N), grover},
		{fmt.Sprintf("QAOA-%dq", qaoaN), quantum.QAOA(qaoaN, 2, 2020)},
	}
}

// SweepResults runs each workload twice — sweeps off, then on — under
// identical lossless configurations and reports the codec-invocation
// reduction. The amplitudes are bit-identical across the pair (the
// scheduler's contract), so the comparison isolates pure codec traffic.
func SweepResults(opt Options) ([]SweepRow, error) {
	var rows []SweepRow
	for _, wl := range sweepWorkloads(opt) {
		run := func(disable bool) (core.Stats, time.Duration, error) {
			s, err := core.New(core.Config{
				Qubits:        wl.cir.N,
				Ranks:         1,
				BlockAmps:     opt.BlockAmps,
				Workers:       opt.Workers,
				Seed:          7,
				DisableSweeps: disable,
			})
			if err != nil {
				return core.Stats{}, 0, err
			}
			// Snapshot after New's Reset so the reported codec traffic
			// covers the run alone, not the per-block initialization
			// compressions neither mode can elide.
			base := s.Stats()
			start := time.Now()
			if err := s.Run(wl.cir); err != nil {
				return core.Stats{}, 0, err
			}
			elapsed := time.Since(start)
			st := s.Stats()
			st.CompressCalls -= base.CompressCalls
			st.DecompressCalls -= base.DecompressCalls
			return st, elapsed, nil
		}
		stOff, elOff, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("%s sweeps-off: %w", wl.name, err)
		}
		stOn, elOn, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("%s sweeps-on: %w", wl.name, err)
		}
		callsOff := stOff.CompressCalls + stOff.DecompressCalls
		callsOn := stOn.CompressCalls + stOn.DecompressCalls
		row := SweepRow{
			Benchmark:     wl.name,
			Qubits:        wl.cir.N,
			Gates:         len(wl.cir.Gates),
			CodecCallsOff: callsOff,
			CodecCallsOn:  callsOn,
			Sweeps:        stOn.Sweeps,
			SweepGates:    stOn.SweepGates,
			PassesSaved:   stOn.CodecPassesSaved,
			ElapsedOff:    elOff,
			ElapsedOn:     elOn,
		}
		if callsOn > 0 {
			row.Reduction = float64(callsOff) / float64(callsOn)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runSweep(w io.Writer, opt Options) error {
	header(w, "Sweep scheduler: one codec pass per group sweep")
	rows, err := SweepResults(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "benchmark\tqubits\tgates\tcodec calls (off)\tcodec calls (on)\treduction\tsweeps\tsweep gates\tpasses saved\ttime off\ttime on")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1fx\t%d\t%d\t%d\t%v\t%v\n",
			r.Benchmark, r.Qubits, r.Gates,
			r.CodecCallsOff, r.CodecCallsOn, r.Reduction,
			r.Sweeps, r.SweepGates, r.PassesSaved,
			r.ElapsedOff.Round(time.Millisecond), r.ElapsedOn.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(identical amplitudes both modes; the reduction is pure codec traffic removed)")
	return nil
}
