package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/quantum"
)

// The sampling experiment measures the streaming compressed-domain
// sampler against the readout path the engine originally shipped:
// decompress the whole 2^n-amplitude vector and linearly scan it once
// per shot. The streaming sampler pays one block pass to build a
// two-level CDF; a call then costs two binary searches per shot —
// O(log blocks + log blockAmps) — plus one decode-and-fold per block
// the shots touched. Unlike the scan, it normalizes draws by the true
// total mass, so lossy runs sample the state's actual distribution.

// SamplingRow is one workload × shot-count measurement.
type SamplingRow struct {
	Benchmark string `csv:"benchmark"`
	Qubits    int    `csv:"qubits"`
	Shots     int    `csv:"shots"`
	// Distinct is the number of distinct outcomes the streaming draw
	// produced (a cheap sanity signal that mass is spread, not a metric
	// from the paper).
	Distinct  int     `csv:"distinct"`
	TotalMass float64 `csv:"total_mass"`
	// BuildTime is the one-off CDF construction (the block pass);
	// DrawTime covers the shots themselves.
	BuildTime time.Duration `csv:"build_seconds"`
	DrawTime  time.Duration `csv:"draw_seconds"`
	// ScanTime is the old path: materialize the full vector, then one
	// linear scan per shot.
	ScanTime time.Duration `csv:"scan_seconds"`
	Speedup  float64       `csv:"speedup"` // ScanTime / (BuildTime + DrawTime)
}

// samplingWorkloads are readout-heavy states: GHZ (two-point support,
// the sampler's best case) and QAOA (dense support, its worst case).
func samplingWorkloads(opt Options) []struct {
	name string
	cir  *quantum.Circuit
} {
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
		{fmt.Sprintf("GHZ-%dq", opt.Fig16Qubits), quantum.GHZ(opt.Fig16Qubits)},
		{fmt.Sprintf("QAOA-%dq", qaoaN), quantum.QAOA(qaoaN, 2, 2020)},
	}
}

// SamplingResults runs each workload once and draws opt.SampleShots
// outcomes through both readout paths. Both draws use identically
// seeded streams, so at these (lossless) scales the outcome sequences
// are bit-identical and the comparison isolates pure readout cost.
func SamplingResults(opt Options) ([]SamplingRow, error) {
	var rows []SamplingRow
	for _, wl := range samplingWorkloads(opt) {
		s, err := core.New(core.Config{
			Qubits:    wl.cir.N,
			Ranks:     1,
			BlockAmps: opt.BlockAmps,
			Workers:   opt.Workers,
			Seed:      7,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := s.Run(wl.cir); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}

		start := time.Now()
		sp, err := s.NewSampler(0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		build := time.Since(start)
		start = time.Now()
		shots, err := sp.Sample(rand.New(rand.NewSource(2019)), opt.SampleShots)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		draw := time.Since(start)

		// The engine's original readout path is the baseline: materialize
		// the vector, then one O(2^n) scan per raw (un-normalized) draw.
		start = time.Now()
		amps, err := s.FullState()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		ref := (&quantum.State{N: wl.cir.N, Amps: amps}).Sample(rand.New(rand.NewSource(2019)), opt.SampleShots)
		scan := time.Since(start)
		for i := range ref {
			if shots[i] != ref[i] {
				return nil, fmt.Errorf("%s: shot %d diverges (streaming %d, scan %d)", wl.name, i, shots[i], ref[i])
			}
		}

		distinct := make(map[uint64]struct{}, len(shots))
		for _, v := range shots {
			distinct[v] = struct{}{}
		}
		row := SamplingRow{
			Benchmark: wl.name,
			Qubits:    wl.cir.N,
			Shots:     opt.SampleShots,
			Distinct:  len(distinct),
			TotalMass: sp.TotalMass(),
			BuildTime: build,
			DrawTime:  draw,
			ScanTime:  scan,
		}
		if c := build + draw; c > 0 {
			row.Speedup = float64(scan) / float64(c)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runSampling(w io.Writer, opt Options) error {
	header(w, "Sampling: streaming compressed-domain sampler vs full-vector scan")
	rows, err := SamplingResults(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "benchmark\tqubits\tshots\tdistinct\ttotal mass\tbuild\tdraw\tfull scan\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.6f\t%v\t%v\t%v\t%.1fx\n",
			r.Benchmark, r.Qubits, r.Shots, r.Distinct, r.TotalMass,
			r.BuildTime.Round(time.Microsecond), r.DrawTime.Round(time.Microsecond),
			r.ScanTime.Round(time.Microsecond), r.Speedup)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(identical outcome sequences both paths; the streaming path never materializes the vector)")
	return nil
}
