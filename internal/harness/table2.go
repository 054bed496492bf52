package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/quantum"
	"qcsim/internal/stats"
)

// Table2Row is one benchmark column of the paper's Table 2.
type Table2Row struct {
	Benchmark   string  `csv:"benchmark"`
	Qubits      int     `csv:"qubits"`
	Gates       int     `csv:"gates"`
	Ranks       int     `csv:"ranks"`
	MemRequired float64 `csv:"mem_required_bytes"` // uncompressed state bytes
	MemBudget   int64   `csv:"mem_budget_bytes"`   // total budget across ranks (0 = unlimited)

	TotalTime     time.Duration `csv:"total_seconds"`
	CompressPct   float64       `csv:"compress_pct"`
	DecompressPct float64       `csv:"decompress_pct"`
	CommPct       float64       `csv:"comm_pct"`
	ComputePct    float64       `csv:"compute_pct"`
	TimePerGate   time.Duration `csv:"-"`

	Fidelity    float64 `csv:"fidelity"`             // measured vs dense reference (test scales)
	FidelityLow float64 `csv:"fidelity_lower_bound"` // ledger lower bound (Eq. 11)
	MinRatio    float64 `csv:"min_ratio"`            // Table 2's last row
	FinalLevel  int     `csv:"-"`
	Escalations int     `csv:"-"`
}

// table2Workloads builds the scaled Table 2 benchmark set.
func table2Workloads(opt Options) []struct {
	name   string
	cir    *quantum.Circuit
	budget float64 // fraction of uncompressed requirement per run; 0 = default
} {
	var ws []struct {
		name   string
		cir    *quantum.Circuit
		budget float64
	}
	add := func(name string, cir *quantum.Circuit, budget float64) {
		ws = append(ws, struct {
			name   string
			cir    *quantum.Circuit
			budget float64
		}{name, cir, budget})
	}
	// Grover: the paper runs it at 0.002%-1.17% of the requirement —
	// its state is extremely compressible. We give it 10% to leave the
	// lossless stage room, and it typically never needs lossy.
	add(fmt.Sprintf("Grover-%dq", quantum.GroverQubits(opt.GroverSearch)),
		quantum.Grover(opt.GroverSearch, 0x2D>>uint(max(0, 6-opt.GroverSearch)), 1), 0.10)
	for _, grid := range opt.SupremacyGrids {
		add(fmt.Sprintf("RCS-%dx%d", grid[0], grid[1]),
			quantum.Supremacy(grid[0], grid[1], opt.SupremacyDepth, 2019), 0.375)
	}
	for _, n := range opt.QAOAQubits {
		add(fmt.Sprintf("QAOA-%dq", n), quantum.QAOA(n, 2, 2020), 0.375)
	}
	add(fmt.Sprintf("QFT-%dq", opt.QFTQubits), quantum.QFT(opt.QFTQubits, 2021), 0.1875)
	return ws
}

// Table2Results runs every benchmark under its memory budget.
func Table2Results(opt Options) ([]Table2Row, error) {
	var rows []Table2Row
	for _, wl := range table2Workloads(opt) {
		row, err := runTable2Benchmark(wl.name, wl.cir, wl.budget, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runTable2Benchmark(name string, cir *quantum.Circuit, budgetFrac float64, opt Options) (Table2Row, error) {
	ranks := opt.Table2Ranks
	for 1<<uint(cir.N-1) < ranks*opt.BlockAmps && ranks > 1 {
		ranks /= 2
	}
	req := core.MemoryRequirement(cir.N)
	var perRank int64
	if budgetFrac > 0 {
		perRank = int64(req * budgetFrac / float64(ranks))
	}
	s, err := core.New(core.Config{
		Qubits:        cir.N,
		Ranks:         ranks,
		BlockAmps:     opt.BlockAmps,
		MemoryBudget:  perRank,
		CacheLines:    64,
		Workers:       opt.Workers,
		Seed:          7,
		DisableSweeps: opt.DisableSweeps,
	})
	if err != nil {
		return Table2Row{}, err
	}
	start := time.Now()
	if err := s.Run(cir); err != nil {
		return Table2Row{}, err
	}
	elapsed := time.Since(start)

	st := s.Stats()
	tot := st.TotalTime().Seconds()
	if tot == 0 {
		tot = 1
	}
	row := Table2Row{
		Benchmark:     name,
		Qubits:        cir.N,
		Gates:         len(cir.Gates),
		Ranks:         ranks,
		MemRequired:   req,
		MemBudget:     perRank * int64(ranks),
		TotalTime:     elapsed,
		CompressPct:   100 * st.CompressTime.Seconds() / tot,
		DecompressPct: 100 * st.DecompressTime.Seconds() / tot,
		CommPct:       100 * st.CommTime.Seconds() / tot,
		ComputePct:    100 * st.ComputeTime.Seconds() / tot,
		TimePerGate:   elapsed / time.Duration(len(cir.Gates)),
		FidelityLow:   s.FidelityLowerBound(),
		MinRatio:      st.MinCompressionRatio(req),
		FinalLevel:    st.FinalLevel,
		Escalations:   st.Escalations,
	}
	// Measured fidelity against the dense reference at test scales.
	if cir.N <= 20 {
		ref := quantum.NewState(cir.N)
		ref.ApplyCircuit(cir)
		got, err := s.FullState()
		if err != nil {
			return Table2Row{}, err
		}
		f := quantum.FidelityVec(ref.Amps, got)
		n, err := s.Norm()
		if err != nil {
			return Table2Row{}, err
		}
		if n > 0 {
			f /= math.Sqrt(n)
		}
		row.Fidelity = f
	}
	return row, nil
}

func runTable2(w io.Writer, opt Options) error {
	header(w, "Table 2: benchmark results (scaled; see DESIGN.md substitutions)")
	rows, err := Table2Results(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "benchmark\tqubits\tgates\tranks\tmem req\tbudget\ttotal time\tcompr%\tdecompr%\tcomm%\tcompute%\tt/gate\tfidelity\tledger\tmin ratio")
	for _, r := range rows {
		budget := "unbounded"
		if r.MemBudget > 0 {
			budget = stats.FormatBytes(float64(r.MemBudget))
		}
		fid := "n/a"
		if r.Fidelity > 0 {
			fid = fmt.Sprintf("%.3f", r.Fidelity)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\t%v\t%.1f\t%.1f\t%.1f\t%.1f\t%v\t%s\t%.3f\t%.2f\n",
			r.Benchmark, r.Qubits, r.Gates, r.Ranks,
			stats.FormatBytes(r.MemRequired), budget,
			r.TotalTime.Round(time.Millisecond),
			r.CompressPct, r.DecompressPct, r.CommPct, r.ComputePct,
			r.TimePerGate.Round(time.Microsecond),
			fid, r.FidelityLow, r.MinRatio)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nShape targets (paper): Grover compresses orders of magnitude better than the")
	fmt.Fprintln(w, "rest; supremacy circuits compress worst; QFT in between; fidelity stays high.")
	return nil
}
