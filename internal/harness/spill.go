package harness

import (
	"fmt"
	"io"
	"os"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/quantum"
	"qcsim/internal/stats"
)

// SpillRow is one workload of the out-of-core experiment: the same
// circuit run against a memory budget a fraction of its lossless
// compressed footprint, once without the spill tier (the §3.7 ladder
// escalates and still ends over budget) and once with it (the run
// completes lossless with the resident set — the RSS proxy — held
// under the budget and the overflow on disk).
type SpillRow struct {
	Benchmark string `csv:"benchmark"`
	Qubits    int    `csv:"qubits"`
	Gates     int    `csv:"gates"`

	// Footprint is the lossless compressed footprint of the final
	// state (the dry run); Budget is the resident cap both runs press
	// against.
	Footprint int64 `csv:"footprint_bytes"`
	Budget    int64 `csv:"budget_bytes"`

	// Control run (no spill): where the escalation ladder ended.
	ControlOverBudget bool          `csv:"control_over_budget"`
	ControlFinalLevel int           `csv:"control_final_level"`
	ControlElapsed    time.Duration `csv:"control_seconds"`

	// Spill run.
	MaxResident     int64         `csv:"max_resident_bytes"` // resident high-water: the RSS proxy
	SpilledBytes    int64         `csv:"spilled_bytes"`      // on disk at the end of the run
	SpillWrites     int64         `csv:"spill_writes"`
	SpillReads      int64         `csv:"spill_reads"`   // demand (synchronous) reads
	PrefetchHits    int64         `csv:"prefetch_hits"` // reads the prefetcher absorbed
	HitRate         float64       `csv:"hit_rate"`      // fraction of disk reads the prefetcher absorbed
	SpillElapsed    time.Duration `csv:"spill_seconds"`
	SpillOverBudget bool          `csv:"spill_over_budget"`
	SpillFinalLevel int           `csv:"spill_final_level"`
}

// spillWorkloads: QFT spreads mass across every block (no block is
// cold), making it the spill tier's worst case; the random circuit is
// the generic dense workload.
func spillWorkloads(opt Options) []struct {
	name string
	cir  *quantum.Circuit
} {
	return []struct {
		name string
		cir  *quantum.Circuit
	}{
		{fmt.Sprintf("QFT-%dq", opt.QFTQubits), quantum.QFT(opt.QFTQubits, 2019)},
		{fmt.Sprintf("Random-%dq", opt.QFTQubits), quantum.RandomCircuit(opt.QFTQubits, 8*opt.QFTQubits, 2019)},
	}
}

// SpillResults runs each workload three times: a dry run to measure
// the lossless footprint, a no-spill control under a quarter of it,
// and a spill run under the same budget.
func SpillResults(opt Options) ([]SpillRow, error) {
	var rows []SpillRow
	for _, wl := range spillWorkloads(opt) {
		mk := func(extra func(*core.Config)) (*core.Simulator, error) {
			cfg := core.Config{
				Qubits:    wl.cir.N,
				Ranks:     1,
				BlockAmps: opt.BlockAmps,
				Workers:   opt.Workers,
				Seed:      7,
				// Near-lossless ladder: escalation cannot shrink the
				// state under the budget, so the control's only way out
				// is over budget and the spill run's only way out is
				// through the disk.
				ErrorLevels: []float64{1e-7},
			}
			if extra != nil {
				extra(&cfg)
			}
			return core.New(cfg)
		}
		dry, err := mk(nil)
		if err != nil {
			return nil, fmt.Errorf("%s dry: %w", wl.name, err)
		}
		if err := dry.Run(wl.cir); err != nil {
			return nil, fmt.Errorf("%s dry: %w", wl.name, err)
		}
		footprint := dry.CompressedFootprint()
		budget := footprint / 4
		dry.Close()

		ctl, err := mk(func(c *core.Config) { c.MemoryBudget = budget })
		if err != nil {
			return nil, fmt.Errorf("%s control: %w", wl.name, err)
		}
		start := time.Now()
		if err := ctl.Run(wl.cir); err != nil {
			return nil, fmt.Errorf("%s control: %w", wl.name, err)
		}
		ctlElapsed := time.Since(start)
		ctlStats := ctl.Stats()
		ctlOver := ctl.OverBudget()
		ctl.Close()

		dir, err := os.MkdirTemp("", "qcsim-spill-exp-")
		if err != nil {
			return nil, err
		}
		sp, err := mk(func(c *core.Config) {
			c.MemoryBudget = budget
			c.SpillDir = dir
			c.SpillRAMBudget = budget
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("%s spill: %w", wl.name, err)
		}
		start = time.Now()
		runErr := sp.Run(wl.cir)
		spElapsed := time.Since(start)
		st := sp.Stats()
		spOver := sp.OverBudget()
		sp.Close()
		os.RemoveAll(dir)
		if runErr != nil {
			return nil, fmt.Errorf("%s spill: %w", wl.name, runErr)
		}

		row := SpillRow{
			Benchmark:         wl.name,
			Qubits:            wl.cir.N,
			Gates:             len(wl.cir.Gates),
			Footprint:         footprint,
			Budget:            budget,
			ControlOverBudget: ctlOver,
			ControlFinalLevel: ctlStats.FinalLevel,
			ControlElapsed:    ctlElapsed,
			MaxResident:       st.MaxResident,
			SpilledBytes:      st.SpilledBytes,
			SpillWrites:       st.SpillWrites,
			SpillReads:        st.SpillReads,
			PrefetchHits:      st.PrefetchHits,
			SpillElapsed:      spElapsed,
			SpillOverBudget:   spOver,
			SpillFinalLevel:   st.FinalLevel,
		}
		if total := st.PrefetchHits + st.SpillReads; total > 0 {
			row.HitRate = float64(st.PrefetchHits) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runSpill(w io.Writer, opt Options) error {
	header(w, "Spill tier: out-of-core states under a resident-memory budget")
	rows, err := SpillResults(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "benchmark\tqubits\tfootprint\tbudget\tcontrol\tspill run\tresident max\ton disk\twrites\tdemand reads\tprefetch hits\thit rate\ttime ctl\ttime spill")
	for _, r := range rows {
		ctl := fmt.Sprintf("level %d", r.ControlFinalLevel)
		if r.ControlOverBudget {
			ctl = "OVER BUDGET"
		}
		spr := fmt.Sprintf("level %d", r.SpillFinalLevel)
		if r.SpillOverBudget {
			spr = "OVER BUDGET"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%.0f%%\t%v\t%v\n",
			r.Benchmark, r.Qubits,
			stats.FormatBytes(float64(r.Footprint)), stats.FormatBytes(float64(r.Budget)),
			ctl, spr,
			stats.FormatBytes(float64(r.MaxResident)), stats.FormatBytes(float64(r.SpilledBytes)),
			r.SpillWrites, r.SpillReads, r.PrefetchHits, 100*r.HitRate,
			r.ControlElapsed.Round(time.Millisecond), r.SpillElapsed.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(the control escalates the §3.7 ladder and still ends over budget; the spill run completes lossless with the resident set capped)")
	return nil
}
