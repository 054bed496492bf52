// Command qcbench regenerates the paper's tables and figures.
//
//	qcbench -exp all            # every experiment at the default scale
//	qcbench -exp table2         # one experiment
//	qcbench -exp fig10 -small   # CI-sized run
//	qcbench -list               # available experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"qcsim/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	small := flag.Bool("small", false, "run at the fast CI scale")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvDir := flag.String("csv", "", "export figure data as CSV files into this directory")
	jsonPath := flag.String("json", "", "write a machine-readable snapshot of the structured experiments (sweep, batch, sampling, crossover, spill) to this file")
	diffPath := flag.String("diff", "", "diff this run's snapshot against a committed baseline (e.g. BENCH_8.json) and exit 1 on tracked-row regressions")
	diffTol := flag.Float64("diff-tol", 0.20, "regression tolerance for -diff: fail on a move past this fraction in the harmful direction")
	workers := flag.Int("workers", 0, "worker goroutines per rank in simulator runs (0 = NumCPU/ranks)")
	sweeps := flag.Bool("sweeps", true, "use the sweep scheduler in simulator runs (off reproduces the paper's one-pass-per-gate cost model)")
	backendName := flag.String("backend", "", "restrict the crossover experiment to one engine: mps|compressed (default: both)")
	bondDim := flag.Int("bond-dim", 0, "MPS bond-dimension cap χ for the crossover experiment (0 = the scale's default)")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	opt := bench.Default()
	if *small {
		opt = bench.Small()
	}
	opt.Workers = *workers
	opt.DisableSweeps = !*sweeps
	opt.Backend = *backendName
	if *bondDim > 0 {
		opt.BondDim = *bondDim
	}
	if *csvDir != "" {
		if err := bench.ExportCSV(*csvDir, opt); err != nil {
			fmt.Fprintf(os.Stderr, "qcbench: csv export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("CSV data written to %s\n", *csvDir)
		return
	}
	if *jsonPath != "" || *diffPath != "" {
		snap, err := bench.BuildSnapshot(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qcbench: json snapshot: %v\n", err)
			os.Exit(1)
		}
		if *jsonPath != "" {
			if err := bench.WriteSnapshotFile(*jsonPath, snap); err != nil {
				fmt.Fprintf(os.Stderr, "qcbench: json snapshot: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("JSON snapshot written to %s\n", *jsonPath)
		}
		if *diffPath != "" {
			old, err := bench.ReadSnapshot(*diffPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qcbench: diff baseline: %v\n", err)
				os.Exit(1)
			}
			regs, err := bench.DiffSnapshots(old, snap, *diffTol)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qcbench: diff: %v\n", err)
				os.Exit(1)
			}
			if len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "qcbench: %d tracked-row regression(s) vs %s:\n", len(regs), *diffPath)
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "  %s\n", r)
				}
				os.Exit(1)
			}
			fmt.Printf("no tracked-row regressions vs %s (tolerance %.0f%%)\n", *diffPath, *diffTol*100)
		}
		return
	}
	run := func(e bench.Experiment) {
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "qcbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "qcbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
