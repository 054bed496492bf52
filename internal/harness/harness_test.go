package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAllExperimentsRunSmall(t *testing.T) {
	opt := Small()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, opt); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("table2"); !ok {
		t.Fatal("table2 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	if len(IDs()) != len(Experiments()) {
		t.Fatal("IDs() incomplete")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1Rows()
	want := map[string]int{"Summit": 47, "Sierra": 46, "Sunway TaihuLight": 46, "Theta": 45}
	for _, r := range rows {
		if want[r.System] != r.MaxQubits {
			t.Errorf("%s: max qubits %d, paper says %d", r.System, r.MaxQubits, want[r.System])
		}
	}
}

// ratioOf finds a measurement in a result set.
func ratioOf(rs []RatioResult, dataset, codec string, bound float64) (float64, bool) {
	for _, r := range rs {
		if r.Dataset == dataset && r.Codec == codec && r.Bound == bound {
			return r.Ratio, true
		}
	}
	return 0, false
}

func TestFig7Shape_SZBeatsZFP(t *testing.T) {
	// Paper Fig. 7: SZ leads ZFP by a wide margin at every bound.
	opt := Small()
	rs, err := Fig7Results(opt)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	total := 0
	for _, ds := range []string{"qaoa_11", "sup_11"} {
		for _, b := range paperBounds {
			sz, ok1 := ratioOf(rs, ds, "sz-a", b)
			zfp, ok2 := ratioOf(rs, ds, "zfp-like", b)
			if !ok1 || !ok2 {
				t.Fatalf("missing measurements for %s bound %g", ds, b)
			}
			total++
			if sz > zfp {
				wins++
			}
		}
	}
	if wins < total*8/10 {
		t.Fatalf("SZ beat ZFP in only %d/%d settings", wins, total)
	}
}

func TestFig8Shape_SZLeads(t *testing.T) {
	opt := Small()
	rs, err := Fig8Results(opt)
	if err != nil {
		t.Fatal(err)
	}
	// SZ should lead ZFP at the loose-to-moderate bounds where the
	// prediction model has headroom (at 1e-4/1e-5 on our laptop-scale
	// snapshots the log-quantizer saturates into literals — see
	// EXPERIMENTS.md).
	wins, total := 0, 0
	for _, ds := range []string{"qaoa_11", "sup_11"} {
		for _, b := range []float64{1e-1, 1e-2, 1e-3} {
			sz, ok := ratioOf(rs, ds, "sz-a", b)
			if !ok {
				t.Fatalf("missing sz for %s %g", ds, b)
			}
			zfp, _ := ratioOf(rs, ds, "zfp-like", b)
			total++
			if sz > zfp*0.95 {
				wins++
			}
		}
	}
	if wins < total*5/6 {
		t.Fatalf("SZ led ZFP in only %d/%d loose-bound settings", wins, total)
	}
	// FPZIP must trail SZ overall (paper Fig. 8).
	var szSum, fpSum float64
	for _, b := range paperBounds {
		sz, _ := ratioOf(rs, "qaoa_11", "sz-a", b)
		fp, _ := ratioOf(rs, "qaoa_11", "fpzip-like", b)
		szSum += sz
		fpSum += fp
	}
	if szSum <= fpSum {
		t.Fatalf("FPZIP (%.1f total) should trail SZ (%.1f total)", fpSum, szSum)
	}
}

func TestFig10Shape_SolutionCDCompetitive(t *testing.T) {
	// Paper Fig. 10: Solutions C/D lead A/B by ~30-50% on quantum data.
	opt := Small()
	rs, err := Fig10Results(opt)
	if err != nil {
		t.Fatal(err)
	}
	cWins, total := 0, 0
	for _, ds := range []string{"qaoa_11", "sup_11"} {
		for _, b := range paperBounds {
			a, _ := ratioOf(rs, ds, "sz-a", b)
			c, _ := ratioOf(rs, ds, "xor-c", b)
			if a == 0 || c == 0 {
				t.Fatalf("missing ratios for %s %g", ds, b)
			}
			total++
			if c > a*0.9 { // C at least competitive, usually ahead
				cWins++
			}
		}
	}
	if cWins < total*7/10 {
		t.Fatalf("Solution C competitive in only %d/%d settings", cWins, total)
	}
}

func TestFig11Shape_CFasterThanA(t *testing.T) {
	// Paper Fig. 11: Solutions C/D run much faster than A/B (they skip
	// prediction, quantization, and Huffman).
	opt := Small()
	rs, err := Fig11Results(opt)
	if err != nil {
		t.Fatal(err)
	}
	var aC, aA, dC, dA float64
	var nC, nA int
	for _, r := range rs {
		switch r.Codec {
		case "xor-c":
			aC += r.CompressMB
			dC += r.DecompMB
			nC++
		case "sz-a":
			aA += r.CompressMB
			dA += r.DecompMB
			nA++
		}
	}
	if nC == 0 || nA == 0 {
		t.Fatal("missing solutions in rate results")
	}
	if aC/float64(nC) <= aA/float64(nA) {
		t.Fatalf("Solution C compression (%.1f MB/s) not faster than A (%.1f MB/s)",
			aC/float64(nC), aA/float64(nA))
	}
}

func TestFig12Shape_BoundsRespected(t *testing.T) {
	opt := Small()
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		for _, codec := range Solutions() {
			for _, b := range paperBounds {
				maxes, err := BlockErrors(snap.Data, codec, b, opt.SnapshotBlock)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := range maxes {
					if m > b*(1+1e-9) {
						t.Fatalf("%s %s bound %g: block %d max error %g", snap.Name, codec.Name(), b, i, m)
					}
				}
			}
		}
	}
}

func TestFig14Shape_UncorrelatedAndOverPreserved(t *testing.T) {
	opt := Small()
	rs, err := Fig14Results(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	for _, r := range rs {
		if math.Abs(r.AutoCorr) > 0.05 {
			t.Errorf("%s bound %g: lag-1 autocorrelation %g too large", r.Dataset, r.Bound, r.AutoCorr)
		}
		if r.MeanFrac > 0.75 {
			t.Errorf("%s bound %g: mean error %.2f of bound — no over-preservation", r.Dataset, r.Bound, r.MeanFrac)
		}
	}
}

// TestFig15Shape_WorkGrowsWithQubits: Fig. 15's curve rises because
// every added qubit doubles the blocks a Hadamard layer passes through
// the codec. The rows' codec-call counts pin that; their millisecond
// wall clocks, which the test used to compare, do not repeat.
func TestFig15Shape_WorkGrowsWithQubits(t *testing.T) {
	opt := Small()
	rs, err := Fig15Results(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 2 {
		t.Fatal("too few points")
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].CodecCalls < 2*rs[i-1].CodecCalls {
			t.Fatalf("%d → %d qubits: codec calls %d → %d, want at least doubled", rs[i-1].Qubits, rs[i].Qubits, rs[i-1].CodecCalls, rs[i].CodecCalls)
		}
	}
}

func TestWorkerScalingShape(t *testing.T) {
	opt := Small()
	rs, err := WorkerScalingResults(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for w := 1; w <= opt.MaxWorkers; w *= 2 {
		want++
	}
	if len(rs) != want {
		t.Fatalf("got %d points, want %d", len(rs), want)
	}
	for i, r := range rs {
		if r.Workers != 1<<uint(i) {
			t.Fatalf("point %d has workers=%d", i, r.Workers)
		}
		if r.Elapsed <= 0 || r.Speedup <= 0 {
			t.Fatalf("point %d not measured: %+v", i, r)
		}
	}
}

// atLeastPinned fails when a codec-call reduction falls more than 20 %
// below the value recorded at Small(). The reductions are deterministic
// counters, so a drop means the engine shares or batches less work; a
// rise is an improvement and passes.
func atLeastPinned(t *testing.T, row string, got, pinned float64) {
	t.Helper()
	if got < 0.8*pinned {
		t.Errorf("%s: reduction %.4g fell more than 20%% below the pinned %.4g", row, got, pinned)
	}
}

// TestSweepShape: the sweep experiment must show a real codec-traffic
// reduction on both workloads, at least 80 % of the reduction recorded
// for each row at Small().
func TestSweepShape(t *testing.T) {
	opt := Small()
	rows, err := SweepResults(opt)
	if err != nil {
		t.Fatal(err)
	}
	pins := []struct {
		name      string
		reduction float64
	}{{"Grover-7q", 282.0 / 2}, {"QAOA-10q", 2368.0 / 400}}
	if len(rows) != len(pins) {
		t.Fatalf("expected Grover and QAOA rows, got %v", rows)
	}
	for i, r := range rows {
		if r.Benchmark != pins[i].name {
			t.Fatalf("row %d is %s, want %s", i, r.Benchmark, pins[i].name)
		}
		atLeastPinned(t, r.Benchmark, r.Reduction, pins[i].reduction)
		if r.CodecCallsOn >= r.CodecCallsOff {
			t.Errorf("%s: sweeps did not reduce codec calls (%d -> %d)", r.Benchmark, r.CodecCallsOff, r.CodecCallsOn)
		}
		if r.Sweeps == 0 || r.SweepGates < r.Sweeps || r.PassesSaved == 0 {
			t.Errorf("%s: implausible sweep counters: %+v", r.Benchmark, r)
		}
	}
}

// TestBatchShape: the K-variant parameter-shift batch must issue fewer
// run-phase codec calls per variant than K sequential runs, at least
// 80 % of the reduction recorded for each row at Small(), with the
// recorded batch width. The counters do not depend on the worker count,
// so one and two workers must agree on every one of them.
func TestBatchShape(t *testing.T) {
	pins := []struct {
		name      string
		variants  int
		reduction float64
	}{{"QAOA-10q", 9, 2016.0 / 496}, {"VQE-10q", 9, 1224.0 / 444}}
	var byWorkers [][]BatchRow
	for _, workers := range []int{1, 2} {
		opt := Small()
		opt.Workers = workers
		rows, err := BatchResults(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(pins) {
			t.Fatalf("expected QAOA and VQE rows, got %v", rows)
		}
		for i, r := range rows {
			if r.Benchmark != pins[i].name || r.Variants != pins[i].variants {
				t.Fatalf("workers=%d row %d is %s with %d variants, want %s with %d",
					workers, i, r.Benchmark, r.Variants, pins[i].name, pins[i].variants)
			}
			atLeastPinned(t, fmt.Sprintf("%s workers=%d", r.Benchmark, workers), r.Reduction, pins[i].reduction)
		}
		byWorkers = append(byWorkers, rows)
	}
	for i, one := range byWorkers[0] {
		two := byWorkers[1][i]
		if one.CodecCallsSolo != two.CodecCallsSolo || one.CodecCallsBatch != two.CodecCallsBatch ||
			one.PassesShared != two.PassesShared {
			t.Errorf("%s: counters depend on the worker count: solo/batch/shared %d/%d/%d at 1, %d/%d/%d at 2",
				one.Benchmark, one.CodecCallsSolo, one.CodecCallsBatch, one.PassesShared,
				two.CodecCallsSolo, two.CodecCallsBatch, two.PassesShared)
		}
	}
	for _, r := range byWorkers[0] {
		if r.CodecCallsBatch >= r.CodecCallsSolo {
			t.Errorf("%s: batching did not reduce codec calls (%d -> %d)",
				r.Benchmark, r.CodecCallsSolo, r.CodecCallsBatch)
		}
		if r.PassesShared == 0 {
			t.Errorf("%s: no codec passes shared: %+v", r.Benchmark, r)
		}
		if r.PerVariantBatch >= r.PerVariantSolo {
			t.Errorf("%s: per-variant codec cost did not drop: %+v", r.Benchmark, r)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	opt := Small()
	rows, err := Table2Results(opt)
	if err != nil {
		t.Fatal(err)
	}
	byPrefix := func(p string) *Table2Row {
		for i := range rows {
			if strings.HasPrefix(rows[i].Benchmark, p) {
				return &rows[i]
			}
		}
		return nil
	}
	grover := byPrefix("Grover")
	rcs := byPrefix("RCS")
	qft := byPrefix("QFT")
	if grover == nil || rcs == nil || qft == nil {
		t.Fatalf("missing benchmarks in %v", rows)
	}
	// Paper's headline shape: Grover ≫ QFT > supremacy in
	// compressibility.
	if grover.MinRatio <= rcs.MinRatio {
		t.Errorf("Grover min ratio %.2f not above supremacy %.2f", grover.MinRatio, rcs.MinRatio)
	}
	if qft.MinRatio <= 0 || grover.MinRatio <= 0 {
		t.Errorf("ratios not positive: %+v", rows)
	}
	// Fidelity: every row must stay within [ledger, 1].
	for _, r := range rows {
		if r.Fidelity == 0 {
			continue
		}
		if r.Fidelity < r.FidelityLow-1e-9 {
			t.Errorf("%s: fidelity %.4f below ledger %.4f", r.Benchmark, r.Fidelity, r.FidelityLow)
		}
		if r.Fidelity > 1+1e-9 {
			t.Errorf("%s: fidelity %.4f above 1", r.Benchmark, r.Fidelity)
		}
		if r.Fidelity < 0.85 {
			t.Errorf("%s: fidelity %.4f below the paper's regime", r.Benchmark, r.Fidelity)
		}
	}
	// Time breakdown percentages sum to ~100.
	for _, r := range rows {
		sum := r.CompressPct + r.DecompressPct + r.CommPct + r.ComputePct
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: breakdown sums to %.1f%%", r.Benchmark, sum)
		}
	}
}

func TestGridFor(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 12: {3, 4}, 11: {1, 11}, 9: {3, 3}}
	for n, want := range cases {
		r, c := gridFor(n)
		if r != want[0] || c != want[1] {
			t.Errorf("gridFor(%d) = %d,%d", n, r, c)
		}
	}
}

// TestExportCSV: every file the export writes, with its header line and
// at least one row.
func TestExportCSV(t *testing.T) {
	dir := t.TempDir()
	if err := ExportCSV(dir, Small()); err != nil {
		t.Fatal(err)
	}
	headers := map[string]string{
		"fig7_abs_ratio.csv":        "dataset,codec,bound,ratio",
		"fig8_rel_ratio.csv":        "dataset,codec,bound,ratio",
		"fig10_solutions_ratio.csv": "dataset,codec,bound,ratio",
		"fig11_rates.csv":           "dataset,codec,bound,compress_mb_s,decompress_mb_s",
		"table2.csv": "benchmark,qubits,gates,ranks,mem_required_bytes,mem_budget_bytes,total_seconds," +
			"compress_pct,decompress_pct,comm_pct,compute_pct,fidelity,fidelity_lower_bound,min_ratio",
		"fig16_strong_scaling.csv":  "ranks,elapsed_seconds,speedup",
		"fig16w_worker_scaling.csv": "workers,elapsed_seconds,speedup",
		"sweep_codec_reduction.csv": "benchmark,qubits,gates,codec_calls_off,codec_calls_on,reduction," +
			"sweeps,sweep_gates,passes_saved,elapsed_off_seconds,elapsed_on_seconds",
		"batch.csv": "benchmark,qubits,gates,variants,codec_calls_solo,codec_calls_batch,per_variant_solo," +
			"per_variant_batch,reduction,passes_shared,elapsed_solo_seconds,elapsed_batch_seconds",
		"sampling.csv": "benchmark,qubits,shots,distinct,total_mass,build_seconds,draw_seconds,scan_seconds,speedup",
		"spill.csv": "benchmark,qubits,gates,footprint_bytes,budget_bytes,control_over_budget," +
			"control_final_level,control_seconds,max_resident_bytes,spilled_bytes,spill_writes,spill_reads," +
			"prefetch_hits,hit_rate,spill_seconds,spill_over_budget,spill_final_level",
		"crossover.csv": "depth,qubits,gates,est_bond,auto_picks,mps_seconds,mps_bytes,mps_fidelity," +
			"mps_max_bond,compressed_seconds,compressed_bytes,compressed_fidelity,winner",
		"fig6_fidelity_bounds.csv": "gates,bound,fidelity_lower_bound",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(headers) {
		t.Errorf("export wrote %d files, want %d", len(entries), len(headers))
	}
	for f, header := range headers {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if lines[0] != header {
			t.Errorf("%s header:\n got %s\nwant %s", f, lines[0], header)
		}
		if len(lines) < 2 {
			t.Errorf("%s has no rows", f)
		}
	}
}

// TestWriteCSVBytes: one fixed row of each row type, with fixed
// durations, must produce the bytes the hand-written per-type writers
// that writeCSV replaced produced for the same row; the Fig. 6 curves
// must match theirs in full (101 lines, by SHA-256).
func TestWriteCSVBytes(t *testing.T) {
	cases := []struct {
		name string
		rows any
		want string
	}{
		{"ratio", []RatioResult{{Dataset: "qaoa_11", Codec: "sz-a", Bound: 1e-5, Ratio: 3.75}},
			"dataset,codec,bound,ratio\nqaoa_11,sz-a,1e-05,3.75\n"},
		{"rate", []RateResult{{Dataset: "sup, 11", Codec: "xor-c", Bound: 0.1, CompressMB: 123.456, DecompMB: 1e9 / 3}},
			"dataset,codec,bound,compress_mb_s,decompress_mb_s\n\"sup, 11\",xor-c,0.1,123.456,3.333333333333333e+08\n"},
		{"table2", []Table2Row{{Benchmark: "QFT-10q", Qubits: 10, Gates: 73, Ranks: 2,
			MemRequired: 16384, MemBudget: 3072, TotalTime: 1234567 * time.Microsecond,
			CompressPct: 12.5, DecompressPct: 30.25, CommPct: 0, ComputePct: 57.25,
			TimePerGate: 17 * time.Microsecond, Fidelity: 0.9999, FidelityLow: 0.99, MinRatio: 4.2,
			FinalLevel: 2, Escalations: 3}},
			"benchmark,qubits,gates,ranks,mem_required_bytes,mem_budget_bytes,total_seconds,compress_pct,decompress_pct,comm_pct,compute_pct,fidelity,fidelity_lower_bound,min_ratio\n" +
				"QFT-10q,10,73,2,16384,3072,1.234567,12.5,30.25,0,57.25,0.9999,0.99,4.2\n"},
		{"fig16", []Fig16Point{{Ranks: 4, Elapsed: 250 * time.Millisecond, Speedup: 2.5}},
			"ranks,elapsed_seconds,speedup\n4,0.25,2.5\n"},
		{"fig16w", []WorkerScalingPoint{{Workers: 2, Elapsed: 1500 * time.Microsecond, Speedup: 1.75}},
			"workers,elapsed_seconds,speedup\n2,0.0015,1.75\n"},
		{"sweep", []SweepRow{{Benchmark: "Grover-7q", Qubits: 7, Gates: 141,
			CodecCallsOff: 282, CodecCallsOn: 2, Reduction: 141, Sweeps: 1, SweepGates: 141,
			PassesSaved: 140, ElapsedOff: 3653485, ElapsedOn: 193201}},
			"benchmark,qubits,gates,codec_calls_off,codec_calls_on,reduction,sweeps,sweep_gates,passes_saved,elapsed_off_seconds,elapsed_on_seconds\n" +
				"Grover-7q,7,141,282,2,141,1,141,140,0.003653485,0.000193201\n"},
		{"batch", []BatchRow{{Benchmark: "QAOA-10q", Qubits: 10, Gates: 80, Variants: 9,
			CodecCallsSolo: 2016, CodecCallsBatch: 496, PerVariantSolo: 224,
			PerVariantBatch: 55.111111111111114, Reduction: 4.064516129032258, PassesShared: 760,
			ElapsedSolo: 56809843, ElapsedBatch: 18103129}},
			"benchmark,qubits,gates,variants,codec_calls_solo,codec_calls_batch,per_variant_solo,per_variant_batch,reduction,passes_shared,elapsed_solo_seconds,elapsed_batch_seconds\n" +
				"QAOA-10q,10,80,9,2016,496,224,55.111111111111114,4.064516129032258,760,0.056809843,0.018103129\n"},
		{"sampling", []SamplingRow{{Benchmark: "GHZ-11q", Qubits: 11, Shots: 256,
			Distinct: 2, TotalMass: 1.0000000000000002, BuildTime: 45429, DrawTime: 48293,
			ScanTime: 250915, Speedup: 2.6772262649111203}},
			"benchmark,qubits,shots,distinct,total_mass,build_seconds,draw_seconds,scan_seconds,speedup\n" +
				"GHZ-11q,11,256,2,1.0000000000000002,4.5429e-05,4.8293e-05,0.000250915,2.6772262649111203\n"},
		{"spill", []SpillRow{{Benchmark: "QFT-10q", Qubits: 10, Gates: 73,
			Footprint: 16512, Budget: 4128, ControlOverBudget: true, ControlFinalLevel: 1,
			ControlElapsed: 8407789, MaxResident: 4128, SpilledBytes: 12384, SpillWrites: 31,
			SpillReads: 13, PrefetchHits: 5, HitRate: 0.2777777777777778, SpillElapsed: 3613193,
			SpillOverBudget: false, SpillFinalLevel: 0}},
			"benchmark,qubits,gates,footprint_bytes,budget_bytes,control_over_budget,control_final_level,control_seconds,max_resident_bytes,spilled_bytes,spill_writes,spill_reads,prefetch_hits,hit_rate,spill_seconds,spill_over_budget,spill_final_level\n" +
				"QFT-10q,10,73,16512,4128,true,1,0.008407789,4128,12384,31,13,5,0.2777777777777778,0.003613193,false,0\n"},
		{"crossover", []CrossoverRow{{Depth: 6, Qubits: 10, Gates: 87, EstBond: 8,
			Auto: "mps", MPSTime: 879716, MPSMem: 10880, MPSFidelity: 1, MPSMaxBond: 8,
			CompTime: 22808116, CompMem: 9400, CompFidelity: 0.5, TimeWinner: "compressed (fidelity)"}},
			"depth,qubits,gates,est_bond,auto_picks,mps_seconds,mps_bytes,mps_fidelity,mps_max_bond,compressed_seconds,compressed_bytes,compressed_fidelity,winner\n" +
				"6,10,87,8,mps,0.000879716,10880,1,8,0.022808116,9400,0.5,compressed (fidelity)\n"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := writeCSV(&buf, c.rows); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if buf.String() != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, buf.String(), c.want)
		}
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, fig6Rows()); err != nil {
		t.Fatal(err)
	}
	const fig6SHA = "a8b9ab29f4a35c01f0c31ba91840501bbecba770bcbc8efec9e3297c7b022ba8"
	if lines, sum := bytes.Count(buf.Bytes(), []byte("\n")), fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); lines != 101 || sum != fig6SHA {
		t.Errorf("fig6 curves: %d lines, sha256 %s; want 101 lines, %s", lines, sum, fig6SHA)
	}
}

// TestSpillShape: under a resident budget a quarter of the lossless
// footprint, the control run escalates and still ends over budget, and
// the spill run completes lossless (level 0) within it.
func TestSpillShape(t *testing.T) {
	rows, err := SpillResults(Small())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"QFT-10q", "Random-10q"}
	if len(rows) != len(names) {
		t.Fatalf("want QFT and random rows, got %v", rows)
	}
	for i, r := range rows {
		if r.Benchmark != names[i] {
			t.Fatalf("row %d is %s, want %s", i, r.Benchmark, names[i])
		}
		if !r.ControlOverBudget {
			t.Errorf("%s: the control run fits the budget, so the spill tier is not exercised: %+v", r.Benchmark, r)
		}
		if r.SpillOverBudget || r.SpillFinalLevel != 0 {
			t.Errorf("%s: the spill run ends at level %d, over budget %v; want level 0 within budget",
				r.Benchmark, r.SpillFinalLevel, r.SpillOverBudget)
		}
	}
}

func TestSamplingShape(t *testing.T) {
	rows, err := SamplingResults(Small())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"GHZ-11q", "QAOA-10q"}
	if len(rows) != len(names) {
		t.Fatalf("want GHZ and QAOA rows, got %d", len(rows))
	}
	for i, r := range rows {
		if r.Benchmark != names[i] {
			t.Fatalf("row %d is %s, want %s", i, r.Benchmark, names[i])
		}
		if r.Shots != Small().SampleShots || r.Distinct < 1 || r.Distinct > r.Shots {
			t.Fatalf("malformed row: %+v", r)
		}
		if r.TotalMass < 0.999 || r.TotalMass > 1.001 {
			t.Fatalf("%s: lossless total mass %v, want ~1", r.Benchmark, r.TotalMass)
		}
		if r.Speedup <= 0 {
			t.Fatalf("%s: speedup %v", r.Benchmark, r.Speedup)
		}
	}
	// GHZ concentrates on two outcomes; the sampler must see exactly that.
	if rows[0].Distinct != 2 {
		t.Fatalf("GHZ drew %d distinct outcomes, want 2", rows[0].Distinct)
	}
}

func TestCrossoverShape(t *testing.T) {
	opt := Small()
	rows, err := CrossoverResults(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The structural bond estimate and the auto router's pick at each
	// depth, as recorded at Small().
	pins := []struct{ depth, estBond int }{{1, 2}, {2, 2}, {4, 4}, {6, 8}}
	if len(rows) != len(pins) {
		t.Fatalf("want one row per depth, got %d", len(rows))
	}
	for i, r := range rows {
		if r.Depth != pins[i].depth || r.Gates == 0 {
			t.Fatalf("malformed row: %+v", r)
		}
		if r.EstBond != pins[i].estBond || r.Auto != "mps" {
			t.Errorf("depth %d: bond estimate %d and auto pick %q, want %d and \"mps\"",
				r.Depth, r.EstBond, r.Auto, pins[i].estBond)
		}
		// The structural estimate is an upper bound on the bond
		// dimension the run actually reached (capped by χ).
		if r.MPSMaxBond > r.EstBond && r.EstBond <= opt.BondDim {
			t.Fatalf("depth %d: actual bond %d exceeds estimate %d", r.Depth, r.MPSMaxBond, r.EstBond)
		}
		if r.MPSFidelity <= 0 || r.MPSFidelity > 1 || r.CompFidelity != 1 {
			t.Fatalf("depth %d: fidelities mps=%v comp=%v", r.Depth, r.MPSFidelity, r.CompFidelity)
		}
		if r.TimeWinner == "" || r.Auto == "" {
			t.Fatalf("depth %d: missing verdicts: %+v", r.Depth, r)
		}
	}
	// Entanglement grows monotonically with depth in a brickwork
	// circuit, so the estimate must too (until it saturates).
	for i := 1; i < len(rows); i++ {
		if rows[i].EstBond < rows[i-1].EstBond {
			t.Fatalf("estimate fell with depth: %d then %d", rows[i-1].EstBond, rows[i].EstBond)
		}
	}
	// Restricting the sweep to one engine leaves the other's cells zero.
	opt.Backend = "mps"
	only, err := CrossoverResults(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range only {
		if r.CompTime != 0 || r.CompMem != 0 {
			t.Fatalf("compressed cells populated in an mps-only sweep: %+v", r)
		}
		if r.TimeWinner != "mps" {
			t.Fatalf("winner %q in an mps-only sweep", r.TimeWinner)
		}
	}
}
