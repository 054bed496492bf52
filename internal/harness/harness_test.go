package harness

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestSweepShape: the sweep experiment must show a real codec-traffic
// reduction on both workloads (the ISSUE's ≥2× Grover criterion is
// asserted at engine level in internal/core; here we check the harness
// surfaces coherent numbers).
func TestSweepShape(t *testing.T) {
	opt := Small()
	rows, err := SweepResults(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected Grover and QAOA rows, got %v", rows)
	}
	for _, r := range rows {
		if r.CodecCallsOn >= r.CodecCallsOff {
			t.Errorf("%s: sweeps did not reduce codec calls (%d -> %d)", r.Benchmark, r.CodecCallsOff, r.CodecCallsOn)
		}
		if r.Sweeps == 0 || r.SweepGates < r.Sweeps || r.PassesSaved == 0 {
			t.Errorf("%s: implausible sweep counters: %+v", r.Benchmark, r)
		}
	}
	grover := rows[0]
	if grover.Reduction < 2 {
		t.Errorf("Grover codec reduction %.2fx below the 2x target", grover.Reduction)
	}
}

// TestBatchShape: the variant-batching experiment is the PR's
// acceptance measurement — the K-variant parameter-shift batch must
// issue at least 2× fewer run-phase codec calls per variant than K
// sequential runs on the QAOA workload (K ≥ 8 even at the small
// scale), with coherent counters.
func TestBatchShape(t *testing.T) {
	opt := Small()
	rows, err := BatchResults(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected QAOA and VQE rows, got %v", rows)
	}
	for _, r := range rows {
		if r.Variants < 8 {
			t.Errorf("%s: batch width %d below the K>=8 target", r.Benchmark, r.Variants)
		}
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
	qaoa := rows[0]
	if !strings.HasPrefix(qaoa.Benchmark, "QAOA") {
		t.Fatalf("first row is not QAOA: %+v", qaoa)
	}
	if qaoa.Reduction < 2 {
		t.Errorf("QAOA batch codec reduction %.2fx below the 2x acceptance target", qaoa.Reduction)
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

func TestExportCSV(t *testing.T) {
	dir := t.TempDir()
	if err := ExportCSV(dir, Small()); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig7_abs_ratio.csv", "fig8_rel_ratio.csv", "fig10_solutions_ratio.csv", "fig11_rates.csv", "table2.csv", "fig6_fidelity_bounds.csv", "fig16_strong_scaling.csv", "fig16w_worker_scaling.csv", "sweep_codec_reduction.csv", "sampling.csv", "crossover.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Fatalf("%s has only %d lines", f, lines)
		}
	}
}

func TestSamplingShape(t *testing.T) {
	rows, err := SamplingResults(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want GHZ and QAOA rows, got %d", len(rows))
	}
	for _, r := range rows {
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
	if len(rows) != len(opt.CrossoverDepths) {
		t.Fatalf("want one row per depth, got %d", len(rows))
	}
	for i, r := range rows {
		if r.Depth != opt.CrossoverDepths[i] || r.Gates == 0 {
			t.Fatalf("malformed row: %+v", r)
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
