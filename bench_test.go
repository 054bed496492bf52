// Benchmarks regenerating every table and figure of the paper's
// evaluation. Custom metrics (compression ratios, fidelity bounds,
// speedups) are attached via b.ReportMetric so `go test -bench=.`
// reproduces the numbers EXPERIMENTS.md records.
package qcsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"qcsim/internal/compress"
	"qcsim/internal/compress/fpziplike"
	"qcsim/internal/compress/szlike"
	"qcsim/internal/compress/xortrunc"
	"qcsim/internal/compress/zfplike"
	"qcsim/internal/core"
	"qcsim/internal/harness"
	"qcsim/internal/mps"
	"qcsim/internal/quantum"
	"qcsim/internal/stats"
)

// benchOptions is the committed benchmark scale (between harness.Small
// and harness.Default to keep -bench=. minutes, not hours).
func benchOptions() harness.Options {
	opt := harness.Default()
	opt.SnapshotQubits = 14
	opt.Fig5Qubits = 12
	opt.Fig15MinQubits = 10
	opt.Fig15MaxQubits = 14
	opt.Fig16Qubits = 14
	opt.GroverSearch = 6
	opt.SupremacyGrids = [][2]int{{3, 4}}
	opt.QAOAQubits = []int{12}
	opt.QFTQubits = 12
	opt.BlockAmps = 512
	return opt
}

// snapshotData builds the qaoa_N / sup_N state snapshots used by the
// codec benchmarks (same construction as the harness).
func snapshotData(b *testing.B, kind string, qubits int) []float64 {
	b.Helper()
	var c *quantum.Circuit
	switch kind {
	case "qaoa":
		c = quantum.QAOA(qubits, 2, 20190001)
	default:
		c = quantum.Supremacy(3, qubits/3, 11, 20190002)
	}
	st := quantum.NewState(c.N)
	st.ApplyCircuit(c)
	data := make([]float64, 2*len(st.Amps))
	for i, a := range st.Amps {
		data[2*i] = real(a)
		data[2*i+1] = imag(a)
	}
	return data
}

// --- Table 1 ---

func BenchmarkTable1MaxQubits(b *testing.B) {
	pb := float64(uint64(1) << 50)
	var n int
	for i := 0; i < b.N; i++ {
		n = core.MaxQubitsForMemory(0.8 * pb)
	}
	b.ReportMetric(float64(n), "theta-max-qubits")
}

// --- Fig. 5: rank configuration sweep ---

func BenchmarkFig5RankConfig(b *testing.B) {
	opt := benchOptions()
	cir := quantum.RandomCircuit(opt.Fig5Qubits, 60, 35)
	for _, ranks := range []int{1, 2, 4, 8} {
		ranks := ranks
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.New(core.Config{Qubits: opt.Fig5Qubits, Ranks: ranks, BlockAmps: opt.BlockAmps})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(cir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 6: fidelity bound curves ---

func BenchmarkFig6FidelityBound(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		f = core.FidelityCurve(1e-3, 5000)[4999]
	}
	b.ReportMetric(f, "fidelity@5000gates")
}

// --- Figs. 7, 8, 10: compression ratios ---

func benchRatio(b *testing.B, codec compress.Codec, data []float64, opt compress.Options) {
	b.Helper()
	b.SetBytes(int64(len(data) * 8))
	var payload []byte
	var err error
	for i := 0; i < b.N; i++ {
		payload, err = codec.Compress(payload[:0], data, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(compress.Ratio(len(data), len(payload)), "ratio")
}

func BenchmarkFig7AbsRatio(b *testing.B) {
	opt := benchOptions()
	for _, kind := range []string{"qaoa", "sup"} {
		data := snapshotData(b, kind, opt.SnapshotQubits)
		r := valueRangeOf(data)
		for _, codec := range []compress.Codec{szlike.NewA(), zfplike.New()} {
			for _, bound := range []float64{1e-2, 1e-4} {
				codec, bound := codec, bound
				b.Run(fmt.Sprintf("%s/%s/abs=%.0e", kind, codec.Name(), bound), func(b *testing.B) {
					benchRatio(b, codec, data, compress.Options{Mode: compress.Absolute, Bound: bound * r})
				})
			}
		}
	}
}

func BenchmarkFig8RelRatio(b *testing.B) {
	opt := benchOptions()
	for _, kind := range []string{"qaoa", "sup"} {
		data := snapshotData(b, kind, opt.SnapshotQubits)
		codecs := []compress.Codec{szlike.NewA(), zfplike.New(), fpziplike.New()}
		for _, codec := range codecs {
			for _, bound := range []float64{1e-2, 1e-4} {
				codec, bound := codec, bound
				b.Run(fmt.Sprintf("%s/%s/pwr=%.0e", kind, codec.Name(), bound), func(b *testing.B) {
					benchRatio(b, codec, data, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
				})
			}
		}
	}
}

func BenchmarkFig10SolutionRatio(b *testing.B) {
	opt := benchOptions()
	for _, kind := range []string{"qaoa", "sup"} {
		data := snapshotData(b, kind, opt.SnapshotQubits)
		for _, codec := range harness.Solutions() {
			for _, bound := range []float64{1e-2, 1e-4} {
				codec, bound := codec, bound
				b.Run(fmt.Sprintf("%s/%s/pwr=%.0e", kind, harness.SolutionLabel(codec.Name()), bound), func(b *testing.B) {
					benchRatio(b, codec, data, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
				})
			}
		}
	}
}

// --- Fig. 11: compression and decompression rates ---

func BenchmarkFig11Rates(b *testing.B) {
	opt := benchOptions()
	data := snapshotData(b, "qaoa", opt.SnapshotQubits)
	copt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	for _, codec := range harness.Solutions() {
		codec := codec
		b.Run("compress/"+harness.SolutionLabel(codec.Name()), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 8))
			var payload []byte
			var err error
			for i := 0; i < b.N; i++ {
				payload, err = codec.Compress(payload[:0], data, copt)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decompress/"+harness.SolutionLabel(codec.Name()), func(b *testing.B) {
			payload, err := codec.Compress(nil, data, copt)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float64, len(data))
			b.SetBytes(int64(len(data) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.Decompress(out, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 12: per-block error distribution ---

func BenchmarkFig12ErrorCDF(b *testing.B) {
	opt := benchOptions()
	data := snapshotData(b, "sup", opt.SnapshotQubits)
	var worst float64
	for i := 0; i < b.N; i++ {
		maxes, err := harness.BlockErrors(data, xortrunc.New(), 1e-3, 4096)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, m := range maxes {
			if m > worst {
				worst = m
			}
		}
	}
	b.ReportMetric(worst, "max-block-error")
}

// --- Fig. 14: uncorrelatedness of Solution C errors ---

func BenchmarkFig14Autocorr(b *testing.B) {
	opt := benchOptions()
	data := snapshotData(b, "qaoa", opt.SnapshotQubits)
	codec := xortrunc.New()
	copt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	payload, err := codec.Compress(nil, data, copt)
	if err != nil {
		b.Fatal(err)
	}
	dec := make([]float64, len(data))
	if err := codec.Decompress(dec, payload); err != nil {
		b.Fatal(err)
	}
	errs := make([]float64, 0, len(data))
	for i := range data {
		if data[i] != 0 {
			errs = append(errs, (data[i]-dec[i])/data[i])
		}
	}
	var r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = stats.Lag1Autocorrelation(errs)
	}
	b.ReportMetric(r, "lag1-autocorr")
}

// --- Fig. 15: runtime vs qubit count ---

func BenchmarkFig15QubitScaling(b *testing.B) {
	opt := benchOptions()
	for n := opt.Fig15MinQubits; n <= opt.Fig15MaxQubits; n += 2 {
		n := n
		b.Run(fmt.Sprintf("qubits=%d", n), func(b *testing.B) {
			cir := quantum.HadamardAll(n)
			for i := 0; i < b.N; i++ {
				s, err := core.New(core.Config{Qubits: n, Ranks: 1, BlockAmps: opt.BlockAmps})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(cir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 16: strong scaling ---

func BenchmarkFig16StrongScaling(b *testing.B) {
	opt := benchOptions()
	cir := quantum.HadamardAll(opt.Fig16Qubits)
	for _, ranks := range []int{1, 2, 4, 8} {
		ranks := ranks
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.New(core.Config{Qubits: opt.Fig16Qubits, Ranks: ranks, BlockAmps: opt.BlockAmps})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(cir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 16b: intra-rank worker-pool scaling ---

// workerBenchCircuit is block-pass-heavy: every target sits in the
// offset segment, so each gate is a pure decompress/compute/recompress
// sweep over all blocks — exactly the loop the worker pool fans out.
func workerBenchCircuit(qubits, offsetQubits, layers int) *quantum.Circuit {
	c := quantum.NewCircuit(qubits)
	for l := 0; l < layers; l++ {
		for q := 0; q < offsetQubits; q++ {
			if l%2 == 0 {
				c.H(q)
			} else {
				c.T(q)
			}
		}
	}
	return c
}

// BenchmarkWorkerScaling compares Workers=1 against wider pools on the
// same workload and reports the measured speedup (the states are
// bit-identical across the sweep). BlockAmps=512 on 14 qubits leaves 9
// offset bits and 32 blocks per rank to fan out; pool widths are capped
// there because core clamps Workers to the block count. Only Run is
// timed — construction and the (serial) Reset stay outside the clock so
// the speedup metric reflects the gate loop alone.
func BenchmarkWorkerScaling(b *testing.B) {
	const qubits, blockAmps = 14, 512
	nb := (1 << qubits) / blockAmps
	cir := workerBenchCircuit(qubits, 9, 8)
	widths := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		if n > nb {
			n = nb
		}
		if n > widths[len(widths)-1] {
			widths = append(widths, n)
		}
	}
	var baseline float64 // run-only ns/op at Workers=1, set by the first sub-benchmark
	for _, workers := range widths {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, err := core.New(core.Config{Qubits: qubits, Ranks: 1, BlockAmps: blockAmps, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			var running time.Duration
			for i := 0; i < b.N; i++ {
				if err := s.Reset(); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := s.Run(cir); err != nil {
					b.Fatal(err)
				}
				running += time.Since(start)
			}
			nsPerOp := float64(running.Nanoseconds()) / float64(b.N)
			b.ReportMetric(nsPerOp, "run-ns/op")
			if workers == 1 {
				baseline = nsPerOp
			} else if baseline > 0 {
				b.ReportMetric(baseline/nsPerOp, "speedup-vs-1-worker")
			}
		})
	}
}

// BenchmarkSweepScheduler measures the sweep scheduler on the Grover
// and QAOA example circuits: sweeps-off reproduces the paper's
// one-codec-pass-per-gate cost model, sweeps-on batches each run of
// block-local gates into one pass per block. The amplitudes are
// bit-identical across each pair; the reported codec-call counts and
// speedup isolate the removed codec traffic. Only Run is timed.
func BenchmarkSweepScheduler(b *testing.B) {
	opt := benchOptions()
	workloads := []struct {
		name string
		cir  *quantum.Circuit
	}{
		{"Grover", quantum.Grover(opt.GroverSearch, 0x2D, quantum.GroverOptimalIterations(opt.GroverSearch))},
		{"QAOA", quantum.QAOA(opt.QAOAQubits[0], 2, 2020)},
	}
	for _, wl := range workloads {
		wl := wl
		var baseline float64 // sweeps-off run-ns/op, set by the first sub-benchmark
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"off", true}, {"on", false}} {
			mode := mode
			b.Run(fmt.Sprintf("%s/sweeps=%s", wl.name, mode.name), func(b *testing.B) {
				s, err := core.New(core.Config{
					Qubits: wl.cir.N, Ranks: 1, BlockAmps: opt.BlockAmps,
					DisableSweeps: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				var running time.Duration
				var base core.Stats // after the final Reset: its per-block compressions only
				for i := 0; i < b.N; i++ {
					if err := s.Reset(); err != nil {
						b.Fatal(err)
					}
					base = s.Stats()
					start := time.Now()
					if err := s.Run(wl.cir); err != nil {
						b.Fatal(err)
					}
					running += time.Since(start)
				}
				// Reset zeroes the rank stats, so st minus the post-Reset
				// baseline is the final iteration's run-only codec traffic.
				st := s.Stats()
				runCalls := st.CompressCalls - base.CompressCalls + st.DecompressCalls - base.DecompressCalls
				nsPerOp := float64(running.Nanoseconds()) / float64(b.N)
				b.ReportMetric(nsPerOp, "run-ns/op")
				b.ReportMetric(float64(runCalls), "codec-calls/op")
				if mode.disable {
					baseline = nsPerOp
				} else {
					if baseline > 0 {
						b.ReportMetric(baseline/nsPerOp, "speedup-vs-no-sweeps")
					}
					b.ReportMetric(float64(st.CodecPassesSaved), "codec-passes-saved/op")
				}
			})
		}
	}
}

// --- Table 2: full benchmark runs ---

func BenchmarkTable2(b *testing.B) {
	opt := benchOptions()
	workloads := []struct {
		name   string
		cir    *quantum.Circuit
		budget float64
	}{
		{"Grover", quantum.Grover(opt.GroverSearch, 0x2D, 1), 0.10},
		{"RCS", quantum.Supremacy(3, 4, opt.SupremacyDepth, 2019), 0.375},
		{"QAOA", quantum.QAOA(12, 2, 2020), 0.375},
		{"QFT", quantum.QFT(opt.QFTQubits, 2021), 0.1875},
	}
	for _, wl := range workloads {
		wl := wl
		b.Run(wl.name, func(b *testing.B) {
			req := core.MemoryRequirement(wl.cir.N)
			var ratio, ledger float64
			for i := 0; i < b.N; i++ {
				s, err := core.New(core.Config{
					Qubits:       wl.cir.N,
					Ranks:        2,
					BlockAmps:    opt.BlockAmps,
					MemoryBudget: int64(req * wl.budget / 2),
					CacheLines:   64,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(wl.cir); err != nil {
					b.Fatal(err)
				}
				ratio = s.Stats().MinCompressionRatio(req)
				ledger = s.FidelityLowerBound()
			}
			b.ReportMetric(ratio, "min-ratio")
			b.ReportMetric(ledger, "fidelity-bound")
		})
	}
}

// --- Ablations (DESIGN.md design choices) ---

// BenchmarkAblationCache quantifies the §3.4 block cache on a
// redundancy-heavy workload.
func BenchmarkAblationCache(b *testing.B) {
	cir := quantum.Grover(6, 0x15, 2)
	for _, lines := range []int{0, 64} {
		lines := lines
		b.Run(fmt.Sprintf("cache=%d", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.New(core.Config{Qubits: cir.N, Ranks: 1, BlockAmps: 128, CacheLines: lines})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(cir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationShuffle isolates Solution D's reshuffle step.
func BenchmarkAblationShuffle(b *testing.B) {
	data := snapshotData(b, "qaoa", 14)
	copt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	for _, shuffle := range []bool{false, true} {
		codec := &xortrunc.Codec{Shuffle: shuffle}
		b.Run(fmt.Sprintf("shuffle=%v", shuffle), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 8))
			var payload []byte
			var err error
			for i := 0; i < b.N; i++ {
				payload, err = codec.Compress(payload[:0], data, copt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(compress.Ratio(len(data), len(payload)), "ratio")
		})
	}
}

// BenchmarkAblationLosslessStage isolates the final dictionary pass of
// Solution C.
func BenchmarkAblationLosslessStage(b *testing.B) {
	data := snapshotData(b, "sup", 14)
	copt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	for _, disable := range []bool{false, true} {
		codec := &xortrunc.Codec{DisableLossless: disable}
		b.Run(fmt.Sprintf("flate-off=%v", disable), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 8))
			var payload []byte
			var err error
			for i := 0; i < b.N; i++ {
				payload, err = codec.Compress(payload[:0], data, copt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(compress.Ratio(len(data), len(payload)), "ratio")
		})
	}
}

// BenchmarkAblationGateFusion quantifies single-qubit gate fusion: the
// same circuit with and without folding adjacent single-qubit gates
// before execution.
func BenchmarkAblationGateFusion(b *testing.B) {
	for _, fuse := range []bool{false, true} {
		cir := quantum.RandomCircuit(14, 120, 9)
		if fuse {
			cir = quantum.FuseSingleQubitGates(cir)
		}
		b.Run(fmt.Sprintf("fuse=%v", fuse), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.New(core.Config{Qubits: 14, Ranks: 2, BlockAmps: 1024})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(cir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParadigms compares the three simulation paradigms of the
// paper's §2.2 on a low-entanglement workload (GHZ): tensor network
// (MPS), compressed full state, and uncompressed full state.
func BenchmarkParadigms(b *testing.B) {
	const n = 14
	cir := quantum.GHZ(n)
	b.Run("mps-chi2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := mps.New(n, 2)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.ApplyCircuit(cir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := core.New(core.Config{Qubits: n, Ranks: 1, BlockAmps: 1024})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(cir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := core.New(core.Config{Qubits: n, Ranks: 1, BlockAmps: 1024, Uncompressed: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(cir); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUncompressedBaseline compares the compressed engine to the
// Intel-QS-style uncompressed substrate (the paper's time-for-memory
// trade).
func BenchmarkUncompressedBaseline(b *testing.B) {
	cir := quantum.RandomCircuit(14, 40, 3)
	for _, uncompressed := range []bool{true, false} {
		uncompressed := uncompressed
		name := "compressed"
		if uncompressed {
			name = "uncompressed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.New(core.Config{Qubits: 14, Ranks: 2, BlockAmps: 1024, Uncompressed: uncompressed})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(cir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func valueRangeOf(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
