package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"qcsim/internal/compress"
	"qcsim/internal/compress/fpziplike"
	"qcsim/internal/compress/szlike"
	"qcsim/internal/compress/xortrunc"
	"qcsim/internal/compress/zfplike"
	"qcsim/internal/stats"
)

// paperBounds are the five error levels every compression figure sweeps.
var paperBounds = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}

// RatioResult is one (codec, bound) compression-ratio measurement.
type RatioResult struct {
	Dataset string  `csv:"dataset"`
	Codec   string  `csv:"codec"`
	Bound   float64 `csv:"bound"`
	Ratio   float64 `csv:"ratio"`
}

// MeasureRatios compresses every block of data with codec under each
// bound and returns overall ratios. Absolute bounds are taken relative
// to each block's value range (§4.1).
func MeasureRatios(name string, data []float64, codec compress.Codec, mode compress.ErrorMode, bounds []float64, blockSize int) ([]RatioResult, error) {
	var out []RatioResult
	for _, b := range bounds {
		var compressed int
		for _, blk := range blocks(data, blockSize) {
			opt := compress.Options{Mode: mode, Bound: b}
			if mode == compress.Absolute {
				r := valueRange(blk)
				if r == 0 {
					r = 1
				}
				opt.Bound = b * r
			}
			payload, err := codec.Compress(nil, blk, opt)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", codec.Name(), name, err)
			}
			compressed += len(payload)
		}
		out = append(out, RatioResult{Dataset: name, Codec: codec.Name(), Bound: b, Ratio: compress.Ratio(len(data), compressed)})
	}
	return out, nil
}

// Fig7Results computes the SZ-vs-ZFP absolute-error comparison.
func Fig7Results(opt Options) ([]RatioResult, error) {
	var all []RatioResult
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		for _, codec := range []compress.Codec{szlike.NewA(), zfplike.New()} {
			rs, err := MeasureRatios(snap.Name, snap.Data, codec, compress.Absolute, paperBounds, opt.SnapshotBlock)
			if err != nil {
				return nil, err
			}
			all = append(all, rs...)
		}
	}
	return all, nil
}

func runFig7(w io.Writer, opt Options) error {
	header(w, "Fig. 7: compression ratio, SZ vs ZFP (absolute error, fraction of block range)")
	rs, err := Fig7Results(opt)
	if err != nil {
		return err
	}
	printRatios(w, rs)
	return nil
}

// Fig8Results computes the SZ/FPZIP/ZFP pointwise-relative comparison.
// FPZIP runs at the paper's precisions 16/18/22/24/28.
func Fig8Results(opt Options) ([]RatioResult, error) {
	precisions := []int{16, 18, 22, 24, 28}
	var all []RatioResult
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		for _, codec := range []compress.Codec{szlike.NewA(), zfplike.New()} {
			rs, err := MeasureRatios(snap.Name, snap.Data, codec, compress.PointwiseRelative, paperBounds, opt.SnapshotBlock)
			if err != nil {
				return nil, err
			}
			all = append(all, rs...)
		}
		for i, prec := range precisions {
			codec := fpziplike.NewPrecision(prec)
			rs, err := MeasureRatios(snap.Name, snap.Data, codec, compress.PointwiseRelative, paperBounds[i:i+1], opt.SnapshotBlock)
			if err != nil {
				return nil, err
			}
			rs[0].Codec = "fpzip-like"
			all = append(all, rs...)
		}
	}
	return all, nil
}

func runFig8(w io.Writer, opt Options) error {
	header(w, "Fig. 8: compression ratio, SZ vs FPZIP vs ZFP (pointwise relative error)")
	rs, err := Fig8Results(opt)
	if err != nil {
		return err
	}
	printRatios(w, rs)
	return nil
}

func runFig9(w io.Writer, opt Options) error {
	header(w, "Fig. 9: quantum state data are spiky (windows of raw values)")
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		fmt.Fprintf(w, "\n%s: %d values\n", snap.Name, len(snap.Data))
		for _, start := range []int{1000, 2000} {
			if start+8 > len(snap.Data) {
				continue
			}
			fmt.Fprintf(w, "  idx %d..%d:", start, start+7)
			for _, v := range snap.Data[start : start+8] {
				fmt.Fprintf(w, " % .3e", v)
			}
			fmt.Fprintln(w)
		}
		// Spikiness indicator: mean |Δ| between neighbors relative to
		// the mean |value| — ≫1 means no smoothness for predictors.
		var sumD, sumV float64
		for i := 1; i < len(snap.Data); i++ {
			sumD += math.Abs(snap.Data[i] - snap.Data[i-1])
			sumV += math.Abs(snap.Data[i])
		}
		fmt.Fprintf(w, "  spikiness (mean|Δ| / mean|v|) = %.2f\n", sumD/sumV)
	}
	return nil
}

// Solutions returns the paper's four candidate compressors (§4.2).
func Solutions() []compress.Codec {
	return []compress.Codec{szlike.NewA(), szlike.NewB(), xortrunc.New(), xortrunc.NewShuffled()}
}

// SolutionLabel maps codec names to the paper's Solution letters.
func SolutionLabel(name string) string {
	switch name {
	case "sz-a":
		return "Sol.A"
	case "sz-b":
		return "Sol.B"
	case "xor-c":
		return "Sol.C"
	case "xor-d":
		return "Sol.D"
	default:
		return name
	}
}

// Fig10Results computes the Solutions A-D ratio comparison.
func Fig10Results(opt Options) ([]RatioResult, error) {
	var all []RatioResult
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		for _, codec := range Solutions() {
			rs, err := MeasureRatios(snap.Name, snap.Data, codec, compress.PointwiseRelative, paperBounds, opt.SnapshotBlock)
			if err != nil {
				return nil, err
			}
			all = append(all, rs...)
		}
	}
	return all, nil
}

func runFig10(w io.Writer, opt Options) error {
	header(w, "Fig. 10: compression ratio of Solutions A-D (pointwise relative error)")
	rs, err := Fig10Results(opt)
	if err != nil {
		return err
	}
	for i := range rs {
		rs[i].Codec = SolutionLabel(rs[i].Codec)
	}
	printRatios(w, rs)
	return nil
}

// RateResult is one (codec, bound) throughput measurement.
type RateResult struct {
	Dataset    string  `csv:"dataset"`
	Codec      string  `csv:"codec"`
	Bound      float64 `csv:"bound"`
	CompressMB float64 `csv:"compress_mb_s"`   // MB/s
	DecompMB   float64 `csv:"decompress_mb_s"` // MB/s
}

// MeasureRates times compression and decompression of data per bound.
func MeasureRates(name string, data []float64, codec compress.Codec, bounds []float64, blockSize int) ([]RateResult, error) {
	var out []RateResult
	mb := float64(len(data)*8) / (1 << 20)
	for _, b := range bounds {
		opt := compress.Options{Mode: compress.PointwiseRelative, Bound: b}
		blks := blocks(data, blockSize)
		payloads := make([][]byte, len(blks))
		start := time.Now()
		for i, blk := range blks {
			p, err := codec.Compress(nil, blk, opt)
			if err != nil {
				return nil, err
			}
			payloads[i] = p
		}
		ct := time.Since(start)
		start = time.Now()
		for i, blk := range blks {
			buf := make([]float64, len(blk))
			if err := codec.Decompress(buf, payloads[i]); err != nil {
				return nil, err
			}
		}
		dt := time.Since(start)
		out = append(out, RateResult{
			Dataset:    name,
			Codec:      codec.Name(),
			Bound:      b,
			CompressMB: mb / ct.Seconds(),
			DecompMB:   mb / dt.Seconds(),
		})
	}
	return out, nil
}

// Fig11Results measures rates for Solutions A-D on both snapshots.
func Fig11Results(opt Options) ([]RateResult, error) {
	var all []RateResult
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		for _, codec := range Solutions() {
			rs, err := MeasureRates(snap.Name, snap.Data, codec, paperBounds, opt.SnapshotBlock)
			if err != nil {
				return nil, err
			}
			all = append(all, rs...)
		}
	}
	return all, nil
}

func runFig11(w io.Writer, opt Options) error {
	header(w, "Fig. 11: compression/decompression rates of Solutions A-D (MB/s, single core)")
	rs, err := Fig11Results(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tsolution\tbound\tcompress MB/s\tdecompress MB/s")
	for _, r := range rs {
		fmt.Fprintf(tw, "%s\t%s\t%.0e\t%.1f\t%.1f\n", r.Dataset, SolutionLabel(r.Codec), r.Bound, r.CompressMB, r.DecompMB)
	}
	return tw.Flush()
}

// BlockErrors returns the max pointwise relative error of each block
// after a compress/decompress round trip.
func BlockErrors(data []float64, codec compress.Codec, bound float64, blockSize int) ([]float64, error) {
	var maxes []float64
	for _, blk := range blocks(data, blockSize) {
		payload, err := codec.Compress(nil, blk, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(blk))
		if err := codec.Decompress(out, payload); err != nil {
			return nil, err
		}
		var m float64
		for i := range blk {
			if blk[i] == 0 {
				continue
			}
			if e := math.Abs(blk[i]-out[i]) / math.Abs(blk[i]); e > m {
				m = e
			}
		}
		maxes = append(maxes, m)
	}
	return maxes, nil
}

func runFig12(w io.Writer, opt Options) error {
	header(w, "Fig. 12: per-block max pointwise relative error (quantile summary of the CDF)")
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tsolution\tbound\tp25\tp50\tp75\tmax\twithin bound")
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		for _, codec := range Solutions() {
			for _, b := range paperBounds {
				maxes, err := BlockErrors(snap.Data, codec, b, opt.SnapshotBlock)
				if err != nil {
					return err
				}
				sort.Float64s(maxes)
				q := func(p float64) float64 { return stats.Quantile(maxes, p) }
				worst := maxes[len(maxes)-1]
				ok := "yes"
				if worst > b {
					ok = "NO"
				}
				fmt.Fprintf(tw, "%s\t%s\t%.0e\t%.2e\t%.2e\t%.2e\t%.2e\t%s\n",
					snap.Name, SolutionLabel(codec.Name()), b, q(0.25), q(0.5), q(0.75), worst, ok)
			}
		}
	}
	return tw.Flush()
}

func runFig13(w io.Writer, _ Options) error {
	header(w, "Fig. 13: discrete truncation errors — the paper's 3.9921875 example")
	const v = 3.9921875
	tw := newTable(w)
	fmt.Fprintln(tw, "kept mantissa bits\tvalue\trelative error")
	bits := math.Float64bits(v)
	for m := 7; m >= 2; m-- {
		mask := ^uint64(0) << uint(52-m)
		tv := math.Float64frombits(bits & mask)
		fmt.Fprintf(tw, "%d\t%.7f\t%.6f\n", m, tv, (v-tv)/v)
	}
	tw.Flush()
	fmt.Fprintln(w, "With ε = 0.01 Solution C keeps 19 leading bits (Eq. 12); the achieved error is")
	fmt.Fprintln(w, "below the bound because truncation snaps to the nearest coarser bit plane.")
	return nil
}

// Fig14Result summarizes the Solution-C error distribution analysis.
type Fig14Result struct {
	Dataset  string
	Bound    float64
	KS       float64 // Kolmogorov–Smirnov distance from uniform
	AutoCorr float64 // lag-1 autocorrelation of signed relative errors
	MeanFrac float64 // mean achieved error / bound (over-preservation)
}

// Fig14Results analyses Solution C's normalized errors per §4.2.
func Fig14Results(opt Options) ([]Fig14Result, error) {
	codec := xortrunc.New()
	var out []Fig14Result
	for _, kind := range []string{"qaoa", "sup"} {
		snap := snapshot(kind, opt.SnapshotQubits)
		for _, b := range paperBounds {
			payload, err := codec.Compress(nil, snap.Data, compress.Options{Mode: compress.PointwiseRelative, Bound: b})
			if err != nil {
				return nil, err
			}
			dec := make([]float64, len(snap.Data))
			if err := codec.Decompress(dec, payload); err != nil {
				return nil, err
			}
			var norm, signed []float64
			for i := range snap.Data {
				if snap.Data[i] == 0 {
					continue
				}
				e := (snap.Data[i] - dec[i]) / snap.Data[i]
				signed = append(signed, e)
				norm = append(norm, math.Abs(e)/b)
			}
			if len(norm) == 0 {
				continue
			}
			_, hi := stats.MinMax(norm)
			if hi == 0 {
				hi = 1
			}
			out = append(out, Fig14Result{
				Dataset:  snap.Name,
				Bound:    b,
				KS:       stats.UniformityKS(norm, 0, hi),
				AutoCorr: stats.Lag1Autocorrelation(signed),
				MeanFrac: stats.Mean(norm),
			})
		}
	}
	return out, nil
}

func runFig14(w io.Writer, opt Options) error {
	header(w, "Fig. 14: Solution C normalized errors — uniformity, over-preservation, uncorrelatedness")
	rs, err := Fig14Results(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tbound\tKS vs uniform\tlag-1 autocorr\tmean |err|/bound")
	for _, r := range rs {
		fmt.Fprintf(tw, "%s\t%.0e\t%.4f\t%+.2e\t%.3f\n", r.Dataset, r.Bound, r.KS, r.AutoCorr, r.MeanFrac)
	}
	return tw.Flush()
}

// printRatios renders ratio results grouped by dataset and codec.
func printRatios(w io.Writer, rs []RatioResult) {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tcodec\tbound\tratio")
	for _, r := range rs {
		fmt.Fprintf(tw, "%s\t%s\t%.0e\t%.2f\n", r.Dataset, r.Codec, r.Bound, r.Ratio)
	}
	tw.Flush()
}
