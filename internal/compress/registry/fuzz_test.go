package registry

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"qcsim/internal/compress"
)

// FuzzCodecRoundTrip drives every registered codec through
// decompress(compress(x)) on arbitrary float blocks and checks the
// reconstruction contract: lossless mode is bit-exact, absolute mode
// keeps |d-d'| ≤ bound, pointwise-relative mode keeps |d-d'| ≤
// bound·|d|. Compress may reject options, but neither direction may
// panic, and a successful Compress must decompress within bound.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(2), uint8(3), make([]byte, 256))
	f.Add(uint8(3), uint8(2), uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(uint8(4), uint8(0), uint8(0), []byte("hello world, compress me as floats"))
	// Blocks that land in each layout of the lossless codecs (sorted
	// names 6 and 7): one, 2, 256 and 257 distinct words, and random
	// words over eight probe lengths (32 KiB), which are stored.
	rng := rand.New(rand.NewSource(16))
	for _, class := range []struct{ words, distinct int }{{512, 1}, {512, 2}, {4096, 256}, {4096, 257}, {4096, 4096}} {
		vals := make([]float64, class.distinct)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		block := make([]byte, 0, 8*class.words)
		for i := 0; i < class.words; i++ {
			block = binary.LittleEndian.AppendUint64(block, math.Float64bits(vals[i%class.distinct]))
		}
		f.Add(uint8(6), uint8(0), uint8(0), block)
		f.Add(uint8(7), uint8(0), uint8(0), block)
	}
	f.Fuzz(func(t *testing.T, codecSel, modeSel, boundSel uint8, data []byte) {
		names := Names()
		name := names[int(codecSel)%len(names)]
		codec, err := New(name)
		if err != nil {
			t.Fatalf("registry name %q does not resolve: %v", name, err)
		}

		// Interpret the raw bytes as float64 values. Non-finite values
		// are outside the codecs' amplitude-data contract (quantum
		// amplitudes are finite), as are subnormals (the engine's error
		// ladder never asks for bounds below 1e-7, where truncation of
		// subnormals cannot honor a relative bound); both are mapped
		// into range rather than skipped so the block shape survives.
		vals := make([]float64, len(data)/8)
		for i := range vals {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || (v != 0 && math.Abs(v) < 1e-300) {
				v = 0
			}
			vals[i] = v
		}

		var opt compress.Options
		switch modeSel % 3 {
		case 0:
			opt = compress.Options{Mode: compress.Lossless}
		case 1:
			opt = compress.Options{Mode: compress.Absolute, Bound: math.Pow(10, -float64(boundSel%6)-1)}
		default:
			opt = compress.Options{Mode: compress.PointwiseRelative, Bound: math.Pow(10, -float64(boundSel%6)-1)}
		}

		blob, err := codec.Compress(nil, vals, opt)
		if err != nil {
			// Rejecting an option set (e.g. a lossy-only codec asked
			// for lossless) is allowed; corrupting memory or panicking
			// is not.
			return
		}
		out := make([]float64, len(vals))
		if err := codec.Decompress(out, blob); err != nil {
			t.Fatalf("%s: decompress of own output failed: %v", name, err)
		}
		for i, want := range vals {
			got := out[i]
			switch opt.Mode {
			case compress.Lossless:
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: lossless value %d not bit-exact: % x vs % x",
						name, i, math.Float64bits(got), math.Float64bits(want))
				}
			case compress.Absolute:
				if diff := math.Abs(got - want); !(diff <= opt.Bound) {
					t.Fatalf("%s: abs bound %g violated at %d: |%g - %g| = %g",
						name, opt.Bound, i, got, want, diff)
				}
			case compress.PointwiseRelative:
				if diff := math.Abs(got - want); !(diff <= opt.Bound*math.Abs(want)) {
					t.Fatalf("%s: rel bound %g violated at %d: |%g - %g| = %g (|d|=%g)",
						name, opt.Bound, i, got, want, diff, math.Abs(want))
				}
			}
		}
	})
}
