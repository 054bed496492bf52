// Package compress defines the codec interface shared by every
// compressor in the repository and the helpers (options, headers,
// shuffling, error-bound verification) the concrete codecs build on.
//
// The paper's simulator keeps every state-vector block compressed in
// memory; a Codec turns a block of float64 values (interleaved real and
// imaginary amplitude parts) into bytes and back. Lossy codecs accept an
// error bound in one of two modes (§2.3 of the paper):
//
//   - Absolute: |d - d'| ≤ e for every point.
//   - PointwiseRelative: |d - d'| ≤ ε|d| for every point. The
//     truncation-based codecs additionally satisfy the paper's one-sided
//     contract |d'| ∈ [|d|(1-ε), |d|].
package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrorMode selects how Options.Bound is interpreted.
type ErrorMode uint8

const (
	// Lossless requests bit-exact reconstruction; Bound is ignored.
	Lossless ErrorMode = iota
	// Absolute bounds the pointwise absolute error by Bound.
	Absolute
	// PointwiseRelative bounds the pointwise relative error by Bound.
	PointwiseRelative
)

// String implements fmt.Stringer.
func (m ErrorMode) String() string {
	switch m {
	case Lossless:
		return "lossless"
	case Absolute:
		return "abs"
	case PointwiseRelative:
		return "pwr"
	default:
		return fmt.Sprintf("ErrorMode(%d)", uint8(m))
	}
}

// Options carries the per-call compression parameters.
type Options struct {
	Mode  ErrorMode
	Bound float64
}

// Validate reports whether the options are coherent.
func (o Options) Validate() error {
	switch o.Mode {
	case Lossless:
		return nil
	case Absolute, PointwiseRelative:
		if !(o.Bound > 0) || math.IsInf(o.Bound, 0) || math.IsNaN(o.Bound) {
			return fmt.Errorf("compress: bound %v invalid for mode %v", o.Bound, o.Mode)
		}
		return nil
	default:
		return fmt.Errorf("compress: unknown mode %d", o.Mode)
	}
}

// Codec compresses and decompresses blocks of float64 values. It is the
// one codec contract: the built-in codecs implement it, and the public
// facade's qcsim.Codec is this interface, so codecs registered there
// must honor every point below.
//
//   - Self-describing. Compress appends the encoded form of src to dst
//     (which may be nil) and returns the extended slice; Decompress
//     receives only the bytes Compress produced.
//   - Exact count. Decompress writes exactly len(dst) values; the caller
//     sizes dst from its own metadata (the simulator knows its block
//     size), and a codec validates any stored count against len(dst)
//     and fails on a mismatch rather than writing short.
//   - Bounds and modes. In Absolute and PointwiseRelative modes every
//     reconstructed value respects the requested bound: the engine's
//     fidelity ledger (the paper's Eq. 11) is a lower bound only if it
//     does. Options a codec cannot honor — an unknown Mode above all —
//     are an error (Options.Validate), never a silent fallback.
//   - Exact capacity. When dst has no room for the encoded form, the
//     slice returned is allocated once, with cap == len (see Grow). The
//     engine keeps blobs — in the block store, the §3.4 cache, the batch
//     memo — so capacity a blob does not use is heap the simulator
//     retains. codectest.ConformanceExactCapacity checks it.
//   - Pure bytes. What Compress appends is a function of src, opt and
//     the codec's configuration alone: not of the goroutine, the rank,
//     or what a pooled scratch encoded before. Cache keys, checkpoints
//     compared byte for byte, the bit-identity suites and the
//     benchmark's exact metrics all assume it.
//   - Concurrency. A simulator holds one instance per codec role, and
//     every worker of every rank calls it at once: Compress and
//     Decompress must be safe for concurrent use
//     (codectest.ConformanceConcurrent). A registry factory returns a
//     fresh instance per call, sharing no mutable state with the others.
type Codec interface {
	// Name identifies the codec in harness tables (e.g. "sz-a", "xor-c").
	Name() string
	// Compress encodes src under opt, appending to dst.
	Compress(dst []byte, src []float64, opt Options) ([]byte, error)
	// Decompress decodes data into dst.
	Decompress(dst []float64, data []byte) error
}

// ErrCorrupt is returned by codecs when a payload fails validation.
var ErrCorrupt = errors.New("compress: corrupt payload")

// Header is the common self-describing prefix every codec payload starts
// with, so blocks can be decompressed after a checkpoint/restart without
// side metadata.
type Header struct {
	Magic byte // codec-specific magic
	Mode  ErrorMode
	Bound float64
	Count uint32 // number of float64 values
}

// HeaderSize is the encoded size of Header in bytes.
const HeaderSize = 1 + 1 + 8 + 4

// Grow returns dst with room for n more bytes: dst itself when its
// capacity allows, otherwise a copy whose capacity is exactly
// len(dst)+n — unlike append, which rounds up, and whose spare bytes a
// retained blob would pin.
func Grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// AppendHeader serializes h onto dst.
func AppendHeader(dst []byte, h Header) []byte {
	dst = append(dst, h.Magic, byte(h.Mode))
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(h.Bound))
	dst = append(dst, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], h.Count)
	return append(dst, b4[:]...)
}

// ParseHeader reads a Header and returns the remaining payload.
func ParseHeader(data []byte, wantMagic byte) (Header, []byte, error) {
	if len(data) < HeaderSize {
		return Header{}, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	h := Header{
		Magic: data[0],
		Mode:  ErrorMode(data[1]),
		Bound: math.Float64frombits(binary.LittleEndian.Uint64(data[2:10])),
		Count: binary.LittleEndian.Uint32(data[10:14]),
	}
	if h.Magic != wantMagic {
		return Header{}, nil, fmt.Errorf("%w: magic %#x, want %#x", ErrCorrupt, h.Magic, wantMagic)
	}
	return h, data[HeaderSize:], nil
}

// hostLittleEndian reports whether a float64 in memory already is its
// little-endian wire form, so that a []float64 and its raw bytes are one
// memmove apart. Elsewhere putWords/getWords are the (only) fallback.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views f's memory as bytes, without copying: the wire form
// when hostLittleEndian, and only then.
func floatBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*8)
}

// SameBits reports whether a and b hold the same IEEE 754 words bit for
// bit, through the byte view: +0 and −0 differ, and so do NaNs of other
// payloads, where float == would say otherwise. On any byte order the
// views are equal exactly when the words are.
func SameBits(a, b []float64) bool {
	return len(a) == len(b) && bytes.Equal(floatBytes(a), floatBytes(b))
}

// PutFloats writes src to dst as little-endian IEEE 754 words — the raw
// form every byte-level stage (stored blocks, DEFLATE input, the
// engine's uncompressed store) works on. dst must hold 8·len(src) bytes.
func PutFloats(dst []byte, src []float64) {
	dst = dst[:len(src)*8]
	if hostLittleEndian {
		copy(dst, floatBytes(src))
		return
	}
	putWords(dst, src)
}

// AppendFloats appends src's raw form (see PutFloats) to dst. Growing
// through append, not make, spares the runtime zeroing bytes that are
// about to be overwritten; the price is append's rounded-up capacity.
func AppendFloats(dst []byte, src []float64) []byte {
	if hostLittleEndian {
		return append(dst, floatBytes(src)...)
	}
	n := len(dst)
	dst = Grow(dst, len(src)*8)[:n+len(src)*8]
	putWords(dst[n:], src)
	return dst
}

// GetFloats reverses PutFloats: src must hold 8·len(dst) bytes.
func GetFloats(dst []float64, src []byte) {
	src = src[:len(dst)*8]
	if hostLittleEndian {
		copy(floatBytes(dst), src)
		return
	}
	getWords(dst, src)
}

// putWords and getWords are the portable form of the two above, a word
// at a time; len(b) == 8·len(f).
func putWords(b []byte, f []float64) {
	for i, v := range f {
		binary.LittleEndian.PutUint64(b[i*8:i*8+8], math.Float64bits(v))
	}
}

func getWords(f []float64, b []byte) {
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8 : i*8+8]))
	}
}

// Shuffle de-interleaves src (re0, im0, re1, im1, ...) into
// (re0, re1, ..., im0, im1, ...), the paper's Solution-D "reshuffle"
// preprocessing. Odd-length tails keep their order in the first half.
func Shuffle(dst, src []float64) {
	if len(dst) != len(src) {
		panic("compress: Shuffle length mismatch")
	}
	half := (len(src) + 1) / 2
	for i, v := range src {
		if i%2 == 0 {
			dst[i/2] = v
		} else {
			dst[half+i/2] = v
		}
	}
}

// Unshuffle reverses Shuffle.
func Unshuffle(dst, src []float64) {
	if len(dst) != len(src) {
		panic("compress: Unshuffle length mismatch")
	}
	half := (len(src) + 1) / 2
	for i := range dst {
		if i%2 == 0 {
			dst[i] = src[i/2]
		} else {
			dst[i] = src[half+i/2]
		}
	}
}

// ByteShuffle transposes an 8×N block: output groups byte 0 of every
// float64, then byte 1, etc. This is the Blosc-style shuffle that helps
// dictionary coders find runs in floating-point data.
func ByteShuffle(dst, src []byte) {
	n := len(src) / 8
	if len(dst) < n*8 {
		panic("compress: ByteShuffle short dst")
	}
	for i := 0; i < n; i++ {
		for b := 0; b < 8; b++ {
			dst[b*n+i] = src[i*8+b]
		}
	}
	copy(dst[n*8:], src[n*8:])
}

// ByteUnshuffle reverses ByteShuffle.
func ByteUnshuffle(dst, src []byte) {
	n := len(src) / 8
	if len(dst) < n*8 {
		panic("compress: ByteUnshuffle short dst")
	}
	for i := 0; i < n; i++ {
		for b := 0; b < 8; b++ {
			dst[i*8+b] = src[b*n+i]
		}
	}
	copy(dst[n*8:], src[n*8:])
}

// CheckBound verifies that got respects the error contract of opt against
// want, returning the index of the first violation or -1. Used by tests
// and the harness's self-check mode.
func CheckBound(want, got []float64, opt Options) int {
	if len(want) != len(got) {
		return 0
	}
	for i := range want {
		switch opt.Mode {
		case Lossless:
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				return i
			}
		case Absolute:
			if math.Abs(want[i]-got[i]) > opt.Bound*(1+1e-12) {
				return i
			}
		case PointwiseRelative:
			if math.Abs(want[i]-got[i]) > opt.Bound*math.Abs(want[i])*(1+1e-12) {
				return i
			}
		}
	}
	return -1
}

// Ratio returns the compression ratio raw/compressed for n float64
// values encoded into len(payload) bytes.
func Ratio(n int, payload int) float64 {
	if payload == 0 {
		return math.Inf(1)
	}
	return float64(n*8) / float64(payload)
}
