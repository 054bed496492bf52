package qcsim

import (
	"fmt"

	"qcsim/internal/compress"
	"qcsim/internal/compress/registry"
)

// CodecMode selects how a codec interprets CodecOptions.Bound.
type CodecMode uint8

const (
	// CodecLossless requests bit-exact reconstruction; Bound is
	// ignored.
	CodecLossless CodecMode = iota
	// CodecAbsolute bounds the pointwise absolute error by Bound:
	// |d - d'| ≤ Bound for every value.
	CodecAbsolute
	// CodecPointwiseRelative bounds the pointwise relative error by
	// Bound: |d - d'| ≤ Bound·|d| for every value. This is the mode the
	// simulator's lossy levels use.
	CodecPointwiseRelative
)

// String implements fmt.Stringer.
func (m CodecMode) String() string {
	switch m {
	case CodecLossless:
		return "lossless"
	case CodecAbsolute:
		return "abs"
	case CodecPointwiseRelative:
		return "pwr"
	default:
		return fmt.Sprintf("CodecMode(%d)", uint8(m))
	}
}

// CodecOptions carries the per-call compression parameters.
type CodecOptions struct {
	Mode  CodecMode
	Bound float64
}

// Codec compresses and decompresses blocks of float64 values — for the
// simulator, the interleaved real/imaginary parts of one block of
// amplitudes.
//
// Contract (what RegisterCodec factories must provide):
//
//   - Compress appends the encoded form of src to dst (which may be
//     nil) and returns the extended slice. The payload must be
//     self-describing: Decompress receives only the bytes Compress
//     produced.
//   - Decompress writes exactly len(dst) values; implementations should
//     validate any stored count against len(dst) and fail on mismatch
//     rather than writing short.
//   - In CodecAbsolute and CodecPointwiseRelative modes every
//     reconstructed value must respect the requested bound; the engine's
//     fidelity ledger (the paper's Eq. 11) is only a valid lower bound
//     if the codec honors it.
//   - The bytes Compress appends must depend on src, opt and the
//     codec's configuration only — the block cache and the batch memo
//     key on them — and the returned slice should carry no spare
//     capacity, since the engine retains it.
//   - A Codec instance is used by one goroutine at a time, but the
//     engine holds one instance per simulator: factories registered with
//     RegisterCodec must return a fresh instance per call and must not
//     share mutable state between instances.
type Codec interface {
	// Name identifies the codec in reports (e.g. "xor-c").
	Name() string
	// Compress encodes src under opt, appending to dst.
	Compress(dst []byte, src []float64, opt CodecOptions) ([]byte, error)
	// Decompress decodes data into dst.
	Decompress(dst []float64, data []byte) error
}

// modeToInternal converts a public mode; unknown values surface as an
// error from Options.Validate inside the codecs.
func modeToInternal(m CodecMode) compress.ErrorMode {
	switch m {
	case CodecAbsolute:
		return compress.Absolute
	case CodecPointwiseRelative:
		return compress.PointwiseRelative
	default:
		return compress.Lossless
	}
}

func modeFromInternal(m compress.ErrorMode) CodecMode {
	switch m {
	case compress.Absolute:
		return CodecAbsolute
	case compress.PointwiseRelative:
		return CodecPointwiseRelative
	default:
		return CodecLossless
	}
}

// publicCodec adapts an engine codec to the public interface.
type publicCodec struct{ inner compress.Codec }

func (c publicCodec) Name() string { return c.inner.Name() }

func (c publicCodec) Compress(dst []byte, src []float64, opt CodecOptions) ([]byte, error) {
	return c.inner.Compress(dst, src, compress.Options{Mode: modeToInternal(opt.Mode), Bound: opt.Bound})
}

func (c publicCodec) Decompress(dst []float64, data []byte) error {
	return c.inner.Decompress(dst, data)
}

// engineCodec adapts a user-provided public codec to the engine
// interface so registered codecs plug into the compression pipeline.
type engineCodec struct{ outer Codec }

func (c engineCodec) Name() string { return c.outer.Name() }

func (c engineCodec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	return c.outer.Compress(dst, src, CodecOptions{Mode: modeFromInternal(opt.Mode), Bound: opt.Bound})
}

func (c engineCodec) Decompress(dst []float64, data []byte) error {
	return c.outer.Decompress(dst, data)
}

// RegisterCodec adds a named codec factory to the registry, making it
// selectable by WithCodec(name), NewCodec, and every CLI's -codec flag.
// The factory must return a fresh instance on every call (instances are
// never shared between simulators) and honor the Codec contract. Names
// are case-sensitive; registering a name that already exists — built-in,
// alias, or previously registered — is an error.
func RegisterCodec(name string, factory func() Codec) error {
	if factory == nil {
		return fmt.Errorf("%w: nil factory for %q", ErrBadConfig, name)
	}
	if err := registry.Register(name, func() compress.Codec {
		return engineCodec{outer: factory()}
	}); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// NewCodec returns a fresh codec by registry name or alias.
func NewCodec(name string) (Codec, error) {
	inner, err := registry.New(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownCodec, name, Codecs())
	}
	return publicCodec{inner: inner}, nil
}

// Codecs lists the selectable codec names (built-in and registered),
// sorted.
func Codecs() []string { return registry.Names() }

// CodecRatio returns the compression ratio raw/compressed for n float64
// values encoded into payloadBytes bytes.
func CodecRatio(n, payloadBytes int) float64 { return compress.Ratio(n, payloadBytes) }
