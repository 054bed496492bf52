package qcsim

import (
	"fmt"

	"qcsim/internal/compress"
	"qcsim/internal/compress/registry"
)

// Codec compresses and decompresses blocks of float64 values — for the
// simulator, the interleaved real/imaginary parts of one block of
// amplitudes. It is the engine's own codec interface; its documentation
// states the contract every codec, built-in or registered, must honor.
type Codec = compress.Codec

// CodecOptions carries the per-call compression parameters: a Mode and,
// for the lossy modes, the Bound.
type CodecOptions = compress.Options

// CodecMode selects how CodecOptions.Bound is interpreted.
type CodecMode = compress.ErrorMode

const (
	// CodecLossless requests bit-exact reconstruction; Bound is
	// ignored.
	CodecLossless = compress.Lossless
	// CodecAbsolute bounds the pointwise absolute error by Bound:
	// |d - d'| ≤ Bound for every value.
	CodecAbsolute = compress.Absolute
	// CodecPointwiseRelative bounds the pointwise relative error by
	// Bound: |d - d'| ≤ Bound·|d| for every value. This is the mode the
	// simulator's lossy levels use.
	CodecPointwiseRelative = compress.PointwiseRelative
)

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
	if err := registry.Register(name, factory); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// NewCodec returns a fresh codec by registry name or alias.
func NewCodec(name string) (Codec, error) {
	c, err := registry.New(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownCodec, name, Codecs())
	}
	return c, nil
}

// Codecs lists the selectable codec names (built-in and registered),
// sorted.
func Codecs() []string { return registry.Names() }

// CodecRatio returns the compression ratio raw/compressed for n float64
// values encoded into payloadBytes bytes.
func CodecRatio(n, payloadBytes int) float64 { return compress.Ratio(n, payloadBytes) }
