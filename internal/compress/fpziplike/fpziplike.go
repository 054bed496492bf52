// Package fpziplike implements the FPZIP compression model (Lindstrom &
// Isenburg 2006) used by the paper as a comparator (§4.1): predictive
// coding of floating-point values mapped to a monotonic integer domain,
// with lossy operation controlled by a *precision* — the number of
// significant leading bits kept per value. The paper maps precisions
// 16/18/22/24/28 to pointwise relative bounds 1E-1…1E-5; this package
// exposes both knobs.
package fpziplike

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"qcsim/internal/bitio"
	"qcsim/internal/compress"
)

const magic = 0x50 // 'P'

// signExpBits is the sign+exponent width of an IEEE 754 double.
const signExpBits = 12

// Codec implements the FPZIP model.
type Codec struct {
	// Precision, when nonzero, fixes the number of significant bits
	// kept (4..64) regardless of Options.Bound, matching FPZIP's
	// native interface. When zero, precision is derived from the
	// pointwise relative bound.
	Precision int

	pool sync.Pool // *compress.Flate
}

// New returns a bound-driven FPZIP-model codec.
func New() *Codec { return &Codec{} }

// NewPrecision returns a codec pinned at an explicit FPZIP precision.
func NewPrecision(p int) *Codec { return &Codec{Precision: p} }

// Name implements compress.Codec.
func (c *Codec) Name() string {
	if c.Precision != 0 {
		return fmt.Sprintf("fpzip-like(prec=%d)", c.Precision)
	}
	return "fpzip-like"
}

// PrecisionFor returns the FPZIP precision needed to honor a pointwise
// relative bound ε: 12 sign+exponent bits plus ceil(log2(1/ε)) mantissa
// bits.
func PrecisionFor(eps float64) int {
	m := int(math.Ceil(math.Log2(1 / eps)))
	if m < 0 {
		m = 0
	}
	p := signExpBits + m
	if p > 64 {
		p = 64
	}
	return p
}

// RelativeBoundFor returns the pointwise relative error bound implied by
// an FPZIP precision (the inverse of PrecisionFor).
func RelativeBoundFor(prec int) float64 {
	if prec >= 64 {
		return 0
	}
	m := prec - signExpBits
	if m < 0 {
		m = 0
	}
	return math.Ldexp(1, -m)
}

func (c *Codec) precision(opt compress.Options) (int, error) {
	if c.Precision != 0 {
		if c.Precision < 4 || c.Precision > 64 {
			return 0, fmt.Errorf("fpziplike: precision %d out of range", c.Precision)
		}
		return c.Precision, nil
	}
	switch opt.Mode {
	case compress.Lossless:
		return 64, nil
	case compress.PointwiseRelative:
		return PrecisionFor(opt.Bound), nil
	default:
		return 0, fmt.Errorf("fpziplike: mode %v unsupported (FPZIP controls error by precision)", opt.Mode)
	}
}

// Compress implements compress.Codec.
func (c *Codec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	prec, err := c.precision(opt)
	if err != nil {
		return nil, err
	}
	truncMask := ^uint64(0)
	if prec < 64 {
		truncMask <<= uint(64 - prec)
	}
	// Residual coding in the monotone-integer domain.
	w := bitio.NewWriter(len(src) * 4)
	var exceptions []byte
	nexc := 0
	var prev uint64
	checkBound := opt.Mode == compress.PointwiseRelative && c.Precision == 0
	epsilon := opt.Bound
	if c.Precision != 0 {
		// Explicit precision defines its own bound for the exception
		// check (used only for non-finite values then).
		epsilon = math.Inf(1)
	}
	for i, v := range src {
		bits := math.Float64bits(v)
		t := bits & truncMask
		rec := math.Float64frombits(t)
		bad := math.IsNaN(v) || math.IsInf(v, 0)
		if !bad && checkBound && math.Abs(v-rec) > epsilon*math.Abs(v) {
			bad = true // denormal underflow of the precision contract
		}
		if bad && prec < 64 {
			exceptions = binary.LittleEndian.AppendUint32(exceptions, uint32(i))
			exceptions = binary.LittleEndian.AppendUint64(exceptions, bits)
			nexc++
		}
		u := monotone(t)
		d := u - prev // wrapping residual
		prev = u
		writeResidual(w, zigzag(d))
	}
	w.Align()

	var pre []byte
	pre = append(pre, byte(prec))
	pre = binary.LittleEndian.AppendUint32(pre, uint32(nexc))
	pre = append(pre, exceptions...)
	pre = append(pre, w.Bytes()...)

	f := c.flate()
	defer c.pool.Put(f)
	body := f.Deflate(pre)
	dst = compress.Grow(dst, compress.HeaderSize+len(body))
	dst = compress.AppendHeader(dst, compress.Header{Magic: magic, Mode: opt.Mode, Bound: opt.Bound, Count: uint32(len(src))})
	return append(dst, body...), nil
}

// flate takes a DEFLATE working set from c's pool; hand it back with
// c.pool.Put once nothing refers to the slices it returned.
func (c *Codec) flate() *compress.Flate {
	if f, _ := c.pool.Get().(*compress.Flate); f != nil {
		return f
	}
	return new(compress.Flate)
}

// maxPre bounds the pre-DEFLATE payload of an n-value block — precision
// byte, exception count, one 12-byte exception and one 7+64-bit residual
// per value — so that Decompress can refuse a stream that inflates past
// it.
func maxPre(n int) int { return 1 + 4 + 12*n + (9*n + 8) }

// Decompress implements compress.Codec.
func (c *Codec) Decompress(dst []float64, data []byte) error {
	hdr, payload, err := compress.ParseHeader(data, magic)
	if err != nil {
		return err
	}
	if int(hdr.Count) != len(dst) {
		return fmt.Errorf("%w: count %d, dst %d", compress.ErrCorrupt, hdr.Count, len(dst))
	}
	f := c.flate()
	defer c.pool.Put(f)
	pre, err := f.Inflate(payload, maxPre(len(dst)))
	if err != nil {
		return err
	}
	if len(pre) < 1+4 {
		return fmt.Errorf("%w: truncated", compress.ErrCorrupt)
	}
	prec := int(pre[0])
	if prec < 4 || prec > 64 {
		return fmt.Errorf("%w: precision %d", compress.ErrCorrupt, prec)
	}
	nexc := int(binary.LittleEndian.Uint32(pre[1:]))
	pre = pre[5:]
	if len(pre) < nexc*12 {
		return fmt.Errorf("%w: truncated exceptions", compress.ErrCorrupt)
	}
	type exc struct {
		idx  uint32
		bits uint64
	}
	excs := make([]exc, nexc)
	for i := range excs {
		excs[i].idx = binary.LittleEndian.Uint32(pre)
		excs[i].bits = binary.LittleEndian.Uint64(pre[4:])
		pre = pre[12:]
	}
	br := bitio.NewReader(pre)
	var prev uint64
	for i := range dst {
		z, err := readResidual(br)
		if err != nil {
			return fmt.Errorf("%w: residual stream: %v", compress.ErrCorrupt, err)
		}
		u := prev + unzigzag(z)
		prev = u
		dst[i] = math.Float64frombits(unmonotone(u))
	}
	for _, e := range excs {
		if int(e.idx) >= len(dst) {
			return fmt.Errorf("%w: exception index", compress.ErrCorrupt)
		}
		dst[e.idx] = math.Float64frombits(e.bits)
	}
	return nil
}

// writeResidual emits a 7-bit bit-length (0..64) followed by that many
// bits of the zigzagged residual.
func writeResidual(w *bitio.Writer, z uint64) {
	n := bits.Len64(z)
	w.WriteBits(uint64(n), 7)
	if n > 0 {
		w.WriteBits(z, uint(n))
	}
}

func readResidual(r *bitio.Reader) (uint64, error) {
	n, err := r.ReadBits(7)
	if err != nil {
		return 0, err
	}
	if n > 64 {
		return 0, fmt.Errorf("residual length %d", n)
	}
	if n == 0 {
		return 0, nil
	}
	return r.ReadBits(uint(n))
}

// monotone maps IEEE 754 bit patterns to an order-preserving unsigned
// integer domain (negative values reversed).
func monotone(bits uint64) uint64 {
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 0x8000000000000000
}

// unmonotone inverts monotone.
func unmonotone(u uint64) uint64 {
	if u>>63 != 0 {
		return u &^ 0x8000000000000000
	}
	return ^u
}

func zigzag(d uint64) uint64 {
	s := int64(d)
	return uint64((s << 1) ^ (s >> 63))
}

func unzigzag(z uint64) uint64 {
	return (z >> 1) ^ uint64(-(int64(z & 1)))
}
