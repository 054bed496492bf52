// Package zfplike implements the domain-transform compression model of
// ZFP (Lindstrom 2014) used by the paper as a comparator (§4.1): data are
// processed in blocks of 4 values per dimension; each block is aligned to
// a common exponent, converted to fixed point, decorrelated with ZFP's
// (non)orthogonal lifting transform, mapped to negabinary, and coded by
// bit planes from most to least significant, truncating planes below the
// error tolerance.
//
// Quantum state vectors are spiky rather than smooth, so the transform
// decorrelates poorly and this codec's ratios trail SZ's by 1–2 orders of
// magnitude — the paper's Fig. 7/8 observation, which the harness
// reproduces. Pointwise-relative bounds are handled by the paper's
// "fairness" preprocessing: a logarithm transform followed by
// absolute-bounded compression of the log-domain data.
package zfplike

import (
	"encoding/binary"
	"fmt"
	"math"

	"qcsim/internal/bitio"
	"qcsim/internal/compress"
)

const magic = 0x46 // 'F'

// blockLen is the ZFP 1D block size.
const blockLen = 4

// fixedPointBits is the headroom-adjusted fixed-point scale: values are
// scaled to q = v * 2^(fixedPointBits - e_max) so two levels of additions
// in the lifting transform cannot overflow int64.
const fixedPointBits = 60

// guardBits is the safety margin on the plane cutoff accounting for the
// lifting transform's worst-case error gain on truncated planes.
const guardBits = 4

// Codec implements the ZFP model.
type Codec struct{}

// New returns a ZFP-model codec.
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "zfp-like" }

// Compress implements compress.Codec.
func (c *Codec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	hdr := compress.Header{Magic: magic, Mode: opt.Mode, Bound: opt.Bound, Count: uint32(len(src))}

	switch opt.Mode {
	case compress.Lossless:
		// ZFP's fixed-point pipeline is not lossless on arbitrary
		// doubles; store raw (the paper never runs ZFP lossless).
		dst = compress.AppendHeader(compress.Grow(dst, compress.HeaderSize+8*len(src)), hdr)
		k := len(dst)
		dst = dst[:k+8*len(src)]
		compress.PutFloats(dst[k:], src)
		return dst, nil
	case compress.Absolute:
		body, exc := encodeAbs(src, opt.Bound)
		return assemble(dst, hdr, 0, body, exc, nil), nil
	case compress.PointwiseRelative:
		// Log-transform preprocessing (paper §4.1). Zeros and signs go
		// to a side stream exactly as in the SZ relative path.
		logs := make([]float64, len(src))
		signs := bitio.NewWriter(len(src)/4 + 8)
		var exc []exception
		for i, v := range src {
			switch {
			case v == 0:
				signs.WriteBits(0, 2)
				logs[i] = 0
			case math.IsNaN(v) || math.IsInf(v, 0):
				signs.WriteBits(3, 2)
				exc = append(exc, exception{uint32(i), math.Float64bits(v)})
				logs[i] = 0
			case v > 0:
				signs.WriteBits(1, 2)
				logs[i] = math.Log(v)
			default:
				signs.WriteBits(2, 2)
				logs[i] = math.Log(-v)
			}
		}
		logBound := math.Log1p(opt.Bound) / 2
		body, exc2 := encodeAbs(logs, logBound)
		exc = append(exc, exc2...)
		return assemble(dst, hdr, 1, body, exc, signs.Bytes()), nil
	}
	return nil, fmt.Errorf("zfplike: unsupported mode %v", opt.Mode)
}

type exception struct {
	idx  uint32
	bits uint64
}

// assemble appends the header and lays out: kind(1) lenSigns(u32) signs
// nExc(u32) exc body — in a dst grown once, to exactly that size.
func assemble(dst []byte, hdr compress.Header, kind byte, body []byte, exc []exception, signs []byte) []byte {
	dst = compress.Grow(dst, compress.HeaderSize+1+4+len(signs)+4+12*len(exc)+len(body))
	dst = compress.AppendHeader(dst, hdr)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(signs)))
	dst = append(dst, signs...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(exc)))
	for _, e := range exc {
		dst = binary.LittleEndian.AppendUint32(dst, e.idx)
		dst = binary.LittleEndian.AppendUint64(dst, e.bits)
	}
	return append(dst, body...)
}

// encodeAbs compresses xs under an absolute bound, returning the body and
// exceptions for blocks the fixed-point pipeline cannot bound (non-finite
// inputs).
func encodeAbs(xs []float64, bound float64) ([]byte, []exception) {
	w := bitio.NewWriter(len(xs))
	var exc []exception
	var blk [blockLen]float64
	for base := 0; base < len(xs); base += blockLen {
		n := len(xs) - base
		if n > blockLen {
			n = blockLen
		}
		for j := 0; j < blockLen; j++ {
			if j < n {
				blk[j] = xs[base+j]
			} else {
				blk[j] = 0
			}
		}
		encodeBlock(w, &blk, bound, base, &exc)
	}
	return w.Bytes(), exc
}

// encodeBlock encodes one 4-value block:
// allZero(1) [emax(12) firstPlane(7) planes...]
func encodeBlock(w *bitio.Writer, blk *[blockLen]float64, bound float64, base int, exc *[]exception) {
	emax := math.MinInt32
	for j, v := range blk {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			*exc = append(*exc, exception{uint32(base + j), math.Float64bits(v)})
			blk[j] = 0
			continue
		}
		if v != 0 {
			if e := math.Ilogb(v); e > emax {
				emax = e
			}
		}
	}
	if emax == math.MinInt32 {
		w.WriteBit(0) // all-zero block
		return
	}
	w.WriteBit(1)
	// Fixed-point conversion.
	scale := math.Ldexp(1, fixedPointBits-emax)
	var q [blockLen]int64
	for j, v := range blk {
		q[j] = int64(math.Round(v * scale))
	}
	forwardLift(&q)
	var u [blockLen]uint64
	for j, v := range q {
		u[j] = toNegabinary(v)
	}
	// Plane cutoff from the bound: dropping planes < c leaves per-value
	// error ≤ 2^(c+guard) in fixed point, i.e. 2^(c+guard+emax-fixedPointBits).
	cutoff := 0
	if bound > 0 {
		c := int(math.Floor(math.Log2(bound))) + fixedPointBits - emax - guardBits
		if c > 0 {
			cutoff = c
		}
		if cutoff > 63 {
			cutoff = 63
		}
	}
	// Verify the cutoff actually respects the bound on this block
	// (spiky data can defeat the analytic margin); lower it until it
	// does. cutoff 0 leaves only fixed-point rounding error, far below
	// any bound the evaluation uses.
	invScale := math.Ldexp(1, emax-fixedPointBits)
	for cutoff > 0 {
		var tq [blockLen]int64
		for j := 0; j < blockLen; j++ {
			tq[j] = fromNegabinary(u[j] &^ (uint64(1)<<uint(cutoff) - 1))
		}
		inverseLift(&tq)
		ok := true
		for j := 0; j < blockLen; j++ {
			if math.Abs(float64(float64(tq[j])*invScale)-blk[j]) > bound {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		cutoff--
	}
	w.WriteBits(uint64(emax+1075), 12) // bias covers double range
	w.WriteBits(uint64(cutoff), 7)
	// Per-coefficient significance: smooth blocks decorrelate into a
	// large average and near-zero differences, so the difference lanes
	// cost almost nothing — the transform-coding payoff ZFP relies on.
	for j := 0; j < blockLen; j++ {
		n := bits64(u[j]) - cutoff
		if n < 0 {
			n = 0
		}
		w.WriteBits(uint64(n), 7)
		if n > 0 {
			w.WriteBits(u[j]>>uint(cutoff), uint(n))
		}
	}
}

// negabinary mask constants: nbMask reinterpreted as int64 is nbMaskS.
const (
	nbMask  uint64 = 0xaaaaaaaaaaaaaaaa
	nbMaskS int64  = -6148914691236517206
)

// toNegabinary maps a two's-complement int64 to its negabinary code.
func toNegabinary(v int64) uint64 { return uint64(v+nbMaskS) ^ nbMask }

// fromNegabinary inverts toNegabinary.
func fromNegabinary(u uint64) int64 { return int64(u^nbMask) - nbMaskS }

// Decompress implements compress.Codec.
func (c *Codec) Decompress(dst []float64, data []byte) error {
	hdr, payload, err := compress.ParseHeader(data, magic)
	if err != nil {
		return err
	}
	if int(hdr.Count) != len(dst) {
		return fmt.Errorf("%w: count %d, dst %d", compress.ErrCorrupt, hdr.Count, len(dst))
	}
	if hdr.Mode == compress.Lossless {
		if len(payload) < len(dst)*8 {
			return fmt.Errorf("%w: raw payload", compress.ErrCorrupt)
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		return nil
	}
	if len(payload) < 1+4 {
		return fmt.Errorf("%w: truncated", compress.ErrCorrupt)
	}
	kind := payload[0]
	payload = payload[1:]
	ns := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < ns+4 {
		return fmt.Errorf("%w: truncated signs", compress.ErrCorrupt)
	}
	signs := payload[:ns]
	payload = payload[ns:]
	nexc := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < nexc*12 {
		return fmt.Errorf("%w: truncated exceptions", compress.ErrCorrupt)
	}
	excs := make([]exception, nexc)
	for i := range excs {
		excs[i].idx = binary.LittleEndian.Uint32(payload)
		excs[i].bits = binary.LittleEndian.Uint64(payload[4:])
		payload = payload[12:]
	}

	vals := make([]float64, len(dst))
	if err := decodeAbs(vals, payload); err != nil {
		return err
	}
	switch kind {
	case 0:
		copy(dst, vals)
	case 1:
		sr := bitio.NewReader(signs)
		for i := range dst {
			code, err := sr.ReadBits(2)
			if err != nil {
				return fmt.Errorf("%w: sign stream", compress.ErrCorrupt)
			}
			switch code {
			case 0:
				dst[i] = 0
			case 1:
				dst[i] = math.Exp(vals[i])
			case 2:
				dst[i] = -math.Exp(vals[i])
			case 3:
				dst[i] = 0 // patched by the exception pass below
			}
		}
	default:
		return fmt.Errorf("%w: kind %d", compress.ErrCorrupt, kind)
	}
	for _, e := range excs {
		if int(e.idx) >= len(dst) {
			return fmt.Errorf("%w: exception index", compress.ErrCorrupt)
		}
		dst[e.idx] = math.Float64frombits(e.bits)
	}
	return nil
}

func decodeAbs(dst []float64, body []byte) error {
	r := bitio.NewReader(body)
	var q [blockLen]int64
	for base := 0; base < len(dst); base += blockLen {
		nz, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("%w: block header", compress.ErrCorrupt)
		}
		n := len(dst) - base
		if n > blockLen {
			n = blockLen
		}
		if nz == 0 {
			for j := 0; j < n; j++ {
				dst[base+j] = 0
			}
			continue
		}
		emaxB, err := r.ReadBits(12)
		if err != nil {
			return fmt.Errorf("%w: emax", compress.ErrCorrupt)
		}
		emax := int(emaxB) - 1075
		cutoff64, err := r.ReadBits(7)
		if err != nil {
			return fmt.Errorf("%w: cutoff", compress.ErrCorrupt)
		}
		cutoff := int(cutoff64)
		var u [blockLen]uint64
		for j := 0; j < blockLen; j++ {
			nb, err := r.ReadBits(7)
			if err != nil {
				return fmt.Errorf("%w: significance", compress.ErrCorrupt)
			}
			if nb > 64 {
				return fmt.Errorf("%w: significance %d", compress.ErrCorrupt, nb)
			}
			if nb > 0 {
				bits, err := r.ReadBits(uint(nb))
				if err != nil {
					return fmt.Errorf("%w: coefficient bits", compress.ErrCorrupt)
				}
				u[j] = bits << uint(cutoff)
			}
		}
		for j := 0; j < blockLen; j++ {
			q[j] = fromNegabinary(u[j])
		}
		inverseLift(&q)
		scale := math.Ldexp(1, emax-fixedPointBits)
		for j := 0; j < n; j++ {
			dst[base+j] = float64(q[j]) * scale
		}
	}
	return nil
}

// forwardLift is ZFP's 1D forward decorrelating transform.
func forwardLift(p *[blockLen]int64) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// inverseLift exactly inverts forwardLift.
func inverseLift(p *[blockLen]int64) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// bits64 returns the position of the highest set bit + 1 (0 for zero).
func bits64(u uint64) int {
	n := 0
	for u != 0 {
		u >>= 1
		n++
	}
	return n
}
