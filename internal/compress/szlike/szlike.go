// Package szlike implements the SZ 2.1 compression model used as the
// paper's Solutions A and B (§4.1–4.2): Lorenzo (previous-value)
// prediction, linear-scaling quantization against the error bound,
// Huffman coding of the quantization tokens, and a final lossless
// dictionary pass. Pointwise-relative bounds go through the SZ 2.1
// logarithm transform so the quantizer can work with an absolute bound.
//
// Solution A treats the block as a flat 1D stream (stride 1, 65,536
// quantization bins). Solution B is complex-type aware: it predicts the
// real and imaginary streams independently (stride 2) and caps the
// quantizer at 16,384 bins, trading a little ratio for speed exactly as
// the paper describes.
package szlike

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"qcsim/internal/bitio"
	"qcsim/internal/compress"
	"qcsim/internal/huffman"
)

const magic = 0x53 // 'S'

// Codec implements the SZ model. Construct with NewA or NewB.
type Codec struct {
	// Stride is the prediction stride: 1 for Solution A, 2 for
	// Solution B (independent real/imaginary Lorenzo chains).
	Stride int
	// Bins is the quantization bin budget (65536 for A, 16384 for B).
	Bins int

	name string

	pool sync.Pool // *compress.Flate
}

// NewA returns Solution A: flat 1D prediction, 65,536 bins.
func NewA() *Codec { return &Codec{Stride: 1, Bins: 65536, name: "sz-a"} }

// NewB returns Solution B: complex-aware prediction, 16,384 bins.
func NewB() *Codec { return &Codec{Stride: 2, Bins: 16384, name: "sz-b"} }

// Name implements compress.Codec.
func (c *Codec) Name() string {
	if c.name != "" {
		return c.name
	}
	return fmt.Sprintf("sz-like(stride=%d,bins=%d)", c.Stride, c.Bins)
}

// sign codes for the pointwise-relative (log-domain) path.
const (
	signZero    = 0 // value is exactly ±0
	signPos     = 1
	signNeg     = 2
	signLiteral = 3 // non-finite or otherwise unrepresentable: raw bits
)

// Compress implements compress.Codec.
func (c *Codec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if c.Stride < 1 {
		return nil, fmt.Errorf("szlike: stride %d", c.Stride)
	}
	var pre []byte
	switch opt.Mode {
	case compress.Lossless, compress.Absolute:
		bound := opt.Bound
		if opt.Mode == compress.Lossless {
			bound = 0
		}
		body, err := c.encodeAbs(src, bound)
		if err != nil {
			return nil, err
		}
		pre = body
	case compress.PointwiseRelative:
		body, err := c.encodeRel(src, opt.Bound)
		if err != nil {
			return nil, err
		}
		pre = body
	}

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

// encodeAbs runs the prediction+quantization pipeline directly on the
// values with an absolute bound (0 means every point becomes a literal,
// i.e. lossless).
func (c *Codec) encodeAbs(src []float64, bound float64) ([]byte, error) {
	tokens := make([]uint16, len(src))
	var literals []byte
	pred := make([]float64, c.Stride)
	half := c.Bins / 2
	for i, v := range src {
		p := pred[i%c.Stride]
		if bound > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			m := math.Round((v - p) / (2 * bound))
			if math.Abs(m) < float64(half-1) {
				q := p + float64(2*bound*m)
				if math.Abs(q-v) <= bound {
					tokens[i] = uint16(int(m) + half)
					pred[i%c.Stride] = q
					continue
				}
			}
		}
		tokens[i] = 0 // literal marker
		literals = binary.LittleEndian.AppendUint64(literals, math.Float64bits(v))
		pred[i%c.Stride] = v
	}
	return c.assemble(0, bound, tokens, literals, nil)
}

// encodeRel log-transforms the magnitudes and quantizes with the derived
// absolute bound, keeping a 2-bit sign stream (§4.1; the SZ 2.1
// pointwise-relative scheme).
func (c *Codec) encodeRel(src []float64, eps float64) ([]byte, error) {
	logBound := float64(math.Log1p(eps) / 2) // |L-L'| ≤ a ⇒ rel err ≤ e^a-1; halve for margin
	tokens := make([]uint16, len(src))
	signs := bitio.NewWriter(len(src)/4 + 8)
	var literals []byte
	pred := make([]float64, c.Stride)
	half := c.Bins / 2
	for i, v := range src {
		var code uint64
		switch {
		case v == 0:
			code = signZero
		case math.IsNaN(v) || math.IsInf(v, 0):
			code = signLiteral
		case v > 0:
			code = signPos
		default:
			code = signNeg
		}
		if code == signZero {
			signs.WriteBits(code, 2)
			tokens[i] = 0 // unused slot; keeps streams aligned
			continue
		}
		if code == signLiteral {
			signs.WriteBits(code, 2)
			tokens[i] = 0
			literals = binary.LittleEndian.AppendUint64(literals, math.Float64bits(v))
			continue
		}
		l := math.Log(math.Abs(v))
		p := pred[i%c.Stride]
		m := math.Round((l - p) / (2 * logBound))
		if math.Abs(m) < float64(half-1) {
			q := p + float64(2*logBound*m)
			rec := math.Exp(q)
			if math.Abs(rec-math.Abs(v)) <= eps*math.Abs(v) {
				signs.WriteBits(code, 2)
				tokens[i] = uint16(int(m) + half)
				pred[i%c.Stride] = q
				continue
			}
		}
		// Unpredictable: store raw.
		signs.WriteBits(signLiteral, 2)
		tokens[i] = 0
		literals = binary.LittleEndian.AppendUint64(literals, math.Float64bits(v))
		pred[i%c.Stride] = l
	}
	return c.assemble(1, logBound, tokens, literals, signs.Bytes())
}

// assemble lays out the pre-flate payload:
// kind(1) stride(1) bins(u32) bound(f64) lenHuff(u32) huff lenSigns(u32) signs literals
func (c *Codec) assemble(kind byte, bound float64, tokens []uint16, literals, signs []byte) ([]byte, error) {
	huff := huffman.Encode(tokens)
	out := make([]byte, 0, len(huff)+len(literals)+len(signs)+32)
	out = append(out, kind, byte(c.Stride))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.Bins))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(bound))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(huff)))
	out = append(out, huff...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(signs)))
	out = append(out, signs...)
	return append(out, literals...), nil
}

// maxPre bounds assemble's output for an n-value block — the 18-byte
// preamble, a Huffman stream of at most n table entries (22 bits) and n
// codes of huffman.MaxCodeLen bits, 2 sign bits and one 8-byte literal
// per value — so that Decompress can refuse a stream that inflates past
// it.
func maxPre(n int) int { return 18 + (8 + 3*n + 4*n) + 4 + (n/4 + 8) + 8*n }

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
	if len(pre) < 1+1+4+8+4 {
		return fmt.Errorf("%w: truncated preamble", compress.ErrCorrupt)
	}
	kind := pre[0]
	stride := int(pre[1])
	if stride < 1 || stride > 16 {
		return fmt.Errorf("%w: stride %d", compress.ErrCorrupt, stride)
	}
	bins := int(binary.LittleEndian.Uint32(pre[2:]))
	if bins < 4 || bins > 65536 {
		return fmt.Errorf("%w: bins %d", compress.ErrCorrupt, bins)
	}
	bound := math.Float64frombits(binary.LittleEndian.Uint64(pre[6:]))
	nh := int(binary.LittleEndian.Uint32(pre[14:]))
	pre = pre[18:]
	if len(pre) < nh+4 {
		return fmt.Errorf("%w: truncated huffman", compress.ErrCorrupt)
	}
	tokens, err := huffman.Decode(pre[:nh])
	if err != nil {
		return fmt.Errorf("%w: %v", compress.ErrCorrupt, err)
	}
	if len(tokens) != len(dst) {
		return fmt.Errorf("%w: token count %d", compress.ErrCorrupt, len(tokens))
	}
	pre = pre[nh:]
	ns := int(binary.LittleEndian.Uint32(pre))
	pre = pre[4:]
	if len(pre) < ns {
		return fmt.Errorf("%w: truncated signs", compress.ErrCorrupt)
	}
	signs := pre[:ns]
	literals := pre[ns:]

	half := bins / 2
	pred := make([]float64, stride)
	readLiteral := func() (float64, error) {
		if len(literals) < 8 {
			return 0, fmt.Errorf("%w: literal stream exhausted", compress.ErrCorrupt)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(literals))
		literals = literals[8:]
		return v, nil
	}

	switch kind {
	case 0: // absolute / lossless
		for i := range dst {
			tok := tokens[i]
			if tok == 0 {
				v, err := readLiteral()
				if err != nil {
					return err
				}
				dst[i] = v
				pred[i%stride] = v
				continue
			}
			m := float64(int(tok) - half)
			v := pred[i%stride] + float64(2*bound*m)
			dst[i] = v
			pred[i%stride] = v
		}
	case 1: // pointwise relative (log domain)
		sr := bitio.NewReader(signs)
		for i := range dst {
			code, err := sr.ReadBits(2)
			if err != nil {
				return fmt.Errorf("%w: sign stream", compress.ErrCorrupt)
			}
			switch code {
			case signZero:
				dst[i] = 0
			case signLiteral:
				v, err := readLiteral()
				if err != nil {
					return err
				}
				dst[i] = v
				if v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
					pred[i%stride] = math.Log(math.Abs(v))
				}
			default:
				m := float64(int(tokens[i]) - half)
				l := pred[i%stride] + float64(2*bound*m)
				pred[i%stride] = l
				v := math.Exp(l)
				if code == signNeg {
					v = -v
				}
				dst[i] = v
			}
		}
	default:
		return fmt.Errorf("%w: kind %d", compress.ErrCorrupt, kind)
	}
	return nil
}
