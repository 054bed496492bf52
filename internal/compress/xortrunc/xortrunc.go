// Package xortrunc implements the paper's tailored lossy compressor —
// Solution C (§4.2): XOR leading-zero byte reduction (FPC-style two-bit
// codes) + bit-plane truncation driven by the pointwise relative error
// bound (Eq. 12) + a final lossless dictionary pass. Solution D is the
// same pipeline with the real/imaginary reshuffle preprocessing step.
//
// Truncation zeroes low-order mantissa bits, so the reconstructed value
// satisfies the paper's one-sided contract |d'| ∈ [|d|(1-ε), |d|]: keeping
// m mantissa bits bounds the relative error by 2^-m. Because the dropped
// bits of quantum state data are effectively random, the errors are
// uniform on (0, ε] and uncorrelated (paper Fig. 14), which the tests and
// the Fig. 14 harness verify.
package xortrunc

import (
	"encoding/binary"
	"fmt"
	"math"

	"qcsim/internal/bitio"
	"qcsim/internal/compress"
)

const magic = 0x43 // 'C'

// signExpBits is the sign+exponent width of IEEE 754 double precision
// (Bit_Count(Sign&Exp) in the paper's Eq. 12).
const signExpBits = 12

// Codec implements Solutions C (Shuffle=false) and D (Shuffle=true).
// Codecs are safe for concurrent use.
type Codec struct {
	// Shuffle enables the Solution-D de-interleave of real and
	// imaginary parts before the XOR/truncation pipeline.
	Shuffle bool
	// DisableLossless skips the final flate pass (useful for isolating
	// the truncation stage in ablation benchmarks).
	DisableLossless bool

	flate compress.FlatePool
}

// New returns a Solution-C codec; NewShuffled returns Solution D.
func New() *Codec         { return &Codec{} }
func NewShuffled() *Codec { return &Codec{Shuffle: true} }

// Name implements compress.Codec.
func (c *Codec) Name() string {
	if c.Shuffle {
		return "xor-d"
	}
	return "xor-c"
}

// KeepBits returns the number of significant leading bits retained for a
// given options set, the paper's Sig_Bit_Count (Eq. 12): sign+exponent
// bits minus the exponent of the relative error bound. maxExp is the
// largest base-2 exponent in the block, used only in Absolute mode.
func KeepBits(opt compress.Options, maxExp int) int {
	switch opt.Mode {
	case compress.Lossless:
		return 64
	case compress.PointwiseRelative:
		m := int(math.Ceil(math.Log2(1 / opt.Bound)))
		if m < 0 {
			m = 0
		}
		k := signExpBits + m
		if k > 64 {
			k = 64
		}
		return k
	case compress.Absolute:
		// Keep mantissa bits so that 2^(maxExp-m) ≤ bound; values with
		// smaller exponents then have strictly smaller absolute error.
		m := maxExp - int(math.Floor(math.Log2(opt.Bound)))
		if m < 0 {
			m = 0
		}
		k := signExpBits + m
		if k > 64 {
			k = 64
		}
		return k
	default:
		return 64
	}
}

type exception struct {
	idx  uint32
	bits uint64
}

// Compress implements compress.Codec.
func (c *Codec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	hdr := compress.Header{Magic: magic, Mode: opt.Mode, Bound: opt.Bound, Count: uint32(len(src))}
	dst = compress.AppendHeader(dst, hdr)

	vals := src
	if c.Shuffle {
		vals = make([]float64, len(src))
		compress.Shuffle(vals, src)
	}

	maxExp := -1075
	if opt.Mode == compress.Absolute {
		for _, v := range vals {
			if v != 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
				if e := math.Ilogb(v); e > maxExp {
					maxExp = e
				}
			}
		}
	}
	keep := KeepBits(opt, maxExp)
	nbytes := (keep + 7) / 8
	truncMask := ^uint64(0)
	if keep < 64 {
		truncMask <<= uint(64 - keep)
	}

	// Stage 1+2: truncate and XOR-encode into a 2-bit code stream and a
	// byte body, collecting exceptions for values the truncation cannot
	// bound (denormals under a relative bound, non-finite values).
	codes := bitio.NewWriter(len(vals)/4 + 8)
	body := make([]byte, 0, len(vals)*nbytes)
	var exceptions []exception
	var prev uint64
	for i, v := range vals {
		bits := math.Float64bits(v)
		t := bits & truncMask
		if violates(v, t, opt) {
			exceptions = append(exceptions, exception{uint32(i), bits})
			// The truncated form still participates in the XOR chain so
			// the decoder's chain state matches.
		}
		x := t ^ prev
		prev = t
		lead := leadingSameBytes(x)
		if lead > 3 {
			lead = 3
		}
		if lead > nbytes {
			lead = nbytes
		}
		codes.WriteBits(uint64(lead), 2)
		for b := lead; b < nbytes; b++ {
			body = append(body, byte(x>>uint(56-8*b)))
		}
	}

	// Assemble the pre-lossless payload.
	var pre []byte
	pre = append(pre, boolByte(c.Shuffle), byte(keep))
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(exceptions)))
	for _, e := range exceptions {
		pre = binary.LittleEndian.AppendUint32(pre, e.idx)
		pre = binary.LittleEndian.AppendUint64(pre, e.bits)
	}
	codeBytes := codes.Bytes()
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(codeBytes)))
	pre = append(pre, codeBytes...)
	pre = append(pre, body...)

	if c.DisableLossless {
		dst = append(dst, 0)
		return append(dst, pre...), nil
	}
	dst = append(dst, 1)
	// Stage 3: lossless dictionary pass (the paper's Zstd stage).
	return c.flate.Deflate(dst, pre)
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(dst []float64, data []byte) error {
	hdr, payload, err := compress.ParseHeader(data, magic)
	if err != nil {
		return err
	}
	if int(hdr.Count) != len(dst) {
		return fmt.Errorf("%w: count %d, dst %d", compress.ErrCorrupt, hdr.Count, len(dst))
	}
	if len(payload) < 1 {
		return fmt.Errorf("%w: truncated", compress.ErrCorrupt)
	}
	flated := payload[0] != 0
	payload = payload[1:]
	pre := payload
	if flated {
		f := c.flate.Get()
		defer c.flate.Put(f)
		if pre, err = f.Inflate(payload, maxPre(len(dst))); err != nil {
			return err
		}
	}

	if len(pre) < 2+4 {
		return fmt.Errorf("%w: truncated preamble", compress.ErrCorrupt)
	}
	shuffled := pre[0] != 0
	keep := int(pre[1])
	if keep < 1 || keep > 64 {
		return fmt.Errorf("%w: keep bits %d", compress.ErrCorrupt, keep)
	}
	nbytes := (keep + 7) / 8
	pre = pre[2:]
	nexc := binary.LittleEndian.Uint32(pre)
	pre = pre[4:]
	if len(pre) < int(nexc)*12+4 {
		return fmt.Errorf("%w: truncated exceptions", compress.ErrCorrupt)
	}
	exceptions := make([]exception, nexc)
	for i := range exceptions {
		exceptions[i].idx = binary.LittleEndian.Uint32(pre)
		exceptions[i].bits = binary.LittleEndian.Uint64(pre[4:])
		pre = pre[12:]
	}
	codeLen := binary.LittleEndian.Uint32(pre)
	pre = pre[4:]
	if len(pre) < int(codeLen) {
		return fmt.Errorf("%w: truncated code stream", compress.ErrCorrupt)
	}
	codes := bitio.NewReader(pre[:codeLen])
	body := pre[codeLen:]

	vals := dst
	if shuffled {
		vals = make([]float64, len(dst))
	}
	var prev uint64
	bi := 0
	for i := range vals {
		lead64, err := codes.ReadBits(2)
		if err != nil {
			return fmt.Errorf("%w: code stream", compress.ErrCorrupt)
		}
		lead := int(lead64)
		if lead > nbytes {
			lead = nbytes
		}
		var x uint64
		for b := lead; b < nbytes; b++ {
			if bi >= len(body) {
				return fmt.Errorf("%w: body stream", compress.ErrCorrupt)
			}
			x |= uint64(body[bi]) << uint(56-8*b)
			bi++
		}
		t := prev ^ x
		prev = t
		vals[i] = math.Float64frombits(t)
	}
	for _, e := range exceptions {
		if int(e.idx) >= len(vals) {
			return fmt.Errorf("%w: exception index %d", compress.ErrCorrupt, e.idx)
		}
		vals[e.idx] = math.Float64frombits(e.bits)
	}
	if shuffled {
		compress.Unshuffle(dst, vals)
	}
	return nil
}

// maxPre bounds the pre-DEFLATE payload of an n-value block — preamble,
// one exception and 2 code bits per value, up to 8 body bytes each — so
// that Decompress can refuse a stream that inflates past it.
func maxPre(n int) int { return 2 + 4 + 12*n + 4 + (n/4 + 8) + 8*n }

// violates reports whether reconstructing v as the truncated bits t would
// break the error contract, requiring an exact exception entry.
func violates(v float64, t uint64, opt compress.Options) bool {
	if opt.Mode == compress.Lossless {
		return false
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return true
	}
	got := math.Float64frombits(t)
	switch opt.Mode {
	case compress.Absolute:
		return math.Abs(v-got) > opt.Bound
	case compress.PointwiseRelative:
		return math.Abs(v-got) > opt.Bound*math.Abs(v)
	}
	return false
}

// leadingSameBytes counts the number of leading (most significant) zero
// bytes of x — i.e. bytes identical to the previous value in the XOR
// chain.
func leadingSameBytes(x uint64) int {
	n := 0
	for n < 8 && byte(x>>uint(56-8*n)) == 0 {
		n++
	}
	return n
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
