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
//
// Outside the Huffman stage every byte moves a word at a time. A value
// is encoded by a mask, an XOR, a leading-zero count and one 8-byte
// store, decoded by one 8-byte load and a shift; four 2-bit codes make a
// byte; the float test for the error bound runs only on
// words whose exponent field is all zeros or all ones, the only ones
// truncation can fail on. Header, code stream and body are written
// straight into one pooled scratch (a sync.Pool per codec, never state
// an idle simulator keeps), so Compress allocates the blob it returns,
// with cap == len, and Decompress nothing. The payload bytes are those
// of the byte-at-a-time encoder this replaced: registry's
// TestLossyPayloadBytesPinned holds every codec to hashes that encoder
// produced.
package xortrunc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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

	pool sync.Pool // *scratch
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

// scratch is everything one Compress or Decompress call needs besides
// its arguments. Like the lossless codec's, it lives in a sync.Pool and
// not with the engine's workers: an idle simulator must not retain a
// DEFLATE encoder and a block-sized buffer per worker.
type scratch struct {
	compress.Flate
	pre  []byte      // Compress: the pre-DEFLATE payload under construction
	vals []float64   // Solution D: the block, de-interleaved
	exc  []exception // Compress: values the truncation cannot bound
}

type exception struct {
	idx  uint32
	bits uint64
}

func (c *Codec) get() *scratch {
	if s, _ := c.pool.Get().(*scratch); s != nil {
		return s
	}
	return new(scratch)
}

// shuffled returns s.vals with length n, reallocating only to grow.
func (s *scratch) shuffled(n int) []float64 {
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	return s.vals[:n]
}

// The pre-DEFLATE payload:
//
//	shuffle flag, keep bits                    2 bytes
//	exception count                            u32
//	exceptions: index u32, exact bits u64      12 bytes each
//	code stream length ⌈n/4⌉                   u32
//	code stream: 2 bits a value, MSB first     ⌈n/4⌉ bytes
//	body: bytes lead…nbytes-1 of each XOR word, most significant first
//
// (integers little-endian). preFixed is everything before the code
// stream when there are no exceptions — the layout encode writes in
// place; a block with exceptions has its table spliced in afterwards.
const preFixed = 2 + 4 + 4

// Compress implements compress.Codec. It allocates the blob it returns
// — with cap == len when dst has no room — and nothing else.
func (c *Codec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	s := c.get()
	defer c.pool.Put(s)

	vals := src
	if c.Shuffle {
		vals = s.shuffled(len(src))
		compress.Shuffle(vals, src)
	}
	body, flag := s.encode(vals, opt, c.Shuffle), byte(0)
	if !c.DisableLossless {
		// Stage 3: lossless dictionary pass (the paper's Zstd stage).
		body, flag = s.Deflate(body), 1
	}
	dst = compress.Grow(dst, compress.HeaderSize+1+len(body))
	dst = compress.AppendHeader(dst, compress.Header{Magic: magic, Mode: opt.Mode, Bound: opt.Bound, Count: uint32(len(src))})
	return append(append(dst, flag), body...), nil
}

// encode is stages 1+2: truncate and XOR-encode vals into a 2-bit code
// stream and a byte body, with an exception for every value the
// truncation cannot bound (denormals under a relative bound, non-finite
// values). The result is the pre-DEFLATE payload, in s.pre.
//
// A value costs a mask, an XOR, a leading-zero count and one 8-byte
// store: the XOR word is shifted so its first differing byte leads and
// stored whole, and the write position advances by the nbytes-lead
// bytes that count — what lies beyond them is zero or about to be
// overwritten. Four codes make one code-stream byte.
func (s *scratch) encode(vals []float64, opt compress.Options, shuffle bool) []byte {
	n := len(vals)
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
	maxLead := min(3, nbytes)
	lossy := opt.Mode != compress.Lossless
	// Keeping m = keep-12 mantissa bits moves a normal value by less
	// than 2^-m of itself (2^(maxExp-m) under an absolute bound), so
	// when that is within the bound — it is, unless the logarithm in
	// KeepBits rounded across an integer — only zero-exponent and
	// all-ones-exponent words can violate and need the float test.
	checkAll := false
	if lossy && keep < 64 {
		unit := -(keep - signExpBits)
		if opt.Mode == compress.Absolute {
			unit += maxExp
		}
		checkAll = !(math.Ldexp(1, unit) <= opt.Bound)
	}

	codeLen := (n + 3) / 4
	// Room for 8 bytes a value: a store never reaches past that, as each
	// starts at most nbytes ≤ 8 after the one before.
	if need := preFixed + codeLen + 8*n; cap(s.pre) < need {
		s.pre = make([]byte, need)
	}
	pre := s.pre[:cap(s.pre)]
	codes, body := pre[preFixed:preFixed+codeLen], pre[preFixed+codeLen:]
	exc := s.exc[:0]
	var prev, code uint64
	bi := 0
	for i, v := range vals {
		w := math.Float64bits(v)
		t := w & truncMask
		// e-1 ≥ 0x7fe: the exponent field is 0 or 0x7ff. Zeros (w<<1 == 0)
		// never violate.
		if e := w >> 52 & 0x7ff; lossy && (e-1 >= 0x7fe && w<<1 != 0 || checkAll) && violates(v, t, opt) {
			// The truncated form still participates in the XOR chain so
			// the decoder's chain state matches.
			exc = append(exc, exception{uint32(i), w})
		}
		x := t ^ prev
		prev = t
		lead := min(bits.LeadingZeros64(x)>>3, maxLead)
		binary.BigEndian.PutUint64(body[bi:], x<<(8*uint(lead)))
		bi += nbytes - lead
		code = code<<2 | uint64(lead)
		if i&3 == 3 {
			codes[i>>2] = byte(code)
		}
	}
	if n&3 != 0 {
		codes[n>>2] = byte(code << (2 * uint(4-n&3)))
	}
	s.exc = exc

	end := preFixed + codeLen + bi
	pre[0], pre[1] = boolByte(shuffle), byte(keep)
	binary.LittleEndian.PutUint32(pre[2:], uint32(len(exc)))
	binary.LittleEndian.PutUint32(pre[6:], uint32(codeLen))
	if len(exc) == 0 {
		return pre[:end]
	}
	// The rare path: open a gap for the exception table in front of the
	// code stream's length.
	gap := 12 * len(exc)
	s.pre = slices.Grow(pre[:end], gap)
	pre = s.pre[:end+gap]
	copy(pre[6+gap:], pre[6:end])
	for i, e := range exc {
		binary.LittleEndian.PutUint32(pre[6+12*i:], e.idx)
		binary.LittleEndian.PutUint64(pre[6+12*i+4:], e.bits)
	}
	return pre
}

// Decompress implements compress.Codec. It allocates nothing once the
// codec's pooled scratch has seen a block of this size.
func (c *Codec) Decompress(dst []float64, data []byte) error {
	hdr, payload, err := compress.ParseHeader(data, magic)
	if err != nil {
		return err
	}
	n := len(dst)
	if int(hdr.Count) != n {
		return fmt.Errorf("%w: count %d, dst %d", compress.ErrCorrupt, hdr.Count, n)
	}
	if len(payload) < 1 {
		return fmt.Errorf("%w: truncated", compress.ErrCorrupt)
	}
	s := c.get()
	defer c.pool.Put(s)
	pre := payload[1:]
	if payload[0] != 0 {
		if pre, err = s.Inflate(pre, maxPre(n)); err != nil {
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
	nexc := binary.LittleEndian.Uint32(pre[2:])
	pre = pre[6:]
	if uint64(len(pre)) < uint64(nexc)*12+4 {
		return fmt.Errorf("%w: truncated exceptions", compress.ErrCorrupt)
	}
	exc := pre[:12*int(nexc)]
	pre = pre[len(exc):]
	// Both streams must be exactly as long as n values make them: a
	// blob is not a place to carry bytes the decoder never looks at.
	if codeLen := binary.LittleEndian.Uint32(pre); uint64(codeLen) != uint64(n+3)/4 {
		return fmt.Errorf("%w: code stream of %d bytes for %d values", compress.ErrCorrupt, codeLen, n)
	}
	if len(pre)-4 < (n+3)/4 {
		return fmt.Errorf("%w: truncated code stream", compress.ErrCorrupt)
	}
	codes, body := pre[4:4+(n+3)/4], pre[4+(n+3)/4:]

	vals := dst
	if shuffled {
		vals = s.shuffled(n)
	}
	kept := ^uint64(0) << (8 * uint(8-nbytes)) // the nbytes bytes a word has
	var prev uint64
	bi := 0
	for i := range vals {
		lead := min(int(codes[i>>2]>>(6-2*uint(i&3)))&3, nbytes)
		k := nbytes - lead // body bytes: bytes lead…nbytes-1 of the XOR word
		var x uint64
		if bi+8 <= len(body) {
			// One load puts the k bytes in place; what it drags in behind
			// them belongs to the next values.
			x = binary.BigEndian.Uint64(body[bi:]) >> (8 * uint(lead) & 63) & kept
		} else {
			// The last few values: a byte at a time, each one checked.
			if bi+k > len(body) {
				return fmt.Errorf("%w: body stream", compress.ErrCorrupt)
			}
			for b, v := range body[bi : bi+k] {
				x |= uint64(v) << uint(56-8*(lead+b))
			}
		}
		bi += k
		prev ^= x
		vals[i] = math.Float64frombits(prev)
	}
	if bi != len(body) {
		return fmt.Errorf("%w: %d body bytes after the last value", compress.ErrCorrupt, len(body)-bi)
	}
	for ; len(exc) > 0; exc = exc[12:] {
		idx := binary.LittleEndian.Uint32(exc)
		if uint64(idx) >= uint64(n) {
			return fmt.Errorf("%w: exception index %d", compress.ErrCorrupt, idx)
		}
		vals[idx] = math.Float64frombits(binary.LittleEndian.Uint64(exc[4:]))
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

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
