// Package lossless provides the repository's Zstandard substitute: the
// level-0 stage of the paper's §3.7 ladder, which compresses the state
// while it is still regular (mostly zero, or a few magnitudes times a
// finite phase set) and must cost little once it stops paying. DEFLATE
// is the LZ77+entropy-coding family the Go standard library offers; the
// codec looks at each block before paying for it and picks one of four
// body layouts, named by the flag byte that follows the common header:
//
//	flag  body                                      picked when
//	0     DEFLATE(words, little-endian)             neither 3 nor 2 applies, Shuffle off
//	1     DEFLATE(byte-shuffled words)              neither 3 nor 2 applies, Shuffle on
//	2     the 8·n raw little-endian bytes (stored)  a probe, or the full DEFLATE, does not pay
//	3     count−1, count words, DEFLATE(n 1-byte    the block has ≤ 256 distinct words,
//	      indices) — nothing after the words when   each used ≥ 16 times on average
//	      count = 1
//
// The choice is made from the data alone, in this order:
//
//   - Dictionary (3). One pass hashes every word's bit pattern (bit-exact:
//     −0 ≠ +0, NaN payloads kept) and numbers the distinct ones in
//     first-occurrence order, giving up at word number 257 — about 260
//     words into a dense block. Equal magnitudes times a finite phase
//     set is what Hadamard, QAOA-cost and Grover states are made of, so
//     such blocks are common, and DEFLATE then sees n bytes, not 8·n.
//     256 is what a one-byte index can address; a block shorter than
//     16 words per distinct word (one-valued blocks aside) is not taken,
//     because the dictionary is stored raw and pays only through reuse.
//   - Stored (2). Otherwise sixteen 256-byte runs spread evenly over the
//     block — not a prefix: a half-zero block must not be misread, and
//     not a few long windows either, which a block regular everywhere
//     but under them slips past — are deflated as a probe (byte-shuffled
//     first when Shuffle is on, so the probe sees what the full pass
//     would). If that saves less than 1/16 the block is stored: LZ77
//     matching that finds nothing is the most expensive way to learn it,
//     and a stored block decodes at copy speed. On an incompressible
//     block the probe costs one matcher pass over 4 KiB and a byte
//     histogram: the DEFLATE writer stores a window whose byte entropy
//     alone rules a Huffman code out without building the code (≈ 5 µs
//     a probe of random words; building the code made it ≈ 31 µs). A
//     probe whose entropy is within 1/16 of the stored size, a QFT
//     state's, still pays for the code. Blocks of at most 4 KiB
//     skip the probe, which would be the block itself. The verdict is a
//     prediction from 1/16 of the block and bounds nothing: regularity
//     the runs do not land on, or that shows only over distances longer
//     than the sample (1 000 distinct values in 8 192 words recur inside
//     DEFLATE's 32 KiB window, hardly among 512 sampled words), is
//     stored at full size where DEFLATE would have halved it.
//   - DEFLATE (0/1) for the rest, as before this table existed.
//
// Whatever was picked, a body that comes out no smaller than the raw
// words is replaced by the stored form, so a blob never exceeds
// HeaderSize + 1 + 8·n bytes. Flags 0 and 1 keep the meaning they had
// when they were the only two, so old blobs and checkpoints decode.
//
// Both directions run on one pooled scratch per call (byte buffers, the
// dictionary table, a compress.Flate); the scratch lives in a sync.Pool
// and not with the caller's workers because an idle simulator must not
// retain a DEFLATE working set per worker.
package lossless

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"qcsim/internal/compress"
)

const magic = 0x5A // 'Z'

// Body layouts (see the package comment).
const (
	flagDeflate  byte = 0
	flagShuffled byte = 1
	flagStored   byte = 2
	flagDict     byte = 3
)

const (
	// dictMax is the most distinct words a one-byte index addresses.
	dictMax = 256
	// dictSlots sizes the open-addressed table at twice dictMax (2^9),
	// so linear probing stays short at full load.
	dictBits  = 9
	dictSlots = 1 << dictBits
	// dictReuse is how often, on average, a block must use each of its
	// distinct words for the dictionary layout to be taken. The words
	// are stored raw, so they pay only through reuse: below this, LZ77
	// over the words themselves does better (256-word blocks of a
	// random-circuit state holding ~100 values: 1 000 bytes as a
	// dictionary, 380 deflated). 16 caps the dictionary at 1/16 of the
	// raw block — the same line the probe draws — and leaves every
	// ≤ 256-valued block of 4 096 words or more eligible.
	dictReuse = 16
	// The probe is probeSlices runs of probeWords words (16 × 256 B):
	// 1/16 of a 64 KiB block. Many short runs rather than a few long
	// ones, because what the probe must not miss is where the block is
	// regular, and a state's structure follows its index bits: in an
	// 8 192-word block the runs start at 32-word units 0x00, 0x11, …
	// 0xFF, so fixing any one index bit leaves half of them on either
	// side. A run still holds 16 amplitudes, enough for LZ77 to see a
	// repeat inside it, and the runs are deflated as one buffer, so a
	// value used in two of them is a match too.
	probeSlices = 16
	probeWords  = 32
)

// Codec is a lossless float64 block compressor. The zero value is valid;
// use New for explicit construction. Codecs are safe for concurrent use.
type Codec struct {
	// Shuffle enables the byte-transpose preprocessing pass.
	Shuffle bool

	pool sync.Pool // *scratch
}

// New returns a lossless codec with optional byte shuffling.
func New(shuffle bool) *Codec {
	return &Codec{Shuffle: shuffle}
}

// Name implements compress.Codec.
func (c *Codec) Name() string {
	if c.Shuffle {
		return "zstd-like+shuffle"
	}
	return "zstd-like"
}

// scratch is everything one Compress or Decompress call needs besides
// its arguments.
type scratch struct {
	compress.Flate
	raw []byte // the words as bytes: DEFLATE's input, inflate's output
	aux []byte // the index stream, or the byte-shuffled form of raw

	// The dictionary pass: an open-addressed table from a word to its
	// index (slot holds index+1, 0 = empty) and the words in index order.
	keys [dictSlots]uint64
	slot [dictSlots]uint16
	dict [dictMax]uint64
}

func (c *Codec) get() *scratch {
	if s, _ := c.pool.Get().(*scratch); s != nil {
		return s
	}
	return new(scratch)
}

// sized returns b with length n, reallocating only when it is too small.
func sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// Compress implements compress.Codec. The mode in opt is recorded in the
// header but reconstruction is always bit-exact.
func (c *Codec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := len(src)
	s := c.get()
	defer c.pool.Put(s)

	if count := s.index(src); count > 0 {
		var body []byte
		if count > 1 {
			body = s.Deflate(s.aux[:n])
		}
		size := 1 + 8*count + len(body)
		if size >= 8*n {
			return stored(dst, src), nil
		}
		out := begin(dst, n, flagDict, size)
		out = append(out, byte(count-1))
		for _, w := range s.dict[:count] {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		return append(out, body...), nil
	}

	if !s.probe(src, c.Shuffle) {
		return stored(dst, src), nil
	}
	s.raw = sized(s.raw, 8*n)
	compress.PutFloats(s.raw, src)
	flag, raw := flagDeflate, s.raw
	if c.Shuffle {
		s.aux = sized(s.aux, 8*n)
		compress.ByteShuffle(s.aux, raw)
		flag, raw = flagShuffled, s.aux
	}
	body := s.Deflate(raw)
	if len(body) >= 8*n {
		return stored(dst, src), nil
	}
	return append(begin(dst, n, flag, len(body)), body...), nil
}

// begin appends the header and flag of an n-word block to dst, leaving
// room for exactly size more bytes: a blob the engine keeps (store,
// cache, memo) must not pin capacity it does not use.
func begin(dst []byte, n int, flag byte, size int) []byte {
	dst = compress.Grow(dst, compress.HeaderSize+1+size)
	dst = compress.AppendHeader(dst, compress.Header{Magic: magic, Mode: compress.Lossless, Count: uint32(n)})
	return append(dst, flag)
}

// stored emits src as its raw little-endian words.
func stored(dst []byte, src []float64) []byte {
	out := begin(dst, len(src), flagStored, 8*len(src))
	k := len(out)
	out = out[:k+8*len(src)]
	compress.PutFloats(out[k:], src)
	return out
}

// index is the dictionary pass: it writes each word's index to
// s.aux[:len(src)] and the distinct words, in first-occurrence order so
// that the bytes are a function of src alone, to s.dict. It returns how
// many there are, or 0 as soon as there are more than a dictionary is
// worth (and for an empty src).
//
// A word equal to the word two back — the same component of the
// previous amplitude — takes that word's index without the table: a
// block interleaves re and im, so runs of an amplitude (zero blocks,
// and a real state's a, 0, a, 0) skip it on both components. The word
// is already in the table, so the indices are the table's.
func (s *scratch) index(src []float64) int {
	s.aux = sized(s.aux, len(src))
	idx := s.aux
	s.slot = [dictSlots]uint16{}
	limit := min(dictMax, max(1, len(src)/dictReuse))
	count := 0
	var last [2]uint64 // per parity of i, the last word looked up
	var k [2]byte      // and its index
	for i, v := range src {
		w, p := math.Float64bits(v), i&1
		if w == last[p] && i > 1 {
			idx[i] = k[p]
			continue
		}
		last[p] = w
		h := (w * 0x9E3779B97F4A7C15) >> (64 - dictBits) // Fibonacci hashing
		for s.slot[h] != 0 && s.keys[h] != w {
			h = (h + 1) % dictSlots
		}
		if s.slot[h] == 0 {
			if count == limit {
				return 0
			}
			s.keys[h], s.dict[count] = w, w
			count++
			s.slot[h] = uint16(count)
		}
		k[p] = byte(s.slot[h] - 1)
		idx[i] = k[p]
	}
	return count
}

// probe reports whether deflating src is likely to pay (see the package
// comment for what it samples and why).
func (s *scratch) probe(src []float64, shuffle bool) bool {
	n := len(src)
	if n <= probeSlices*probeWords {
		return true
	}
	s.raw = sized(s.raw, 8*probeSlices*probeWords)
	p := s.raw
	for j := 0; j < probeSlices; j++ {
		off := j * (n - probeWords) / (probeSlices - 1)
		compress.PutFloats(p[8*j*probeWords:], src[off:off+probeWords])
	}
	if shuffle {
		s.aux = sized(s.aux, len(p))
		compress.ByteShuffle(s.aux, p)
		p = s.aux
	}
	return 16*len(s.Deflate(p)) <= 15*len(p)
}

// Decompress implements compress.Codec.
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
		return fmt.Errorf("%w: missing layout flag", compress.ErrCorrupt)
	}
	flag, body := payload[0], payload[1:]
	switch flag {
	case flagStored:
		if len(body) != 8*n {
			return fmt.Errorf("%w: stored body of %d bytes for %d words", compress.ErrCorrupt, len(body), n)
		}
		compress.GetFloats(dst, body)
		return nil
	case flagDict:
		return c.undict(dst, body)
	case flagDeflate, flagShuffled:
		s := c.get()
		defer c.pool.Put(s)
		s.raw = sized(s.raw, 8*n)
		if err := s.InflateInto(s.raw, body); err != nil {
			return err
		}
		raw := s.raw
		if flag == flagShuffled {
			s.aux = sized(s.aux, 8*n)
			compress.ByteUnshuffle(s.aux, raw)
			raw = s.aux
		}
		compress.GetFloats(dst, raw)
		return nil
	default:
		return fmt.Errorf("%w: layout flag %d", compress.ErrCorrupt, flag)
	}
}

// fill sets every word of dst to v: a +0 by clear, any other word by
// copies that double the filled prefix, both memory-speed where a word
// loop is not.
func fill(dst []float64, v float64) {
	if math.Float64bits(v) == 0 {
		clear(dst)
		return
	}
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for n := 1; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// undict decodes a dictionary body.
func (c *Codec) undict(dst []float64, body []byte) error {
	if len(body) < 1 || len(body) < 1+8*(int(body[0])+1) {
		return fmt.Errorf("%w: short dictionary", compress.ErrCorrupt)
	}
	count := int(body[0]) + 1
	var dict [dictMax]float64
	compress.GetFloats(dict[:count], body[1:])
	body = body[1+8*count:]
	if count == 1 {
		if len(body) != 0 {
			return fmt.Errorf("%w: %d bytes after a one-word dictionary", compress.ErrCorrupt, len(body))
		}
		fill(dst, dict[0])
		return nil
	}
	s := c.get()
	defer c.pool.Put(s)
	s.aux = sized(s.aux, len(dst))
	if err := s.InflateInto(s.aux, body); err != nil {
		return err
	}
	for i, k := range s.aux {
		if int(k) >= count {
			return fmt.Errorf("%w: index %d in a %d-word dictionary", compress.ErrCorrupt, k, count)
		}
		dst[i] = dict[k]
	}
	return nil
}
