// The matcher, the block choice and the Huffman code construction below
// are a port of the BestSpeed path of Go's compress/flate (deflatefast.go,
// huffman_bit_writer.go, huffman_code.go, token.go), whose notice follows.
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package compress

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// deflater is a one-shot RFC 1951 encoder over a byte slice that emits,
// bit for bit, what compress/flate's BestSpeed Writer emits for the same
// bytes written in one Write and closed: payload bytes are cache keys,
// checkpoint contents and footprints, so they must not move
// (TestDeflateMatchesStdlib and FuzzDeflateMatchesStdlib hold the two
// together). The input goes in 65 535-byte windows, each one block:
// flate's Snappy-style matcher tokenizes a window, and a window from which
// it removes less than 1/16 of the tokens is written Huffman-only; either
// way the block is stored instead when the Huffman form saves too little,
// and a tail of 16 bytes or less is always stored, one of 17–127 always
// Huffman-only. The stream ends in an empty final stored block, as
// Close's does.
//
// What differs is how, never what. A run of literals is one token whose
// bytes are histogrammed and written straight from the input; windows
// are sub-slices of it, so a match into the previous window reads the
// input itself; matches extend eight bytes at a time; a code's lengths
// come from one sort of packed (frequency, symbol) keys — a total order,
// the one flate's byFreq sorts into — and its codes are assigned
// canonically in symbol order; a Huffman-only window whose Shannon
// floor already rules its code out is stored without building the code;
// and the bit writer keeps its state in locals and stores eight bytes at
// a time into the output slice.
//
// A deflater is ~140 KB, mostly the match table, allocates only to grow
// its token and output buffers, and is not safe for concurrent use.
type deflater struct {
	// The matcher's state between windows and between calls: its hash
	// table and the offset of the current window's first byte in the
	// table's coordinates. cur only grows (by a window per window, by
	// maxMatchOffset per call, so an entry a previous call left can never
	// be matched) until shiftOffsets rebases it, which keeps the bytes a
	// function of the input alone.
	table [tableSize]tableEntry
	cur   int32

	tokens []uint32 // one window's tokens (see matchToken)
	out    []byte   // the stream under construction; len == cap

	litFreq [maxNumLit]int32
	offFreq [maxNumDist]int32
	cgFreq  [len(codeOrder)]int32
	lit     [maxNumLit]hcode
	off     [maxNumDist]hcode
	cg      [len(codeOrder)]hcode
	codegen [maxNumLit + maxNumDist + 1]uint8 // run-length coded code lengths, badCode-terminated
	keys    [maxNumLit]uint64                 // generate's sort scratch
	sorted  [maxNumLit + 1]int32              // generate's frequencies, ascending, and a sentinel
}

const (
	maxStoreBlockSize = 65535   // a window; the most a stored block holds
	maxMatchOffset    = 1 << 15 // the farthest a match reaches back
	maxMatchLength    = 258
	baseMatchLength   = 3 // what a match token's length field counts from
	baseMatchOffset   = 1 // what its offset field counts from

	tableBits  = 14
	tableSize  = 1 << tableBits
	tableMask  = tableSize - 1
	tableShift = 32 - tableBits

	// cur is rebased before it reaches this, so offsets stay int32.
	bufferReset = math.MaxInt32 - maxStoreBlockSize*2

	// The matcher stops looking inputMargin bytes before a window's end.
	inputMargin = 16 - 1

	badCode = 255 // ends d.codegen
)

// A token is a run of literals — its length, below matchType — or a
// match: matchType | (length-3)<<lengthShift | (offset-1).
const (
	matchType   = 1 << 30
	lengthShift = 22
	offsetMask  = 1<<lengthShift - 1
)

type tableEntry struct {
	val    uint32 // the four bytes at offset
	offset int32
}

// hcode is a Huffman code, bit-reversed for LSB-first output.
type hcode struct {
	code, len uint16
}

func newDeflater() *deflater {
	// flate's encoder starts one window in, so that the zero entries of a
	// fresh table are out of reach.
	return &deflater{cur: maxStoreBlockSize}
}

// deflate returns src's DEFLATE stream, in d's buffer.
func (d *deflater) deflate(src []byte) []byte {
	// What flate.Writer.Reset does to a BestSpeed encoder: no history, and
	// every entry in the table out of reach.
	d.cur += maxMatchOffset
	if d.cur >= bufferReset {
		d.shiftOffsets(false)
	}
	w := bitWriter{out: d.out[:cap(d.out)]}
	for start := 0; start < len(src); start += maxStoreBlockSize {
		end := min(start+maxStoreBlockSize, len(src))
		win := src[start:end]
		w.reserve(2*len(win) + 1024) // a block never takes more: ≤ 15 bits a byte, ≤ 4 500 bits of header
		switch {
		// Only the last window can be this short.
		case len(win) <= 16:
			w.stored(win)
		case d.huffOnlyWindow(src, start, end):
			d.huffOnly(&w, win)
		default:
			d.dynamic(&w, win)
		}
	}
	// The empty final stored block Close writes.
	w.reserve(16)
	w.bits(1, 3)
	w.align()
	w.pos += copy(w.out[w.pos:], []byte{0, 0, 0xFF, 0xFF})
	d.out = w.out
	return w.out[:w.pos]
}

// huffOnlyWindow reports whether flate writes the window src[start:end],
// of more than 16 bytes, Huffman-only: when it is shorter than 128 bytes,
// or when the matcher, which otherwise tokenizes it into d.tokens,
// removes less than 1/16 of its tokens.
func (d *deflater) huffOnlyWindow(src []byte, start, end int) bool {
	n := end - start
	return n < 128 || d.encode(src, start, end) > n-n>>4
}

func load32(b []byte, i int32) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int32) uint64 { return binary.LittleEndian.Uint64(b[i:]) }
func hash(u uint32) uint32            { return (u * 0x1e35a7bd) >> tableShift }

// encode tokenizes the window src[ws:we] into d.tokens with flate's
// BestSpeed matcher — deflatefast.go's encode, whose comments are kept —
// and returns how many tokens flate's one-per-literal scheme would have:
// the Huffman-only rule counts those. The window is at least 128 bytes,
// and every window before it is a full one.
func (d *deflater) encode(src []byte, ws, we int) int {
	// Ensure that d.cur doesn't wrap.
	if d.cur >= bufferReset {
		d.shiftOffsets(ws > 0)
	}
	win := src[ws:we]
	tokens := d.tokens[:0]
	ntok := 0

	// sLimit is when to stop looking for offset/length copies. The
	// inputMargin lets us use a fast path for emitLiteral in the main
	// loop, while we are looking for copies.
	sLimit := int32(len(win) - inputMargin)

	// nextEmit is where in win the next literal run should start from.
	nextEmit := int32(0)
	s := int32(0)
	cv := load32(win, s)
	nextHash := hash(cv)

	for {
		// Heuristic match skipping: If 32 bytes are scanned with no
		// matches found, start looking only at every other byte. If 32
		// more bytes are scanned (or skipped), look at every third byte,
		// etc.. When a match is found, immediately go back to looking at
		// every byte.
		skip := int32(32)

		nextS := s
		var candidate tableEntry
		for {
			s = nextS
			bytesBetweenHashLookups := skip >> 5
			nextS = s + bytesBetweenHashLookups
			skip += bytesBetweenHashLookups
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = d.table[nextHash&tableMask]
			now := load32(win, nextS)
			d.table[nextHash&tableMask] = tableEntry{offset: s + d.cur, val: cv}
			nextHash = hash(now)

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || cv != candidate.val {
				// Out of range or not matched.
				cv = now
				continue
			}
			break
		}

		// A 4-byte match has been found. We'll later see if more than 4
		// bytes match. But, prior to the match, win[nextEmit:s] are
		// unmatched. Emit them as literal bytes.
		if nextEmit < s {
			tokens = append(tokens, uint32(s-nextEmit))
			ntok += int(s - nextEmit)
		}

		// Emit a match, and then see if another match could be our next
		// move. Repeat until we find no match for the input immediately
		// after what was consumed by the last match.
		for {
			// Invariant: we have a 4-byte match at s, and no need to emit
			// any literal bytes prior to s.

			// Extend the 4-byte match as long as possible.
			s += 4
			t := candidate.offset - d.cur + 4
			l := matchLen(src, ws, s, t, len(win))

			tokens = append(tokens, matchType|uint32(l+4-baseMatchLength)<<lengthShift|uint32(s-t-baseMatchOffset))
			ntok++
			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			// We could immediately start working at s now, but to
			// improve compression we first update the hash table at s-1
			// and at s. If another match is not our next move, also
			// calculate nextHash at s+1.
			x := load64(win, s-1)
			prevHash := hash(uint32(x))
			d.table[prevHash&tableMask] = tableEntry{offset: d.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := hash(uint32(x))
			candidate = d.table[currHash&tableMask]
			d.table[currHash&tableMask] = tableEntry{offset: d.cur + s, val: uint32(x)}

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = hash(cv)
				s++
				break
			}
		}
	}

emitRemainder:
	if int(nextEmit) < len(win) {
		tokens = append(tokens, uint32(len(win)-int(nextEmit)))
		ntok += len(win) - int(nextEmit)
	}
	d.cur += int32(len(win))
	d.tokens = tokens
	return ntok
}

// matchLen returns how far the window src[ws:] matches itself from s
// and from t onward, up to the longest match and no further than the
// window's end (n bytes in); t < 0 starts in the previous window, which
// is src's preceding 65 535 bytes — flate's prev, read in place.
func matchLen(src []byte, ws int, s, t int32, n int) int32 {
	if t < 0 && ws == 0 {
		return 0 // no previous window
	}
	a := src[ws+int(s) : ws+min(int(s)+maxMatchLength-4, n)]
	b := src[ws+int(t):]
	b = b[:len(a)]
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return int32(i + bits.TrailingZeros64(x)>>3)
		}
	}
	for ; i < len(a) && a[i] == b[i]; i++ {
	}
	return int32(i)
}

// shiftOffsets rebases the table so that cur restarts at
// maxMatchOffset+1, keeping every entry that is still within reach where
// it was relative to cur and putting the rest out of reach.
func (d *deflater) shiftOffsets(history bool) {
	if !history {
		clear(d.table[:])
		d.cur = maxMatchOffset + 1
		return
	}
	for i := range d.table {
		d.table[i].offset = max(d.table[i].offset-d.cur+maxMatchOffset+1, 0)
	}
	d.cur = maxMatchOffset + 1
}

// huffOnly is writeBlockHuff: win's bytes as literals under a dynamic
// code of their own, or stored when that saves less than 1/16.
//
// flate decides after building the code. huffOnly first asks
// huffFloor, a size no code beats, and stores the block at once when
// even that saves too little. The verdict is flate's, since floor ≤
// size and x + x>>4 is monotone; what it skips is generate, most of the
// cost of a window that does not compress (the lossless codec's probe
// of an incompressible block).
func (d *deflater) huffOnly(w *bitWriter, win []byte) {
	d.huffHistogram(win)
	if floor := d.huffFloor(len(win) + 1); storedSize(win) < floor+floor>>4 {
		w.stored(win)
		return
	}
	size, ncg := d.huffSize()
	if storedSize(win) < size+size>>4 {
		w.stored(win)
		return
	}
	d.writeHeader(w, endOfBlock+1, 1, ncg)
	w.literals(win, &d.lit)
	w.code(d.lit[endOfBlock])
}

// huffHistogram counts win's bytes and the end of block into d.litFreq.
func (d *deflater) huffHistogram(win []byte) {
	clear(d.litFreq[:])
	histogram(win, &d.litFreq)
	d.litFreq[endOfBlock] = 1
}

// huffSize builds the code of d.litFreq's Huffman-only block into d.lit
// and its header into d.codegen and d.cg, and returns the block's size
// in bits as flate counts it and how many code-length code lengths the
// header lists.
func (d *deflater) huffSize() (size, ncg int) {
	d.generate(d.lit[:], d.litFreq[:], 15)
	// The distance code is the single one-bit code flate declares for
	// blocks without matches; its one use is counted, as flate counts it.
	oneDist := [1]hcode{{0, 1}}
	hdr, ncg := d.headerSize(d.lit[:endOfBlock+1], oneDist[:])
	return hdr + bitLength(d.lit[:], d.litFreq[:]) + 1, ncg
}

// huffFloor is a lower bound on huffSize's result for d.litFreq, whose
// counts sum to n: the smallest header (3 bits of block type, 5+5+4 of
// code counts, four 3-bit code-length code lengths), the one distance
// bit, and the histogram's Shannon bound Σ f·log2(n/f) = n·log2 n −
// Σ f·log2 f, below which, by Kraft's inequality, no prefix code —
// length-limited or not — codes the symbols. Each term is within a few
// ulps and the sum is at most 2^20 (n ≤ 65 536), so the float error is
// below 2^-20 bits; truncating and taking one more bit off can only
// lower the floor.
func (d *deflater) huffFloor(n int) int {
	// Four sums, so that the adds do not wait on each other; the end of
	// block counts 1, and 1·log2 1 = 0.
	var s0, s1, s2, s3 float64
	for f := d.litFreq[:endOfBlock]; len(f) >= 4; f = f[4:] {
		s0 += fLog2f(f[0])
		s1 += fLog2f(f[1])
		s2 += fLog2f(f[2])
		s3 += fLog2f(f[3])
	}
	bits := float64(n)*math.Log2(float64(n)) - (s0 + s1 + s2 + s3)
	return 3 + 5 + 5 + 4 + 3*4 + 1 + int(bits) - 1
}

// fLog2f is f·log2 f, read from a table for the counts a 4 KiB probe
// can have.
func fLog2f(f int32) float64 {
	if uint32(f) < uint32(len(fLog2fTable)) {
		return fLog2fTable[f]
	}
	return float64(f) * math.Log2(float64(f))
}

var fLog2fTable = func() (t [4097]float64) {
	for f := 2; f < len(t); f++ {
		t[f] = float64(f) * math.Log2(float64(f))
	}
	return t
}()

// dynamic is writeBlockDynamic: d.tokens over win under a dynamic code,
// or stored when that saves less than 1/16.
func (d *deflater) dynamic(w *bitWriter, win []byte) {
	clear(d.litFreq[:])
	clear(d.offFreq[:])
	p := 0
	for _, t := range d.tokens {
		if t < matchType {
			histogram(win[p:p+int(t)], &d.litFreq)
			p += int(t)
			continue
		}
		xl := t >> lengthShift & 0xFF
		d.litFreq[endOfBlock+1+lengthCodes[xl]]++
		d.offFreq[offsetCode(t&offsetMask)]++
		p += int(xl) + baseMatchLength
	}
	d.litFreq[endOfBlock]++
	numLit := len(d.litFreq)
	for d.litFreq[numLit-1] == 0 {
		numLit--
	}
	numOff := len(d.offFreq)
	for numOff > 0 && d.offFreq[numOff-1] == 0 {
		numOff--
	}
	if numOff == 0 {
		// No match: a distance code is still declared, so count one.
		d.offFreq[0] = 1
		numOff = 1
	}
	d.generate(d.lit[:], d.litFreq[:], 15)
	d.generate(d.off[:], d.offFreq[:], 15)
	hdr, ncg := d.headerSize(d.lit[:numLit], d.off[:numOff])
	// Like flate, the size leaves out the extra bits of lengths and
	// distances.
	size := hdr + bitLength(d.lit[:], d.litFreq[:]) + bitLength(d.off[:], d.offFreq[:])
	if storedSize(win) < size+size>>4 {
		w.stored(win)
		return
	}
	d.writeHeader(w, numLit, numOff, ncg)
	w.tokens(win, d.tokens, &d.lit, &d.off)
	w.code(d.lit[endOfBlock])
}

// storedSize is a stored block's size in bits, header included.
func storedSize(win []byte) int { return (len(win) + 5) * 8 }

func histogram(b []byte, h *[maxNumLit]int32) {
	for _, c := range b {
		h[c]++
	}
}

func bitLength(codes []hcode, freq []int32) int {
	total := 0
	for i, f := range freq {
		total += int(f) * int(codes[i].len)
	}
	return total
}

// headerSize runs generateCodegen and dynamicSize's header part for a
// block declaring the given literal/length and distance codes: it leaves
// the run-length coded lengths in d.codegen, their code in d.cg, and
// returns the header's size in bits and how many code-length code lengths
// it lists.
func (d *deflater) headerSize(lit, off []hcode) (size, ncg int) {
	d.generateCodegen(lit, off)
	d.generate(d.cg[:], d.cgFreq[:], 7)
	ncg = len(d.cgFreq)
	for ncg > 4 && d.cgFreq[codeOrder[ncg-1]] == 0 {
		ncg--
	}
	size = 3 + 5 + 5 + 4 + 3*ncg + bitLength(d.cg[:], d.cgFreq[:]) +
		int(d.cgFreq[16])*2 + int(d.cgFreq[17])*3 + int(d.cgFreq[18])*7
	return size, ncg
}

// generateCodegen is RFC 1951 §3.2.7's run-length coding of the
// concatenated code lengths, exactly as flate chooses the runs.
func (d *deflater) generateCodegen(lit, off []hcode) {
	clear(d.cgFreq[:])
	// codegen holds the lengths first and the result after; the output is
	// never longer than the input consumed so far.
	codegen := d.codegen[:]
	for i, c := range lit {
		codegen[i] = uint8(c.len)
	}
	for i, c := range off {
		codegen[len(lit)+i] = uint8(c.len)
	}
	codegen[len(lit)+len(off)] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// INVARIANT: We have seen "count" copies of size that have not
		// yet had output generated for them.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		// We need to generate codegen indicating "count" of size.
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			d.cgFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex] = 16
				outIndex++
				codegen[outIndex] = uint8(n - 3)
				outIndex++
				d.cgFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex] = 18
				outIndex++
				codegen[outIndex] = uint8(n - 11)
				outIndex++
				d.cgFreq[18]++
				count -= n
			}
			if count >= 3 {
				// count >= 3 && count <= 10
				codegen[outIndex] = 17
				outIndex++
				codegen[outIndex] = uint8(count - 3)
				outIndex++
				d.cgFreq[17]++
				count = 0
			}
		}
		count--
		for ; count >= 0; count-- {
			codegen[outIndex] = size
			outIndex++
			d.cgFreq[size]++
		}
		// Set up invariant for next time through the loop.
		size = nextSize
		count = 1
	}
	// Marker indicating the end of the codegen.
	codegen[outIndex] = badCode
}

// writeHeader writes a dynamic block's header from d.codegen and d.cg.
// The block is never the final one: the stream ends in an empty stored
// block.
func (d *deflater) writeHeader(w *bitWriter, numLit, numOff, ncg int) {
	w.bits(2<<1, 3)
	w.bits(uint64(numLit-257), 5)
	w.bits(uint64(numOff-1), 5)
	w.bits(uint64(ncg-4), 4)
	for _, s := range codeOrder[:ncg] {
		w.bits(uint64(d.cg[s].len), 3)
	}
	for i := 0; d.codegen[i] != badCode; i++ {
		s := d.codegen[i]
		w.code(d.cg[s])
		switch s {
		case 16:
			i++
			w.bits(uint64(d.codegen[i]), 2)
		case 17:
			i++
			w.bits(uint64(d.codegen[i]), 3)
		case 18:
			i++
			w.bits(uint64(d.codegen[i]), 7)
		}
	}
}

// generate is huffmanEncoder.generate: it fills codes with the code
// compress/flate builds for freq, no code longer than maxBits.
func (d *deflater) generate(codes []hcode, freq []int32, maxBits int32) {
	keys := d.keys[:0]
	for i, f := range freq {
		codes[i] = hcode{}
		if f != 0 {
			keys = append(keys, uint64(f)<<16|uint64(i))
		}
	}
	if len(keys) <= 2 {
		// With two or fewer symbols, everything has bit length 1, in
		// symbol order.
		for i, k := range keys {
			codes[uint16(k)] = hcode{code: uint16(i), len: 1}
		}
		return
	}
	// By frequency, then symbol: byFreq's order.
	slices.Sort(keys)
	list := d.sorted[:len(keys)+1]
	for i, k := range keys {
		list[i] = int32(k >> 16)
	}
	list[len(keys)] = math.MaxInt32
	count := bitCounts(list, maxBits)

	// The least frequent symbols take the longest codes; within a length,
	// codes go up with the symbol (RFC 1951 §3.2.2).
	i := len(keys)
	var next [maxBitsLimit]uint16
	code := uint16(0)
	for l := 1; l < maxBitsLimit; l++ {
		for n := count[l]; n > 0; n-- {
			i--
			codes[uint16(keys[i])].len = uint16(l)
		}
		code = (code + uint16(count[l-1])) << 1
		next[l] = code
	}
	for s, c := range codes {
		if c.len != 0 {
			codes[s].code = bits.Reverse16(next[c.len]) >> (16 - c.len)
			next[c.len]++
		}
	}
}

const maxBitsLimit = 16

// levelInfo describes the state of the constructed tree for a given
// depth.
type levelInfo struct {
	// The frequency of the last node at this level
	lastFreq int32

	// The frequency of the next character to add to this level
	nextCharFreq int32

	// The frequency of the next pair (from level below) to add to this
	// level. Only valid if the "needed" value of the next lower level is
	// 0.
	nextPairFreq int32

	// The number of chains remaining to generate for this level before
	// moving up to the next level
	needed int32
}

// bitCounts is flate's length-limited code construction: list holds the
// frequencies of n ≥ 3 used symbols in ascending order and a MaxInt32
// sentinel, and count[l] of the result is how many symbols get a code of
// length l ≤ maxBits.
func bitCounts(list []int32, maxBits int32) (count [maxBitsLimit]int32) {
	n := int32(len(list) - 1)

	// The tree can't have greater depth than n - 1, no matter what. This
	// saves a little bit of work in some small cases
	maxBits = min(maxBits, n-1)

	// Create information about each of the levels. A bogus "Level 0"
	// whose sole purpose is so that level1.prev.needed==0. This makes
	// level1.nextPairFreq be a legitimate value that never gets chosen.
	var levels [maxBitsLimit]levelInfo
	// leafCounts[i] counts the number of literals at the left of
	// ancestors of the rightmost node at level i. leafCounts[i][j] is the
	// number of literals at the left of the level j ancestor. Only
	// entries j ≤ i mean anything, which lets a row be copied whole.
	var leafCounts [maxBitsLimit][maxBitsLimit]int32

	for level := int32(1); level <= maxBits; level++ {
		// For every level, the first two items are the first two
		// characters. We initialize the levels as if we had already
		// figured this out.
		levels[level] = levelInfo{
			lastFreq:     list[1],
			nextCharFreq: list[2],
			nextPairFreq: list[0] + list[1],
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// We need a total of 2*n - 2 items at top level and have already
	// generated 2.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// We've run out of both leaves and pairs. End all
			// calculations for this level. To make sure we never come
			// back to this level or any lower level, set nextPairFreq
			// impossibly large.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this row is a leaf node.
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			// Lower leafCounts are the same of the previous node.
			leafCounts[level][level] = n
			l.nextCharFreq = list[n]
		} else {
			// The next item on this row is a pair from the previous row.
			// nextPairFreq isn't valid until we generate two more values
			// in the level below
			l.lastFreq = l.nextPairFreq
			// Take leaf counts from the lower level, except
			// counts[level] remains the same: flate copies the level
			// entries below it; a whole-row copy is a few vector moves
			// instead of a memmove call.
			own := leafCounts[level][level]
			leafCounts[level] = leafCounts[level-1]
			leafCounts[level][level] = own
			levels[level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// We've done everything we need to do for this level.
			// Continue calculating one level up. Fill in nextPairFreq of
			// that level with the sum of the two nodes we've just
			// calculated on this level.
			if level == maxBits {
				// All done!
				break
			}
			levels[level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// If we stole from below, move down temporarily to replenish
			// it.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	// Somethings is wrong if at the end, the top level is null or hasn't
	// used all of the leaves.
	if leafCounts[maxBits][maxBits] != n {
		panic("compress: deflate: leafCounts[maxBits][maxBits] != n")
	}

	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		// counts[level] - counts[level-1] literals need at least
		// maxBits+1-level bits.
		count[maxBits+1-level] = counts[level] - counts[level-1]
	}
	return count
}

// bitWriter packs a DEFLATE stream into out: fields from their low bit,
// eight bytes stored at a time. Callers reserve room first, so every
// store is in bounds.
type bitWriter struct {
	out []byte // len == cap; out[:pos] is written
	pos int
	acc uint64 // n pending bits; zero above them
	n   uint   // < 48 between calls
}

// reserve makes room for k more bytes and an 8-byte store beyond them.
func (w *bitWriter) reserve(k int) {
	if need := w.pos + k + 8; need > len(w.out) {
		out := make([]byte, max(need, 2*len(w.out)))
		copy(out, w.out[:w.pos])
		w.out = out
	}
}

// bits writes the low k ≤ 16 bits of v, which has no others.
func (w *bitWriter) bits(v uint64, k uint) {
	w.acc |= v << w.n
	if w.n += k; w.n >= 48 {
		w.flush()
	}
}

func (w *bitWriter) code(c hcode) { w.bits(uint64(c.code), uint(c.len)) }

// flush moves the whole bytes of acc to out.
func (w *bitWriter) flush() {
	binary.LittleEndian.PutUint64(w.out[w.pos:], w.acc)
	w.pos += int(w.n >> 3)
	w.acc >>= w.n &^ 7
	w.n &= 7
}

// align pads to a byte boundary with zero bits and moves everything to
// out.
func (w *bitWriter) align() {
	binary.LittleEndian.PutUint64(w.out[w.pos:], w.acc)
	w.pos += int(w.n+7) >> 3
	w.acc, w.n = 0, 0
}

// stored writes b as a (non-final) stored block.
func (w *bitWriter) stored(b []byte) {
	w.bits(0, 3)
	w.align()
	binary.LittleEndian.PutUint16(w.out[w.pos:], uint16(len(b)))
	binary.LittleEndian.PutUint16(w.out[w.pos+2:], ^uint16(len(b)))
	w.pos += 4
	w.pos += copy(w.out[w.pos:], b)
}

// literals writes the codes of b's bytes.
func (w *bitWriter) literals(b []byte, lit *[maxNumLit]hcode) {
	w.flush()
	out, pos, acc, n := w.out, w.pos, w.acc, w.n
	// A literal code is at most 15 bits: from at most 7 pending bits,
	// three fit before a store.
	for ; len(b) >= 3; b = b[3:] {
		h0, h1, h2 := lit[b[0]], lit[b[1]], lit[b[2]]
		acc |= uint64(h0.code) << n
		n += uint(h0.len)
		acc |= uint64(h1.code) << n
		n += uint(h1.len)
		acc |= uint64(h2.code) << n
		n += uint(h2.len)
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(n >> 3)
		acc >>= n &^ 7
		n &= 7
	}
	for _, c := range b {
		h := lit[c]
		acc |= uint64(h.code) << n
		if n += uint(h.len); n >= 48 {
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos += int(n >> 3)
			acc >>= n &^ 7
			n &= 7
		}
	}
	w.pos, w.acc, w.n = pos, acc, n
}

// tokens writes tokens, whose literal runs are win's bytes in order.
func (w *bitWriter) tokens(win []byte, tokens []uint32, lit *[maxNumLit]hcode, off *[maxNumDist]hcode) {
	p := 0
	for _, t := range tokens {
		if t < matchType {
			w.literals(win[p:p+int(t)], lit)
			p += int(t)
			continue
		}
		// A match is at most 15+5 bits of length and 15+13 of distance:
		// from at most 7 pending bits, all 48 fit before one flush.
		w.flush()
		acc, n := w.acc, w.n
		xl := t >> lengthShift & 0xFF
		lc := lengthCodes[xl]
		h := lit[endOfBlock+1+lc]
		acc |= uint64(h.code) << n
		n += uint(h.len)
		acc |= uint64(xl-lengthBase[lc]) << n
		n += uint(lengthExtraBits[lc])
		xo := t & offsetMask
		oc := offsetCode(xo)
		h = off[oc]
		acc |= uint64(h.code) << n
		n += uint(h.len)
		acc |= uint64(xo-offsetBase[oc]) << n
		n += uint(offsetExtraBits[oc])
		w.acc, w.n = acc, n
		if n >= 48 {
			w.flush()
		}
		p += int(xl) + baseMatchLength
	}
}

// The number of extra bits of length code c - 257, and the length
// (minus 3) it starts at.
var lengthExtraBits = [...]uint8{
	/* 257 */ 0, 0, 0,
	/* 260 */ 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
	/* 270 */ 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
	/* 280 */ 4, 5, 5, 5, 5, 0,
}

var lengthBase = [...]uint32{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 10,
	12, 14, 16, 20, 24, 28, 32, 40, 48, 56,
	64, 80, 96, 112, 128, 160, 192, 224, 255,
}

// The number of extra bits of distance code c, and the distance (minus
// 1) it starts at.
var offsetExtraBits = [...]uint8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3,
	4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

var offsetBase = [...]uint32{
	0x000000, 0x000001, 0x000002, 0x000003, 0x000004,
	0x000006, 0x000008, 0x00000c, 0x000010, 0x000018,
	0x000020, 0x000030, 0x000040, 0x000060, 0x000080,
	0x0000c0, 0x000100, 0x000180, 0x000200, 0x000300,
	0x000400, 0x000600, 0x000800, 0x000c00, 0x001000,
	0x001800, 0x002000, 0x003000, 0x004000, 0x006000,
}

// lengthCodes[l-3] is the length code (minus 257) of match length l, and
// offsetCodes the distance code of small distances (minus 1).
var lengthCodes, offsetCodes = func() (lc [256]uint32, oc [256]uint32) {
	for c, base := range lengthBase {
		for l := int(base); l < len(lc) && (c+1 == len(lengthBase) || l < int(lengthBase[c+1])); l++ {
			lc[l] = uint32(c)
		}
	}
	for c, base := range offsetBase[:16] {
		for o := int(base); o < len(oc) && (c+1 == 16 || o < int(offsetBase[c+1])); o++ {
			oc[o] = uint32(c)
		}
	}
	return
}()

// offsetCode returns the distance code of distance off+1.
func offsetCode(off uint32) uint32 {
	if off < uint32(len(offsetCodes)) {
		return offsetCodes[off]
	}
	if off>>7 < uint32(len(offsetCodes)) {
		return offsetCodes[off>>7] + 14
	}
	return offsetCodes[off>>14] + 28
}
