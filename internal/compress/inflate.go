package compress

import (
	"encoding/binary"
	"math/bits"
)

// inflater is a one-shot RFC 1951 decoder over a byte slice: the whole
// stream is in memory and the caller knows a ceiling for its output, so
// there is no window to copy out of, no reader interface to pull bytes
// through and no state to suspend. A 64-bit bit buffer is refilled eight
// bytes at a time, a symbol is one table lookup (two for the longest
// codes), and matches copy within the output itself.
//
// Its verdicts are compress/flate's, so that blobs, checkpoints and
// hostile streams are answered exactly as before (FuzzInflateMatchesStdlib
// holds the two together): a code is accepted if it is complete, empty,
// or a single one-bit code; a stream fails where flate's byte-at-a-time
// reader would run out of input, which includes flate's habit of not
// decoding a literal/length symbol with fewer bits at hand than the
// end-of-block code has; and the bytes decoded before a failure are
// exactly flate's, because InflateInto's answer depends on their number.
//
// An inflater is ~45 KB, allocates nothing and is not safe for
// concurrent use.
type inflater struct {
	in  []byte
	pos int    // next byte of in to load
	bb  uint64 // bit buffer, next bit lowest; zero above nb between calls
	nb  uint   // bits in bb

	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	pre  [1 << preRoot]uint32
	// The fewest bits that must be at hand to decode a symbol: the
	// shortest code, and for lit no less than the end-of-block code.
	litMin, distMin uint
	fixed           bool // lit and dist hold the fixed code of block type 1

	lens [len(litSyms) + len(distSyms)]uint8 // a block's code lengths, litlen then distance
}

const (
	maxCodeLen = 15
	maxNumLit  = 286
	maxNumDist = 30
	endOfBlock = 256

	// Primary table widths. A longer code goes through one sub-table of
	// at most 2^(maxCodeLen-root) entries, and there are no more
	// sub-tables than symbols, which sizes the tables once and for all.
	litRoot       = 11
	distRoot      = 8
	preRoot       = 7 // the code-length code's longest code: no sub-tables
	litTableSize  = 1<<litRoot + maxNumLit<<(maxCodeLen-litRoot)
	distTableSize = 1<<distRoot + maxNumDist<<(maxCodeLen-distRoot)
)

// A table entry: value<<16 | extra<<8 | flags | length.
//
//	length  bits 0-3   the code's length; 0 marks a bit pattern no code has
//	flags   bits 4-7   below; none set means a match length or distance
//	extra   bits 8-12  how many extra bits follow (entrySub: the sub-table's index width)
//	value   bits 16-31 the literal, the base length or distance, or (entrySub) the sub-table's start
const (
	entryLit = 1 << 4 // a literal byte
	entrySub = 1 << 5 // primary entry of a code longer than the root: look again
	entryEOB = 1 << 6 // end of block
	entryBad = 1 << 7 // a code RFC 1951 assigns to no symbol (litlen 286-287, distance 30-31)
)

// litSyms, distSyms and preSyms are each symbol's entry without its
// length; litSyms and distSyms cover the fixed code's 288 and 32 symbols.
var litSyms, distSyms, preSyms = func() (lit [288]uint32, dist [32]uint32, pre [19]uint32) {
	for s := range lit {
		switch {
		case s < endOfBlock:
			lit[s] = uint32(s)<<16 | entryLit
		case s == endOfBlock:
			lit[s] = entryEOB
		case s < 265:
			lit[s] = uint32(s-254) << 16
		case s < 285:
			extra := uint32(s-261) / 4
			lit[s] = (3+(4+uint32(s-261)%4)<<extra)<<16 | extra<<8
		case s == 285:
			lit[s] = 258 << 16
		default:
			lit[s] = entryBad
		}
	}
	for s := range dist {
		switch {
		case s < 4:
			dist[s] = uint32(s+1) << 16
		case s < maxNumDist:
			extra := uint32(s-2) / 2
			dist[s] = (1+(2+uint32(s)%2)<<extra)<<16 | extra<<8
		default:
			dist[s] = entryBad
		}
	}
	for s := range pre {
		pre[s] = uint32(s) << 16
	}
	return
}()

// buildTable fills table for the canonical Huffman code with the given
// code lengths (0 = symbol unused), syms[s] being symbol s's entry
// without its length. It returns the shortest code length, and false
// for a code compress/flate refuses: over-subscribed, or incomplete
// other than a single one-bit code.
func buildTable(table []uint32, root uint, lens []uint8, syms []uint32) (minLen uint, ok bool) {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	maxLen := uint(maxCodeLen)
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	if maxLen == 0 {
		// No code at all: legal to declare, an error to decode with.
		clear(table[:1<<root])
		return 0, true
	}
	minLen = 1
	for count[minLen] == 0 {
		minLen++
	}
	var next [maxCodeLen + 1]int // the first code of each length
	var offs [maxCodeLen + 1]int // where each length starts in sorted
	code, n := 0, 0
	for l := minLen; l <= maxLen; l++ {
		code <<= 1
		next[l], offs[l] = code, n
		code += count[l]
		n += count[l]
	}
	if code != 1<<maxLen {
		if code != 1 || maxLen != 1 {
			return 0, false
		}
		clear(table[:1<<root]) // the single one-bit code: pattern 1 has no symbol
	}
	var sorted [len(litSyms)]uint16 // the used symbols by (length, symbol): canonical order
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	free := 1 << root // where the next sub-table starts
	var prefix, sub, subBits int
	i := 0
	for l := minLen; l <= maxLen; l++ {
		for ; count[l] > 0; count[l]-- {
			s := sorted[i]
			i++
			e := syms[s] | uint32(l)
			// DEFLATE packs codes starting from their most significant
			// bit, the bit buffer is read from its least: index by the
			// reversed code.
			rev := int(bits.Reverse16(uint16(next[l])) >> (16 - l))
			next[l]++
			if l <= root {
				for j := rev; j < 1<<root; j += 1 << l {
					table[j] = e
				}
				continue
			}
			if p := rev & (1<<root - 1); sub == 0 || p != prefix {
				// The first code under a new root prefix. Codes come in
				// canonical order, so the ones under this prefix are the
				// next ones: the sub-table is as wide as it takes for
				// codes still unplaced (count) to fill it.
				prefix, sub = p, free
				subBits = int(l - root)
				for left := 1<<subBits - count[l]; left > 0 && uint(subBits)+root < maxLen; {
					subBits++
					left = left<<1 - count[uint(subBits)+root]
				}
				free += 1 << subBits
				table[p] = uint32(sub)<<16 | uint32(subBits)<<8 | entrySub
			}
			for j := rev >> root; j < 1<<subBits; j += 1 << (l - root) {
				table[sub+j] = e
			}
		}
	}
	return minLen, true
}

// inflateStatus is how a decode ended.
type inflateStatus int

const (
	inflateDone    inflateStatus = iota // the final block ended
	inflateFull                         // the stream has a byte for which out has no room
	inflateCorrupt                      // the stream is invalid, or ends early
)

// inflate decodes the DEFLATE stream at the start of in into out and
// reports how many bytes it wrote and why it stopped. Bytes of in after
// the final block are not looked at.
func (d *inflater) inflate(out, in []byte) (int, inflateStatus) {
	d.in, d.pos, d.bb, d.nb = in, 0, 0, 0
	op := 0
	for {
		hdr, ok := d.bits(3)
		if !ok {
			return op, inflateCorrupt
		}
		st := inflateDone
		switch hdr >> 1 {
		case 0:
			op, st = d.stored(out, op)
		case 1:
			d.fixedTables()
			op, st = d.block(out, op)
		case 2:
			if !d.dynamicTables() {
				return op, inflateCorrupt
			}
			op, st = d.block(out, op)
		default:
			return op, inflateCorrupt
		}
		if st != inflateDone || hdr&1 != 0 {
			return op, st
		}
	}
}

// fill tops the bit buffer up a byte at a time: to at least 57 bits, or
// to all the input there is.
func (d *inflater) fill() {
	for d.nb <= 56 && d.pos < len(d.in) {
		d.bb |= uint64(d.in[d.pos]) << d.nb
		d.pos++
		d.nb += 8
	}
}

// bits takes the next k ≤ 32 bits, or reports that the input ends first.
func (d *inflater) bits(k uint) (uint64, bool) {
	if d.nb < k {
		if d.fill(); d.nb < k {
			return 0, false
		}
	}
	v := d.bb & (1<<k - 1)
	d.bb >>= k
	d.nb -= k
	return v, true
}

// stored copies a block of type 0.
func (d *inflater) stored(out []byte, op int) (int, inflateStatus) {
	// The block starts at the next byte boundary: drop the bits before
	// it and hand the whole bytes behind it back to the input.
	d.pos -= int(d.nb / 8)
	d.bb, d.nb = 0, 0
	if len(d.in)-d.pos < 4 {
		return op, inflateCorrupt
	}
	n := int(binary.LittleEndian.Uint16(d.in[d.pos:]))
	if n != int(^binary.LittleEndian.Uint16(d.in[d.pos+2:])) {
		return op, inflateCorrupt
	}
	d.pos += 4
	m := copy(out[op:], d.in[d.pos:min(d.pos+n, len(d.in))])
	d.pos += m
	op += m
	switch {
	case m == n:
		return op, inflateDone
	case op == len(out):
		return op, inflateFull
	default:
		return op, inflateCorrupt
	}
}

// fixedTables loads the code of block type 1 (RFC 1951 §3.2.6).
func (d *inflater) fixedTables() {
	if d.fixed {
		return
	}
	lens := d.lens[:len(litSyms)+len(distSyms)]
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		case s < 288:
			lens[s] = 8
		default:
			lens[s] = 5
		}
	}
	d.litMin, _ = buildTable(d.lit[:], litRoot, lens[:len(litSyms)], litSyms[:])
	d.distMin, _ = buildTable(d.dist[:], distRoot, lens[len(litSyms):], distSyms[:])
	d.fixed = true
}

// codeOrder is the order a dynamic block lists its code-length code in.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamicTables reads the header of a block of type 2 (RFC 1951 §3.2.7)
// and loads its two codes.
func (d *inflater) dynamicTables() bool {
	v, ok := d.bits(5 + 5 + 4)
	nlit, ndist, nclen := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if !ok || nlit > maxNumLit || ndist > maxNumDist {
		return false
	}
	var cl [len(codeOrder)]uint8
	for _, s := range codeOrder[:nclen] {
		v, ok := d.bits(3)
		if !ok {
			return false
		}
		cl[s] = uint8(v)
	}
	preMin, ok := buildTable(d.pre[:], preRoot, cl[:], preSyms[:])
	if !ok {
		return false
	}

	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		d.fill()
		e := d.pre[d.bb&(1<<preRoot-1)]
		n := uint(e & 15)
		if n == 0 || max(n, preMin) > d.nb {
			return false
		}
		d.bb >>= n
		d.nb -= n
		s := uint8(e >> 16)
		if s < 16 {
			lens[i] = s
			i++
			continue
		}
		// 16 repeats the previous length 3-6 times; 17 and 18 are runs
		// of 3-10 and 11-138 zeros.
		rep, extra, l := 3, uint(2), uint8(0)
		switch s {
		case 16:
			if i == 0 {
				return false
			}
			l = lens[i-1]
		case 17:
			extra = 3
		default:
			rep, extra = 11, 7
		}
		v, ok := d.bits(extra)
		if rep += int(v); !ok || i+rep > len(lens) {
			return false
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}

	d.fixed = false
	if d.litMin, ok = buildTable(d.lit[:], litRoot, lens[:nlit], litSyms[:]); !ok {
		return false
	}
	if d.distMin, ok = buildTable(d.dist[:], distRoot, lens[nlit:], distSyms[:]); !ok {
		return false
	}
	d.litMin = max(d.litMin, uint(lens[endOfBlock]))
	return true
}

// block decodes the symbols of a block of type 1 or 2 with the loaded
// codes, up to and including its end-of-block symbol.
func (d *inflater) block(out []byte, op int) (int, inflateStatus) {
	in, pos, bb, nb := d.in, d.pos, d.bb, d.nb
	lit, dist := &d.lit, &d.dist

	// Away from both ends — sixteen input bytes to load, room for three
	// literals and the longest match — nothing can run out: refill a word
	// at a time and check only what the stream itself can get wrong. Past
	// the nb bits counted, bb may hold bits of the bytes at pos already;
	// the next refill ORs the same bits into the same place.
	for pos+16 <= len(in) && op+3+258 <= len(out) {
		if nb < 48 { // 48 bits cover a whole match: 15+5 for the length, 15+13 for the distance
			bb |= binary.LittleEndian.Uint64(in[pos:]) << nb
			pos += int(63-nb) >> 3
			nb |= 56
		}
		e := lit[bb&(1<<litRoot-1)]
		if e&entryLit != 0 {
			// Literals straight out of the primary table are at most
			// litRoot bits each: three fit in what one refill leaves, and
			// leave 15 bits to look the fourth symbol up with.
			bb >>= e & 15
			nb -= uint(e & 15)
			out[op] = byte(e >> 16)
			op++
			if e = lit[bb&(1<<litRoot-1)]; e&entryLit != 0 {
				bb >>= e & 15
				nb -= uint(e & 15)
				out[op] = byte(e >> 16)
				op++
				if e = lit[bb&(1<<litRoot-1)]; e&entryLit != 0 {
					bb >>= e & 15
					nb -= uint(e & 15)
					out[op] = byte(e >> 16)
					op++
					continue
				}
			}
			bb |= binary.LittleEndian.Uint64(in[pos:]) << nb
			pos += int(63-nb) >> 3
			nb |= 56
		}
		if e&entrySub != 0 {
			e = lit[e>>16+uint32(bb>>litRoot)&(1<<(e>>8&31)-1)]
		}
		n := uint(e & 15)
		if e&entryLit != 0 {
			bb >>= n
			nb -= n
			out[op] = byte(e >> 16)
			op++
			continue
		}
		if n == 0 || e&entryBad != 0 {
			return op, inflateCorrupt
		}
		bb >>= n
		nb -= n
		if e&entryEOB != 0 {
			d.pos, d.bb, d.nb = pos, bb&(1<<nb-1), nb
			return op, inflateDone
		}
		x := uint(e >> 8 & 31)
		length := int(e>>16) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x

		e = dist[bb&(1<<distRoot-1)]
		if e&entrySub != 0 {
			e = dist[e>>16+uint32(bb>>distRoot)&(1<<(e>>8&31)-1)]
		}
		n = uint(e & 15)
		if n == 0 || e&entryBad != 0 {
			return op, inflateCorrupt
		}
		bb >>= n
		nb -= n
		x = uint(e >> 8 & 31)
		back := int(e>>16) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x
		if back > op {
			return op, inflateCorrupt
		}
		op = copyMatch(out, op, back, length)
	}
	bb &= 1<<nb - 1

	// Near either end: a byte at a time, every step checked against the
	// bits that are really there and the room that is really left.
	for {
		for nb <= 56 && pos < len(in) {
			bb |= uint64(in[pos]) << nb
			pos++
			nb += 8
		}
		e := lit[bb&(1<<litRoot-1)]
		if e&entrySub != 0 {
			e = lit[e>>16+uint32(bb>>litRoot)&(1<<(e>>8&31)-1)]
		}
		n := uint(e & 15)
		if n == 0 || max(n, d.litMin) > nb || e&entryBad != 0 {
			return op, inflateCorrupt
		}
		bb >>= n
		nb -= n
		if e&entryLit != 0 {
			if op == len(out) {
				return op, inflateFull
			}
			out[op] = byte(e >> 16)
			op++
			continue
		}
		if e&entryEOB != 0 {
			d.pos, d.bb, d.nb = pos, bb, nb
			return op, inflateDone
		}
		x := uint(e >> 8 & 31)
		if x > nb {
			return op, inflateCorrupt
		}
		length := int(e>>16) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x

		e = dist[bb&(1<<distRoot-1)]
		if e&entrySub != 0 {
			e = dist[e>>16+uint32(bb>>distRoot)&(1<<(e>>8&31)-1)]
		}
		n = uint(e & 15)
		if n == 0 || max(n, d.distMin) > nb || e&entryBad != 0 {
			return op, inflateCorrupt
		}
		bb >>= n
		nb -= n
		if x = uint(e >> 8 & 31); x > nb {
			return op, inflateCorrupt
		}
		back := int(e>>16) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x
		if back > op {
			return op, inflateCorrupt
		}
		if room := len(out) - op; length > room {
			return copyMatch(out, op, back, room), inflateFull
		}
		op = copyMatch(out, op, back, length)
	}
}

// copyMatch appends the length bytes that start back bytes before op to
// out[:op] and returns the new op. When the match overlaps its own
// output (back < length) each pass copies what is there and doubles it.
func copyMatch(out []byte, op, back, length int) int {
	src, end := op-back, op+length
	for op < end {
		op += copy(out[op:end], out[src:op])
	}
	return op
}
