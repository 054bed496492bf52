// Package bitio provides bit-granular writers and readers used by the
// compression codecs in this repository (bit-plane truncation, Huffman
// codes, embedded coding). The writer packs bits MSB-first into a byte
// slice; the reader consumes the same layout.
//
// Both sides work through a 64-bit accumulator: a WriteBits or ReadBits
// of any width is a shift, an OR and — once per 64 bits written, once
// per 56 or more read — one big-endian 8-byte store or load. No call
// loops over bits. The byte layout is the one the bit-at-a-time
// implementation produced (bitio_test.go keeps that implementation as
// the reference and compares byte for byte), so payloads written
// before and after are interchangeable.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned by Reader methods when the underlying buffer
// does not contain the requested number of bits.
var ErrShortBuffer = errors.New("bitio: short buffer")

// Writer accumulates bits MSB-first. The zero value is ready to use.
type Writer struct {
	buf []byte
	acc uint64 // the n bits not yet in buf, in acc's low n bits
	n   uint   // 0..63
}

// NewWriter returns a Writer whose internal buffer has the given capacity
// hint in bytes.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// Reset clears the writer, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.n = 0, 0
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) { w.WriteBits(uint64(b), 1) }

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.n
	if n < free {
		w.acc = w.acc<<n | v
		w.n += n
		return
	}
	// The accumulator fills: its bits and the top free bits of v leave
	// as one word, the other n-free bits of v stay behind.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc, w.n = v&(1<<rest-1), rest
}

// flushBytes moves the accumulator's whole bytes to buf, leaving fewer
// than 8 bits pending.
func (w *Writer) flushBytes() {
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
	w.acc &= 1<<w.n - 1
}

// WriteBytes appends whole bytes. It is fastest when the writer is
// byte-aligned.
func (w *Writer) WriteBytes(p []byte) {
	if w.n%8 == 0 {
		w.flushBytes()
		w.buf = append(w.buf, p...)
		return
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	w.WriteBits(0, -w.n&7)
}

// BitLen reports the total number of bits written.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.n) }

// Bytes returns the packed buffer, valid until the next write. Trailing
// bits of the final byte are zero.
func (w *Writer) Bytes() []byte {
	w.flushBytes()
	if w.n == 0 {
		return w.buf
	}
	// The partial byte is appended to the result only: BitLen, and what
	// a later write continues from, do not move.
	return append(w.buf, byte(w.acc<<(8-w.n)))
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int    // next byte of buf to load into acc
	acc uint64 // the next n unread bits, in acc's high n bits
	n   uint   // 0..64
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p}
}

// refill tops acc up from buf: to at least 57 bits, or to everything
// that is left. Bits of acc below the n valid ones may already hold
// the leading bits of buf[pos] — exactly what the next refill ORs into
// the same place, so they are never wrong, only early.
func (r *Reader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.n
		whole := (64 - r.n) / 8
		r.pos += int(whole)
		r.n += 8 * whole
		return
	}
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.n == 0 {
		if r.refill(); r.n == 0 {
			return 0, ErrShortBuffer
		}
	}
	b := uint(r.acc >> 63)
	r.acc <<= 1
	r.n--
	return b, nil
}

// ReadBits reads n bits (n ≤ 64), most significant first. A short
// buffer consumes nothing.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d out of range", n))
	}
	if n > 56 {
		// Wider than a refill guarantees: two reads.
		if r.Remaining() < int(n) {
			return 0, ErrShortBuffer
		}
		hi, _ := r.ReadBits(n - 32)
		lo, _ := r.ReadBits(32)
		return hi<<32 | lo, nil
	}
	if r.n < n {
		if r.refill(); r.n < n {
			return 0, ErrShortBuffer
		}
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v, nil
}

// ReadBytes reads whole bytes into p.
func (r *Reader) ReadBytes(p []byte) error {
	if r.n%8 == 0 {
		// Hand the accumulator's bytes back and copy from buf.
		pos := r.pos - int(r.n/8)
		if pos+len(p) > len(r.buf) {
			return ErrShortBuffer
		}
		copy(p, r.buf[pos:])
		r.pos, r.acc, r.n = pos+len(p), 0, 0
		return nil
	}
	for i := range p {
		v, err := r.ReadBits(8)
		if err != nil {
			return err
		}
		p[i] = byte(v)
	}
	return nil
}

// Align discards bits up to the next byte boundary.
func (r *Reader) Align() {
	k := r.n % 8
	r.acc <<= k
	r.n -= k
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.n)
}
