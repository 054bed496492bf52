package compress

import "fmt"

// Flate is one reusable DEFLATE working set: the repository's own
// one-shot encoder (deflate.go) and decoder (inflate.go), and the buffers
// they fill. Building either coder costs more than running it on a
// block-sized payload (the encoder's match table is 128 KB, the decoder's
// tables ~45 KB), so codecs keep Flates in a sync.Pool — never in state an
// idle simulator retains — and reuse them. A Flate is not safe for
// concurrent use; the zero value is ready.
type Flate struct {
	def *deflater
	inf *inflater
	buf []byte // Inflate's output
}

// Deflate compresses src into exactly the stream compress/flate's
// BestSpeed Writer makes of it in one Write and a Close — the paper
// favors compression speed. The result aliases f's buffer and is valid
// until the next Deflate; its bytes depend only on src, not on what f
// compressed before, and not on the toolchain's compress/flate.
func (f *Flate) Deflate(src []byte) []byte {
	if f.def == nil {
		f.def = newDeflater()
	}
	return f.def.deflate(src)
}

func (f *Flate) inflater() *inflater {
	if f.inf == nil {
		f.inf = new(inflater)
	}
	return f.inf
}

// InflateInto decompresses src into dst, which must be exactly the
// decoded size: a stream that ends or fails before dst is full is
// ErrCorrupt. What follows once dst is full — more stream, or trailing
// bytes (checkpoint containers pad) — is not looked at.
func (f *Flate) InflateInto(dst, src []byte) error {
	if n, _ := f.inflater().inflate(dst, src); n != len(dst) {
		return fmt.Errorf("%w: flate: stream ends or fails after %d of %d bytes", ErrCorrupt, n, len(dst))
	}
	return nil
}

// Inflate decompresses all of src, which comes from checkpoint or wire
// bytes: a stream that decodes to more than limit bytes — the caller's
// worst-case pre-DEFLATE size for its header's Count — is ErrCorrupt,
// and no more than limit bytes are ever written. The result aliases f's
// buffer and is valid until the next Inflate.
func (f *Flate) Inflate(src []byte, limit int) ([]byte, error) {
	d := f.inflater()
	// The decoder writes in place and does not suspend, so a buffer that
	// turns out too small means starting over in one twice the size —
	// which a pooled Flate does on its first streams only.
	size := min(limit, max(cap(f.buf), 4*len(src), 512))
	for {
		if cap(f.buf) < size {
			f.buf = make([]byte, size)
		}
		n, st := d.inflate(f.buf[:size], src)
		switch {
		case st == inflateDone:
			return f.buf[:n], nil
		case st == inflateCorrupt:
			return nil, fmt.Errorf("%w: flate: invalid or truncated stream after %d bytes", ErrCorrupt, n)
		case size == limit:
			return nil, fmt.Errorf("%w: flate: inflates past %d bytes", ErrCorrupt, limit)
		}
		size = min(limit, 2*size)
	}
}
