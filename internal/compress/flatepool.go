package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"sync"
)

// Flate is one reusable DEFLATE working set: a flate.Writer, the
// repository's own one-shot decoder (inflate.go), and the buffers they
// fill. Building either coder costs more than running it on a
// block-sized payload (the decoder's tables are ~45 KB, a level-1 writer
// ~1.2 MB), so codecs keep Flates in a sync.Pool — never in state an
// idle simulator retains — and reuse them. A Flate is not safe for
// concurrent use; the zero value is ready (Level 0 = flate.BestSpeed).
type Flate struct {
	Level int

	w   *flate.Writer
	out bytes.Buffer // Deflate's output
	inf *inflater
	buf []byte // Inflate's output
}

// Deflate compresses src. The result aliases f's buffer and is valid
// until the next Deflate; its bytes depend only on src and Level, not
// on what f compressed before.
func (f *Flate) Deflate(src []byte) ([]byte, error) {
	f.out.Reset()
	if f.w == nil {
		lvl := f.Level
		if lvl == 0 {
			lvl = flate.BestSpeed // the paper favors compression speed
		}
		w, err := flate.NewWriter(&f.out, lvl)
		if err != nil {
			return nil, fmt.Errorf("compress: flate: %w", err)
		}
		f.w = w
	} else {
		f.w.Reset(&f.out)
	}
	if _, err := f.w.Write(src); err != nil {
		return nil, fmt.Errorf("compress: flate: %w", err)
	}
	if err := f.w.Close(); err != nil {
		return nil, fmt.Errorf("compress: flate: %w", err)
	}
	return f.out.Bytes(), nil
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

// FlatePool shares Flates between the goroutines using one codec
// instance: pooled rather than mutex-serialized, so SPMD ranks compress
// blocks in parallel (the paper's per-rank compression is embarrassingly
// parallel and the engine's strong scaling depends on it).
type FlatePool struct {
	// Level is the flate level; 0 means flate.BestSpeed.
	Level int
	pool  sync.Pool
}

// Get takes a Flate out of the pool; hand it back with Put once nothing
// refers to the slices it returned.
func (p *FlatePool) Get() *Flate {
	if f, _ := p.pool.Get().(*Flate); f != nil {
		return f
	}
	return &Flate{Level: p.Level}
}

// Put returns f to the pool.
func (p *FlatePool) Put(f *Flate) { p.pool.Put(f) }

// Deflate compresses src, appending to dst.
func (p *FlatePool) Deflate(dst, src []byte) ([]byte, error) {
	f := p.Get()
	defer p.Put(f)
	body, err := f.Deflate(src)
	if err != nil {
		return nil, err
	}
	return append(Grow(dst, len(body)), body...), nil
}
