package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Flate is one reusable DEFLATE working set: a flate.Writer, a flate
// reader re-armed through flate.Resetter, and the buffers they fill.
// Building either coder costs more than running it on a block-sized
// payload (a reader is ~40 KB, a level-1 writer ~1.2 MB), so codecs
// keep Flates in a sync.Pool — never in state an idle simulator
// retains — and reset them per call. A Flate is not safe for concurrent
// use; the zero value is ready (Level 0 = flate.BestSpeed).
type Flate struct {
	Level int

	w   *flate.Writer
	out bytes.Buffer // Deflate's output
	r   io.ReadCloser
	in  bytes.Reader // the reader's source
	buf []byte       // Inflate's output
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

// reader arms f's flate reader on src.
func (f *Flate) reader(src []byte) (io.Reader, error) {
	f.in.Reset(src)
	if f.r == nil {
		f.r = flate.NewReader(&f.in)
		return f.r, nil
	}
	if err := f.r.(flate.Resetter).Reset(&f.in, nil); err != nil {
		return nil, fmt.Errorf("compress: flate: %w", err)
	}
	return f.r, nil
}

// InflateInto decompresses src into dst, which must be exactly the
// decoded size. Trailing bytes are tolerated (checkpoint containers
// pad).
func (f *Flate) InflateInto(dst, src []byte) error {
	r, err := f.reader(src)
	if err != nil {
		return err
	}
	if _, err := io.ReadFull(r, dst); err != nil {
		return fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	return nil
}

// Inflate decompresses all of src, which comes from checkpoint or wire
// bytes: a stream that decodes to more than limit bytes — the caller's
// worst-case pre-DEFLATE size for its header's Count — is ErrCorrupt
// before it can grow the buffer further. The result aliases f's buffer
// and is valid until the next Inflate.
func (f *Flate) Inflate(src []byte, limit int) ([]byte, error) {
	r, err := f.reader(src)
	if err != nil {
		return nil, err
	}
	buf := f.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), 512))
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return nil, fmt.Errorf("%w: flate: inflates past %d bytes", ErrCorrupt, limit)
		}
		if err == io.EOF {
			f.buf = buf
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
		}
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
