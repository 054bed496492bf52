package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qcsim/internal/compress"
	"qcsim/internal/mpi"
)

// Span names. The engine has no tracing of its own, so every span is
// recorded here, around the calls the engine makes through a seam the
// benchmark can wrap: the two codecs and the rank communicator.
const (
	spanLosslessEnc = "compress.lossless.enc"
	spanLosslessDec = "compress.lossless.dec"
	spanLossyEnc    = "compress.lossy.enc"
	spanLossyDec    = "compress.lossy.dec"
	spanSendRecv    = "mpi.sendrecv"
	spanCollective  = "mpi.collective"
)

// span is one timed call at a layer boundary. rank is the caller's
// rank for communicator spans and -1 for codec spans (a codec is not
// told which rank calls it; the trace writer puts those on lanes by
// overlap). raw and packed are the uncompressed and compressed byte
// counts of a codec call, or the payload bytes of an exchange.
type span struct {
	name        string
	iv          interval
	rank        int
	raw, packed int64
}

// recorder collects spans in memory; nothing is written until the run
// has been timed.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) add(name string, t0, t1 time.Time, rank int, raw, packed int64) {
	s := span{name: name, iv: interval{t0.Sub(r.epoch), t1.Sub(r.epoch)}, rank: rank, raw: raw, packed: packed}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// codecBusy is the time spent inside codec calls that started within
// iv.
func (r *recorder) codecBusy(iv interval) time.Duration {
	var busy time.Duration
	for _, s := range r.spans {
		if s.rank < 0 && s.iv.start >= iv.start && s.iv.start < iv.end {
			busy += s.iv.end - s.iv.start
		}
	}
	return busy
}

// layerTotals sums the spans of one name.
type layerTotals struct {
	calls       int64
	busy        time.Duration
	raw, packed int64
}

func (r *recorder) totals(name string) layerTotals {
	var t layerTotals
	for _, s := range r.spans {
		if s.name == name {
			t.calls++
			t.busy += s.iv.end - s.iv.start
			t.raw += s.raw
			t.packed += s.packed
		}
	}
	return t
}

// tracedCodec records one span per Compress and Decompress call of the
// codec it wraps. With checkEvery > 0 it also decodes every
// checkEvery-th encoded block again and counts the blocks that break
// the requested error bound.
type tracedCodec struct {
	compress.Codec
	rec        *recorder
	enc, dec   string
	checkEvery int64
	calls      atomic.Int64
	violations atomic.Int64
}

func (c *tracedCodec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	t0 := time.Now()
	out, err := c.Codec.Compress(dst, src, opt)
	t1 := time.Now()
	c.rec.add(c.enc, t0, t1, -1, int64(8*len(src)), int64(len(out)-len(dst)))
	if err == nil && c.checkEvery > 0 && c.calls.Add(1)%c.checkEvery == 0 {
		back := make([]float64, len(src))
		if c.Codec.Decompress(back, out[len(dst):]) != nil || compress.CheckBound(src, back, opt) >= 0 {
			c.violations.Add(1)
		}
	}
	return out, err
}

func (c *tracedCodec) Decompress(dst []float64, data []byte) error {
	t0 := time.Now()
	err := c.Codec.Decompress(dst, data)
	c.rec.add(c.dec, t0, time.Now(), -1, int64(8*len(dst)), int64(len(data)))
	return err
}

// tracedLauncher hands every rank body a communicator that records a
// span per call.
type tracedLauncher struct {
	inner mpi.Launcher
	rec   *recorder
}

func (l tracedLauncher) Launch(size int, body func(mpi.Comm)) ([]mpi.Comm, error) {
	return l.inner.Launch(size, func(c mpi.Comm) { body(tracedComm{c, l.rec}) })
}

type tracedComm struct {
	mpi.Comm
	rec *recorder
}

func (c tracedComm) SendRecv(peer int, send, recv []float64) {
	t0 := time.Now()
	c.Comm.SendRecv(peer, send, recv)
	c.rec.add(spanSendRecv, t0, time.Now(), c.Rank(), int64(8*len(send)), 0)
}

func (c tracedComm) collective(t0 time.Time) {
	c.rec.add(spanCollective, t0, time.Now(), c.Rank(), 0, 0)
}

func (c tracedComm) Barrier() {
	defer c.collective(time.Now())
	c.Comm.Barrier()
}

func (c tracedComm) AllreduceSum(x float64) float64 {
	defer c.collective(time.Now())
	return c.Comm.AllreduceSum(x)
}

func (c tracedComm) AllreduceMax(x uint64) uint64 {
	defer c.collective(time.Now())
	return c.Comm.AllreduceMax(x)
}

func (c tracedComm) Bcast(root int, x float64) float64 {
	defer c.collective(time.Now())
	return c.Comm.Bcast(root, x)
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and ui.perfetto.dev both open it.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	pidEngine = 1 // the rep and its sweeps, as seen from rank 0
	pidCodec  = 2 // codec calls, one lane per concurrent caller
	pidComm   = 3 // communicator calls, one lane per rank
)

// writeTrace writes the traced rep as Chrome trace-event JSON: the
// rep, the sweeps inside it (each with its self time — duration minus
// the codec and communicator calls it covers) and every recorded span
// with the sweep that caused it as parent.
func writeTrace(path, workload string, rep interval, sweeps []span, rec *recorder) error {
	calls := append([]span(nil), rec.spans...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].iv.start < calls[j].iv.start })
	ivs := make([]interval, len(calls))
	for i, s := range calls {
		ivs[i] = s.iv
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	events := []traceEvent{{
		Name: workload, Cat: "rep", Ph: "X", Ts: us(rep.start), Dur: us(rep.end - rep.start),
		Pid: pidEngine, Tid: 0,
		Args: map[string]any{"id": 0, "self_us": us(selfTime(rep, ivs))},
	}}
	// A call belongs to the sweep on rank 0's timeline it started in;
	// both lists are in start order, so one pass finds every parent.
	parent := make([]int, len(calls))
	si := 0
	for i, s := range calls {
		for si < len(sweeps) && sweeps[si].iv.end <= s.iv.start {
			si++
		}
		if si < len(sweeps) && sweeps[si].iv.start <= s.iv.start {
			parent[i] = si + 1
		}
	}
	for i, sw := range sweeps {
		var kids []interval
		for j, p := range parent {
			if p == i+1 {
				kids = append(kids, calls[j].iv)
			}
		}
		events = append(events, traceEvent{
			Name: sw.name, Cat: "sweep", Ph: "X", Ts: us(sw.iv.start), Dur: us(sw.iv.end - sw.iv.start),
			Pid: pidEngine, Tid: 0,
			Args: map[string]any{"id": i + 1, "parent": 0, "self_us": us(selfTime(sw.iv, kids))},
		})
	}
	var codecIdx []int
	var codecIvs []interval
	for i, s := range calls {
		if s.rank < 0 {
			codecIdx = append(codecIdx, i)
			codecIvs = append(codecIvs, s.iv)
		}
	}
	lane := make([]int, len(calls))
	for k, l := range lanes(codecIvs) {
		lane[codecIdx[k]] = l
	}
	for i, s := range calls {
		ev := traceEvent{
			Name: s.name, Cat: "call", Ph: "X", Ts: us(s.iv.start), Dur: us(s.iv.end - s.iv.start),
			Pid: pidCodec, Tid: lane[i],
			Args: map[string]any{"id": len(sweeps) + 1 + i, "parent": parent[i], "raw_bytes": s.raw, "packed_bytes": s.packed},
		}
		if s.rank >= 0 {
			ev.Pid, ev.Tid = pidComm, s.rank
		}
		events = append(events, ev)
	}

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perf: writing trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("perf: writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perf: writing trace %s: %w", path, err)
	}
	return nil
}
