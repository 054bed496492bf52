package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"qcsim/internal/stats"
)

// Amplitude returns ⟨idx|ψ⟩, decompressing only the containing block.
func (s *Simulator) Amplitude(idx uint64) (complex128, error) {
	if idx >= 1<<uint(s.cfg.Qubits) {
		return 0, fmt.Errorf("core: amplitude index %d out of range", idx)
	}
	r, b, o := s.locate(idx)
	scratch := make([]float64, 2*s.blockAmps())
	// Peek, not Get: inspection must not disturb the resident set a
	// tiered store keeps for the hot path.
	blob, err := s.ranks[r].store.Peek(b)
	if err != nil {
		return 0, err
	}
	if err := s.decodeBlob(blob, scratch); err != nil {
		return 0, err
	}
	return complex(scratch[2*o], scratch[2*o+1]), nil
}

// FullState decompresses the whole state vector (test scales only).
func (s *Simulator) FullState() ([]complex128, error) {
	if s.cfg.Qubits > 26 {
		return nil, fmt.Errorf("core: FullState on %d qubits would allocate %s", s.cfg.Qubits, stats.FormatBytes(MemoryRequirement(s.cfg.Qubits)))
	}
	// Every block in rank → block order, Peeked (inspection never
	// disturbs the resident set a tiered store keeps for the hot path)
	// and decoded into one scratch of the call's own without touching
	// Stats (reading the state never skews the Table 2 time breakdown).
	out := make([]complex128, 1<<uint(s.cfg.Qubits))
	x := make([]float64, 2*s.blockAmps())
	for r, rs := range s.ranks {
		for b := range s.blocksPerRank() {
			blob, err := rs.store.Peek(b)
			if err != nil {
				return nil, err
			}
			if err := s.decodeBlob(blob, x); err != nil {
				return nil, err
			}
			base := s.compose(r, b, 0)
			for o := range s.blockAmps() {
				out[base+uint64(o)] = complex(x[2*o], x[2*o+1])
			}
		}
	}
	return out, nil
}

// Norm returns Σ|aᵢ|² across the full compressed state.
func (s *Simulator) Norm() (float64, error) { return s.mass() }

// ProbabilityOne returns P(qubit q = 1) without collapsing.
func (s *Simulator) ProbabilityOne(q int) (float64, error) {
	if q < 0 || q >= s.cfg.Qubits {
		return 0, fmt.Errorf("core: qubit %d out of range", q)
	}
	return s.mass(q)
}

// mass returns Σ|aᵢ|² over the indices i with every qubit of qs set: the
// ranks' blockMasses, Peeked and charged nowhere, in one running sum in
// global block order — the same bits at every worker and rank count, and
// mass() is a Sampler's TotalMass.
func (s *Simulator) mass(qs ...int) (float64, error) {
	offMask, blkMask, rankMask := s.splitControls(qs)
	var p float64
	for _, rs := range s.ranks {
		if rs.id&rankMask != rankMask {
			continue
		}
		masses, _, err := s.blockMasses(rs, rs.store.Peek, blkMask, offMask, 0)
		if err != nil {
			return 0, err
		}
		for _, m := range masses {
			p += m
		}
	}
	return p, nil
}

// compact reports whether blob is at most a quarter of its block's raw
// 16·BlockAmps bytes: redundant enough that equal blocks plausibly share
// it, so the mass read shares one decode among byte-equal blocks, and a
// Sample call's worker among a run of them.
func (s *Simulator) compact(blob []byte) bool { return len(blob) <= 4*s.blockAmps() }

// blockMasses is the read behind a measurement's probability, the
// Sampler's CDF, Norm, ProbabilityOne and AssertProduct's joint
// distribution. It keeps one mass per block for each subset of the
// offset bits split: with parts = subsets(split), masses[b·len(parts)+j]
// is Σ|aₒ|² over the offsets o that contain offMask and meet split in
// parts[j], in offset order, for each of the rank's blocks whose index
// has every bit of want set; the other blocks' masses are 0. It reads
// through get — the store's Get inside a Run, Peek for an inspection;
// the caller sends any prefetch hint — on the rank's worker pool, through
// a blobReader of the call's own: a compact blob decodes once per call
// and every byte-equal block reuses its masses. It charges no Stats:
// charge is what a Run charges for it, one decode per distinct compact
// blob and one per other block read (a count no worker schedule
// changes), and the decode time.
func (s *Simulator) blockMasses(rs *rankState, get func(int) ([]byte, error), want int, offMask, split uint64) (masses []float64, charge Stats, err error) {
	parts := subsets(split)
	n := len(parts)
	masses = make([]float64, s.blocksPerRank()*n)
	sum := func(x, m []float64) {
		sel := offMask | split
		for j, p := range parts {
			pat := offMask | p
			var t float64
			for o := 0; o < len(x)/2; o++ {
				if uint64(o)&sel == pat {
					re, im := x[2*o], x[2*o+1]
					t += float64(re*re) + float64(im*im)
				}
			}
			m[j] = t
		}
	}
	rd := s.newReader()
	err = s.forBlocks(rs, func(w *workerState, b int) error {
		if b&want != want {
			return nil
		}
		blob, err := get(b)
		if err != nil {
			return err
		}
		m := masses[b*n : (b+1)*n]
		if !s.compact(blob) {
			x, err := rd.decode(s, w, blob)
			if err == nil {
				sum(x, m)
			}
			return err
		}
		v, err := rd.values(s, w, rd.entry(w.id, blob), n, sum)
		copy(m, v)
		return err
	})
	return masses, rd.charge(), err
}

// blobReader is one read's decode side, shared by blockMasses and
// DiagonalExpectations: a decode buffer per worker id, the decodes each
// worker made, the memo entry each worker used last, and a memo of what
// each distinct compact blob reads as. A read makes one per call and
// borrows no worker's Eq. 8 pair, so reading a clone allocates no
// scratch.
type blobReader struct {
	xs     [][]float64
	shards []Stats
	last   []*blobValue // per worker id (entry)
	mu     sync.Mutex
	seen   map[uint64][]*blobValue // compact blobs by hash, then bytes
}

// blobValue is the memo's entry for one blob's bytes.
type blobValue struct {
	blob []byte // immutable, as every stored blob: held, not copied
	once sync.Once
	val  []float64
	err  error
}

// newReader sizes a blobReader for the worker ids of s's pools.
func (s *Simulator) newReader() *blobReader {
	return &blobReader{
		xs:     make([][]float64, s.cfg.Workers),
		shards: make([]Stats, s.cfg.Workers),
		last:   make([]*blobValue, s.cfg.Workers),
		seen:   make(map[uint64][]*blobValue),
	}
}

// decode decodes blob with s's codecs into w's buffer, charging w's
// shard.
func (r *blobReader) decode(s *Simulator, w *workerState, blob []byte) ([]float64, error) {
	x := r.xs[w.id]
	if x == nil {
		x = make([]float64, 2*s.blockAmps())
		r.xs[w.id] = x
	}
	return x, s.decompressBlock(blob, x, &r.shards[w.id])
}

// entry is the memo's entry for blob's bytes, made on first sight, as
// worker id asks for it. The worker's last entry comes first: on a
// redundant state a run of blocks holds one blob, which then costs a
// compare (by pointer, for a shared blob) and no hash and no lock.
func (r *blobReader) entry(id int, blob []byte) *blobValue {
	if e := r.last[id]; e != nil && bytes.Equal(e.blob, blob) {
		return e
	}
	h := maphash.Bytes(keySeed, blob)
	r.mu.Lock()
	i := slices.IndexFunc(r.seen[h], func(c *blobValue) bool { return bytes.Equal(c.blob, blob) })
	if i < 0 {
		i = len(r.seen[h])
		r.seen[h] = append(r.seen[h], &blobValue{blob: blob})
	}
	e := r.seen[h][i]
	r.mu.Unlock()
	r.last[id] = e
	return e
}

// values returns the n values fill makes of e's decoded amplitudes. The
// values are a function of the blob's bytes, so the first worker to ask
// decodes and fills, once per call, and every later ask — from any
// block, rank or variant holding those bytes — reuses them.
func (r *blobReader) values(s *Simulator, w *workerState, e *blobValue, n int, fill func(x, out []float64)) ([]float64, error) {
	e.once.Do(func() {
		var x []float64
		if x, e.err = r.decode(s, w, e.blob); e.err == nil {
			e.val = make([]float64, n)
			fill(x, e.val)
		}
	})
	return e.val, e.err
}

// charge is the decodes the reader made, merged across workers.
func (r *blobReader) charge() (st Stats) {
	for _, sh := range r.shards {
		st.merge(sh)
	}
	return st
}

// subsets lists the subsets of mask in ascending order: 2^|mask| of them.
func subsets(mask uint64) []uint64 {
	out := []uint64{0}
	for p := -mask & mask; p != 0; p = (p - mask) & mask {
		out = append(out, p)
	}
	return out
}

// Stats returns the aggregate across ranks, first refreshing each
// rank's footprint gauges and spill counters from its block store.
func (s *Simulator) Stats() Stats {
	var agg Stats
	for _, rs := range s.ranks {
		s.syncStoreStats(rs)
		agg = agg.Add(rs.stats)
	}
	return agg
}

// CompressedFootprint returns the current total compressed bytes
// across ranks and both memory tiers.
func (s *Simulator) CompressedFootprint() int64 {
	var t int64
	for _, rs := range s.ranks {
		t += rs.store.Footprint()
	}
	return t
}

// GatesRun returns the number of gates executed so far.
func (s *Simulator) GatesRun() int { return s.gatesRun }

// BytesMoved returns the cumulative cross-rank communication volume.
func (s *Simulator) BytesMoved() int64 { return s.bytesMoved }

// OverBudget reports whether, on any rank, a sweep boundary found the
// compressed footprint above the memory budget with the §3.7 escalation
// ladder already exhausted — the state was recompressed at the loosest
// error bound and still did not fit, so the adaptive pipeline can no
// longer trade fidelity for space. The latch clears on Reset.
func (s *Simulator) OverBudget() bool {
	for _, rs := range s.ranks {
		if rs.overBudget {
			return true
		}
	}
	return false
}
