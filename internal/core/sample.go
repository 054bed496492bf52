package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// Streaming compressed-domain sampling: shot-based readout that never
// materializes the 2^n-amplitude vector. A Sampler holds a two-level
// CDF over the compressed state — per-block probability masses folded
// into a global block prefix sum — built by blockMasses, the read a
// measurement, Norm and ProbabilityOne share: one worker-pool pass over
// each rank's blocks that decodes each distinct compact blob once. A
// Sample call binary-searches the block prefix for each shot's
// containing block, buckets the shots by block, and then visits every
// touched block ONCE on the worker pool: decompress it, fold its
// amplitudes' probabilities into an intra-block prefix array, and
// binary-search that array for each of the block's shots. A call costs
// O(shots·log(blocks·blockAmps) + touched·blockAmps) instead of the old
// FullState path's O(shots·2^n), with no cap on the register width. A
// Sampler keeps the CDF and nothing else between calls: every call
// decodes the blocks it touches afresh, and a run of byte-equal compact
// blobs once per worker (see sampleScratch).
//
// Draws are normalized by the CDF's true total mass. Under lossy
// codecs the state's norm drifts below 1; the old linear scan compared
// raw uniform draws against the un-normalized running mass, so any
// draw landing past the accumulated total silently fell through to
// basis state 0 and biased every lossy-mode histogram toward |0...0⟩.
// Scaling each draw into [0, totalMass) makes that fall-through
// structurally impossible.

// ErrSamplerStale reports a Sampler whose CDF no longer describes the
// simulator's state: gates ran, a checkpoint loaded, or the state was
// reset after NewSampler. Build a fresh Sampler.
var ErrSamplerStale = errors.New("core: sampler stale: state mutated since NewSampler")

// Sampler draws full-register outcomes directly from the compressed
// state. Build with NewSampler; a Sampler is bound to the state at
// build time and reports ErrSamplerStale once the state mutates. Like
// the Simulator itself, a Sampler is not safe for concurrent use.
type Sampler struct {
	s       *Simulator
	version uint64
	// cum[g] is the total probability mass of global blocks 0..g, folded
	// sequentially in (rank, block) order — the same block-then-offset
	// accumulation order as a linear scan of the full vector, so for the
	// same seed the selected outcomes match the old path.
	cum   []float64
	total float64
	ba    int
	// slot[g] is Sample's per-block bucket counter, all zero between
	// calls. It lives here so a call never pays an O(blocks) term: it
	// touches, and clears again, only the entries of the blocks its
	// shots landed in.
	slot []int
}

// NewSampler builds the two-level CDF from each rank's blockMasses and
// returns a Sampler holding it. The int argument is ignored; it stays
// only so that existing callers compile. The pass charges nothing to the
// rank stats — sampling is an inspection path and must not skew the
// Table 2 time breakdown.
func (s *Simulator) NewSampler(int) (*Sampler, error) {
	masses := make([]float64, 0, len(s.ranks)*s.blocksPerRank())
	for _, rs := range s.ranks {
		// The CDF pass walks every block in ascending order — announce
		// it so a tiered store can stage spilled blobs ahead of the
		// workers.
		s.hintPass(rs, scanPass(0, 0))
		m, _, err := s.blockMasses(rs, rs.store.Get, 0, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("core: sampler: rank %d: %w", rs.id, err)
		}
		masses = append(masses, m...)
	}
	var total float64
	for i, m := range masses {
		total += m
		masses[i] = total
	}
	if !(total > 0) {
		return nil, ErrZeroMass
	}
	return &Sampler{
		s:       s,
		version: s.version,
		cum:     masses,
		total:   total,
		ba:      s.blockAmps(),
		slot:    make([]int, len(masses)),
	}, nil
}

// TotalMass returns the CDF's normalization constant Σ|aᵢ|² — 1 up to
// floating-point rounding for lossless states, below 1 once lossy
// compression has shed mass.
func (sp *Sampler) TotalMass() float64 { return sp.total }

// Sample draws `shots` full-register outcomes without collapsing the
// state. A nil rng falls back to the simulator's dedicated seeded
// sampling stream (separate from measurement collapse, so sampling
// never perturbs later outcomes). Each draw is scaled by TotalMass, so
// outcome frequencies follow the state's normalized distribution even
// when lossy compression has shed mass.
func (sp *Sampler) Sample(rng *rand.Rand, shots int) ([]uint64, error) {
	if sp.version != sp.s.version {
		return nil, ErrSamplerStale
	}
	if shots < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeShots, shots)
	}
	if rng == nil {
		if sp.s.sampleRng == nil {
			sp.s.sampleRng = SampleStream(sp.s.cfg.Seed)
		}
		rng = sp.s.sampleRng
	}
	// Draw every uniform in shot order (the stream contract) and locate
	// its block. Until a shot resolves, out[k] holds its block index.
	us := make([]float64, shots)
	out := make([]uint64, shots)
	touched := make([]int, 0, min(shots, len(sp.cum)))
	for k := range us {
		u := rng.Float64() * sp.total
		gb := upperBound(sp.cum, u)
		if gb == len(sp.cum) {
			// fl(r·total) can round up onto the final boundary; clamp to
			// the last block carrying mass.
			for gb = len(sp.cum) - 1; gb > 0 && blockMass(sp.cum, gb) == 0; gb-- {
			}
		}
		us[k], out[k] = u, uint64(gb)
		if sp.slot[gb] == 0 {
			touched = append(touched, gb)
		}
		sp.slot[gb]++
	}
	// Bucket the shots by block, by counting placement over the touched
	// list: shots of block touched[i] are byBlock[start[i]:start[i+1]].
	// Resolution is read-only and per-shot independent, so visiting the
	// shots block by block changes no outcome. The ascending list is
	// also the visit order a tiered store's prefetcher is told.
	slices.Sort(touched)
	start := make([]int, len(touched)+1)
	for i, gb := range touched {
		start[i+1] = start[i] + sp.slot[gb]
		sp.slot[gb] = start[i]
	}
	byBlock := make([]int, shots)
	for k, gb := range out {
		byBlock[sp.slot[gb]] = k
		sp.slot[gb]++
	}
	for _, gb := range touched {
		sp.slot[gb] = 0
	}

	nb := sp.s.blocksPerRank()
	for lo := 0; lo < len(touched); {
		rs := sp.s.ranks[touched[lo]/nb]
		hi := lo
		for hi < len(touched) && touched[hi]/nb == rs.id {
			hi++
		}
		mine := touched[lo:hi]
		if rs.store.WantHints() {
			order := make([]int, len(mine))
			for i, gb := range mine {
				order[i] = gb % nb
			}
			rs.store.PrefetchHint(order)
		}
		// Each touched block is decoded and folded once, into buffers of
		// the call's own, one set per worker id, never into a worker's
		// Eq. 8 pair; out[k] writes are disjoint.
		scr := make([]sampleScratch, len(rs.workers))
		base := lo
		err := sp.s.forEach(rs, len(mine), func(w *workerState, i int) error {
			gb, b := mine[i], mine[i]%nb
			sc := &scr[w.id]
			if sc.x == nil {
				buf := make([]float64, 3*sp.ba)
				sc.x, sc.y = buf[:2*sp.ba:2*sp.ba], buf[2*sp.ba:]
			}
			if err := sp.decode(rs, sc, b); err != nil {
				return fmt.Errorf("core: sampler: rank %d block %d: %w", rs.id, b, err)
			}
			// Fold the running mass |aₒ|² from the block boundary in
			// linear-scan order. The fold is monotone, so the first offset
			// whose running mass exceeds u is a binary search away.
			acc := 0.0
			if gb > 0 {
				acc = sp.cum[gb-1]
			}
			prefix := sc.y
			lastNZ := sp.ba - 1
			for o := range prefix {
				re, im := sc.x[2*o], sc.x[2*o+1]
				m := float64(re*re) + float64(im*im)
				if m != 0 {
					lastNZ = o
				}
				acc += m
				prefix[o] = acc
			}
			for _, k := range byBlock[start[base+i]:start[base+i+1]] {
				o := upperBound(prefix, us[k])
				if o == sp.ba {
					// The intra-block fold re-accumulates from the block
					// boundary, so its endpoint can land an ulp short of
					// cum[gb]; resolve against the last amplitude that
					// carries mass, never an arbitrary basis state.
					o = lastNZ
				}
				out[k] = sp.s.compose(rs.id, b, o)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		lo = hi
	}
	return out, nil
}

// upperBound returns the first index of the non-decreasing a whose
// element exceeds u, len(a) if none does.
func upperBound(a []float64, u float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); u < a[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func blockMass(cum []float64, g int) float64 {
	if g == 0 {
		return cum[0]
	}
	return cum[g] - cum[g-1]
}

// sampleScratch is one worker's buffers for one rank of a Sample call:
// x a decoded block, y its running sums, and held the compact blob whose
// amplitudes x holds, if any — so a run of byte-identical blocks (a
// uniform superposition is one blob repeated everywhere) decodes once
// per worker.
type sampleScratch struct {
	x, y []float64
	held []byte
}

// decode leaves block b's amplitudes in sc.x, skipping the codec when
// the blob is the compact one sc.x already holds.
func (sp *Sampler) decode(rs *rankState, sc *sampleScratch, b int) error {
	blob, err := rs.store.Get(b)
	if err != nil {
		return err
	}
	if sc.held != nil && bytes.Equal(blob, sc.held) {
		return nil
	}
	sc.held = nil
	if err := sp.s.decodeBlob(blob, sc.x); err != nil {
		return err
	}
	if sp.s.compact(blob) {
		sc.held = blob
	}
	return nil
}
