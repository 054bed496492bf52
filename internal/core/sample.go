package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sync"
)

// Streaming compressed-domain sampling: shot-based readout that never
// materializes the 2^n-amplitude vector. A Sampler holds a two-level
// CDF over the compressed state — per-block probability masses folded
// into a global block prefix sum — built in one worker-pool pass over
// each rank's blocks. A Sample call binary-searches the block prefix
// for each shot's containing block, buckets the shots by block, and
// then visits every touched block ONCE on the worker pool: decompress
// it, fold its amplitudes' probabilities into an intra-block prefix
// array, and binary-search that array for each of the block's shots.
// A call costs O(shots·log(blocks·blockAmps) + touched·blockAmps)
// instead of the old FullState path's O(shots·2^n), with no cap on the
// register width. A small LRU keeps the blocks of narrow calls hot
// ACROSS calls on a held Sampler (see decodedLRU).
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
	cache *decodedLRU
	// memoMax is the blob-size cutoff below which blocks are treated as
	// content-addressed (identical bytes ⇒ identical amplitudes), both
	// while building the CDF and in the shot-time decoded-block LRU.
	memoMax int
	// slot[g] is Sample's per-block bucket counter, all zero between
	// calls. It lives here so a call never pays an O(blocks) term: it
	// touches, and clears again, only the entries of the blocks its
	// shots landed in.
	slot []int
}

// NewSampler builds the two-level CDF in one worker-pool pass over each
// rank's blocks and returns a Sampler holding it. cacheBlocks bounds
// the LRU of decoded blocks kept hot across Sample calls (minimum 1;
// 8·BlockAmps bytes per line, see decodedLRU). The pass charges nothing
// to the rank stats — sampling is an inspection path and must not skew
// the Table 2 time breakdown.
func (s *Simulator) NewSampler(cacheBlocks int) (*Sampler, error) {
	nb := s.blocksPerRank()
	ba := s.blockAmps()
	masses := make([]float64, len(s.ranks)*nb)
	// Redundant states — the regime the paper's compression targets —
	// store many byte-identical blobs (a basis state is one distinct
	// block plus copies of the zero block; a uniform superposition is
	// one blob repeated everywhere). Mass is a pure function of blob
	// content, so compact blobs are decoded once and memoized under a
	// hash of their bytes; a hit is confirmed byte for byte, as Load's
	// interning does, so a collision costs a decode, never a wrong mass.
	// Store blobs are immutable, so the memo holds them without a copy.
	// The size cutoff keeps the memo to blobs that compressed at least 4x
	// below the 16·ba raw block size — redundancy strong enough to
	// plausibly repeat; dense unique blobs skip the hash and map probe
	// entirely.
	type blobMass struct {
		blob []byte
		mass float64
	}
	memo := struct {
		sync.Mutex
		m map[uint64]blobMass
	}{m: make(map[uint64]blobMass)}
	memoMaxBlob := 16 * ba / 4
	for _, rs := range s.ranks {
		base := rs.id * nb
		// The CDF pass walks every block in ascending order — announce
		// it so a tiered store can stage spilled blobs ahead of the
		// workers.
		s.hintPass(rs, scanPass(0, 0))
		err := s.forBlocks(rs, func(w *workerState, b int) error {
			blob, err := rs.store.Get(b)
			if err != nil {
				return err
			}
			compact := len(blob) <= memoMaxBlob
			var sum uint64
			if compact {
				sum = maphash.Bytes(keySeed, blob)
				memo.Lock()
				e, ok := memo.m[sum]
				memo.Unlock()
				if ok && bytes.Equal(e.blob, blob) {
					masses[base+b] = e.mass
					return nil
				}
			}
			w.ensure()
			if err := s.decodeBlob(blob, w.x); err != nil {
				return err
			}
			var m float64
			for o := 0; o < ba; o++ {
				re, im := w.x[2*o], w.x[2*o+1]
				m += float64(re*re) + float64(im*im)
			}
			masses[base+b] = m
			if compact {
				memo.Lock()
				if _, seen := memo.m[sum]; !seen {
					memo.m[sum] = blobMass{blob, m}
				}
				memo.Unlock()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: sampler: rank %d: %w", rs.id, err)
		}
	}
	var total float64
	for i, m := range masses {
		total += m
		masses[i] = total
	}
	if !(total > 0) {
		return nil, ErrZeroMass
	}
	if cacheBlocks < 1 {
		cacheBlocks = 1
	}
	return &Sampler{
		s:       s,
		version: s.version,
		cum:     masses,
		total:   total,
		ba:      ba,
		cache:   &decodedLRU{cap: cacheBlocks, lines: make(map[decodedKey]*decodedLine, cacheBlocks)},
		memoMax: memoMaxBlob,
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

	// A call touching more blocks than the LRU has lines would evict
	// every line, its own included, and hit nothing: it bypasses the LRU.
	cached := len(touched) <= sp.cache.cap
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
		// Each touched block is decoded and folded once, into the worker's
		// own two-block working set (Eq. 8); out[k] writes are disjoint.
		// held[w.id] is the compact blob whose amplitudes worker w's x
		// holds, if any: a run of byte-identical blocks (a uniform
		// superposition is one blob repeated everywhere) decodes once per
		// worker even when the call is too wide for the LRU.
		held := make([][]byte, len(rs.workers))
		base := lo
		err := sp.s.forEach(rs, len(mine), func(w *workerState, i int) error {
			gb, b := mine[i], mine[i]%nb
			probs, err := sp.probs(rs, w, gb, cached, &held[w.id])
			if err != nil {
				return fmt.Errorf("core: sampler: rank %d block %d: %w", rs.id, b, err)
			}
			// Fold the running mass from the block boundary in linear-scan
			// order. The fold is monotone, so the first offset whose
			// running mass exceeds u is a binary search away.
			acc := 0.0
			if gb > 0 {
				acc = sp.cum[gb-1]
			}
			prefix := w.y[:sp.ba]
			lastNZ := sp.ba - 1
			for o, m := range probs {
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

// probs returns the probabilities |aₒ|² of global block gb's amplitudes:
// an LRU line when the call is cached, the worker's y buffer otherwise.
// *held is the compact blob w.x already holds decoded, kept up to date.
func (sp *Sampler) probs(rs *rankState, w *workerState, gb int, cached bool, held *[]byte) ([]float64, error) {
	blob, err := rs.store.Get(gb % sp.s.blocksPerRank())
	if err != nil {
		return nil, err
	}
	compact := len(blob) <= sp.memoMax
	w.ensure()
	dst := w.y[:sp.ba]
	var key decodedKey
	if cached {
		// Compact blobs cache by content, so a redundant state (many
		// byte-identical compressed blocks) occupies one line no matter
		// which blocks the shots land in; dense blobs cache by block
		// index, skipping the content hash.
		key = decodedKey{gb: gb}
		if compact {
			key = decodedKey{gb: -1, hash: maphash.Bytes(keySeed, blob)}
		}
		if p := sp.cache.get(key, blob); p != nil {
			return p, nil
		}
		dst = make([]float64, sp.ba)
	}
	if !compact || *held == nil || !bytes.Equal(blob, *held) {
		*held = nil
		if err := sp.s.decodeBlob(blob, w.x); err != nil {
			return nil, err
		}
		if compact {
			*held = blob
		}
	}
	for o := range dst {
		re, im := w.x[2*o], w.x[2*o+1]
		dst[o] = float64(re*re) + float64(im*im)
	}
	if cached {
		sp.cache.put(key, blob, dst)
	}
	return dst, nil
}

// decodedKey names an LRU line: a block index, or — gb -1 — the hash of
// a compact blob's bytes, which the line then confirms against the blob
// it holds by reference (blobs are immutable), as cache.go's keys do.
type decodedKey struct {
	gb   int
	hash uint64
}

type decodedLine struct {
	blob  []byte // content-keyed lines only
	probs []float64
	tick  int64 // the clock reading of the last touch; smallest is the victim
}

// decodedLRU keeps decoded blocks hot ACROSS Sample calls on a held
// Sampler: within a call every touched block is decoded once anyway. A
// line holds one block's probabilities (8·BlockAmps bytes) — all that
// resolution reads. Only calls that touch at most cap blocks go through
// it, so no call can evict a line it is about to use, and the workers of
// one call share it under mu. It stays apart from blockCache: that one
// maps compressed inputs to compressed outputs of a pass and is read
// lock-free by every block of every pass; this one holds decoded floats
// for a handful of blocks per call.
type decodedLRU struct {
	mu    sync.Mutex
	cap   int
	clock int64
	lines map[decodedKey]*decodedLine
}

func (c *decodedLRU) get(key decodedKey, blob []byte) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.lines[key]
	if l == nil || (key.gb < 0 && !bytes.Equal(l.blob, blob)) {
		return nil
	}
	c.clock++
	l.tick = c.clock
	return l.probs
}

func (c *decodedLRU) put(key decodedKey, blob []byte, probs []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lines[key] == nil && len(c.lines) >= c.cap {
		var victim decodedKey
		oldest := c.clock + 1
		for k, l := range c.lines {
			if l.tick < oldest {
				victim, oldest = k, l.tick
			}
		}
		delete(c.lines, victim)
	}
	c.clock++
	l := &decodedLine{probs: probs, tick: c.clock}
	if key.gb < 0 {
		l.blob = blob
	}
	c.lines[key] = l
}
