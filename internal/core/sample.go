package core

import (
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Streaming compressed-domain sampling: shot-based readout that never
// materializes the 2^n-amplitude vector. A Sampler holds a two-level
// CDF over the compressed state — per-block probability masses folded
// into a global block prefix sum — built in one worker-pool pass over
// each rank's blocks. A shot binary-searches the block prefix for its
// containing block, decompresses only that block (through a small LRU
// so clustered shots amortize codec work; draws are resolved in sorted
// order, so each block decompresses at most once per call), and
// resolves the offset by an intra-block prefix scan: O(blocks +
// shots·(log shots + log blocks + blockAmps)) instead of the old
// FullState path's O(shots·2^n), with no cap on the register width.
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
}

// NewSampler builds the two-level CDF in one worker-pool pass over each
// rank's blocks and returns a Sampler holding it. cacheBlocks bounds
// the LRU of decompressed blocks kept hot during Sample (minimum 1, so
// repeated shots into one block always amortize; ~16·BlockAmps bytes
// per line). The pass charges nothing to the rank stats — sampling is
// an inspection path and must not skew the Table 2 time breakdown.
func (s *Simulator) NewSampler(cacheBlocks int) (*Sampler, error) {
	nb := s.blocksPerRank()
	ba := s.blockAmps()
	masses := make([]float64, len(s.ranks)*nb)
	// Redundant states — the regime the paper's compression targets —
	// store many byte-identical blobs (a basis state is one distinct
	// block plus copies of the zero block; a uniform superposition is
	// one blob repeated everywhere). Mass is a pure function of blob
	// content, so compact blobs are decoded once and memoized by their
	// bytes, never by a hash that could collide. The size cutoff keeps
	// the memo to blobs that compressed at least 4x below the 16·ba raw
	// block size — redundancy strong enough to plausibly repeat; dense
	// unique blobs skip the key copy and map probe entirely.
	memo := struct {
		sync.Mutex
		m map[string]float64
	}{m: make(map[string]float64)}
	memoMaxBlob := 16 * ba / 4
	for _, rs := range s.ranks {
		base := rs.id * nb
		// The CDF pass walks every block in ascending order — announce
		// it so a tiered store can stage spilled blobs ahead of the
		// workers.
		s.hintBlocks(rs, 0)
		err := s.forBlocks(rs, func(w *workerState, b int) error {
			blob, err := rs.store.Get(b)
			if err != nil {
				return err
			}
			if len(blob) <= memoMaxBlob {
				memo.Lock()
				m, ok := memo.m[string(blob)]
				memo.Unlock()
				if ok {
					masses[base+b] = m
					return nil
				}
			}
			if err := s.decodeBlob(blob, w.x); err != nil {
				return err
			}
			var m float64
			for o := 0; o < ba; o++ {
				re, im := w.x[2*o], w.x[2*o+1]
				m += re*re + im*im
			}
			masses[base+b] = m
			if len(blob) <= memoMaxBlob {
				memo.Lock()
				memo.m[string(blob)] = m
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
		cache:   newDecodedLRU(cacheBlocks),
		memoMax: memoMaxBlob,
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
		rng = sp.s.sampleRng
	}
	nb := sp.s.blocksPerRank()
	// Draw every uniform first, in shot order (the stream contract),
	// then resolve in ascending-u order: shots landing in one block
	// become adjacent, so each block is decompressed at most once per
	// call no matter how the shots scatter — without this, dense states
	// with more blocks than LRU lines would pay one codec round trip
	// per shot. Resolution is read-only and per-shot independent, so
	// the reordering changes no outcome.
	us := make([]float64, shots)
	for k := range us {
		us[k] = rng.Float64() * sp.total
	}
	order := make([]int, shots)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return us[order[i]] < us[order[j]] })
	// Locate every sorted draw's containing block up front: the
	// resulting ascending visit sequence doubles as the prefetch
	// oracle for a tiered store (disk reads overlap the decode work of
	// earlier blocks), and the shot loop reuses it instead of
	// re-searching.
	gbs := make([]int, shots)
	for i, k := range order {
		u := us[k]
		gb := sort.Search(len(sp.cum), func(i int) bool { return u < sp.cum[i] })
		if gb == len(sp.cum) {
			// fl(r·total) can round up onto the final boundary; clamp to
			// the last block carrying mass.
			for gb = len(sp.cum) - 1; gb > 0 && blockMass(sp.cum, gb) == 0; gb-- {
			}
		}
		gbs[i] = gb
	}
	sp.hintDrawOrder(gbs)
	out := make([]uint64, shots)
	// Sorted resolution makes consecutive shots hit the same block most
	// of the time; the one-entry memo skips the LRU key construction
	// (and its blob copy) for those.
	lastGB := -1
	var amps []float64
	for i, k := range order {
		u := us[k]
		gb := gbs[i]
		if gb != lastGB {
			var err error
			if amps, err = sp.block(gb); err != nil {
				return nil, err
			}
			lastGB = gb
		}
		acc := 0.0
		if gb > 0 {
			acc = sp.cum[gb-1]
		}
		idx, lastNZ := -1, -1
		for o := 0; o < sp.ba; o++ {
			re, im := amps[2*o], amps[2*o+1]
			m := re*re + im*im
			if m != 0 {
				lastNZ = o
			}
			acc += m
			if u < acc {
				idx = o
				break
			}
		}
		if idx < 0 {
			// The intra-block fold re-accumulates from the block boundary,
			// so its endpoint can land an ulp short of cum[gb]; resolve
			// against the last amplitude that carries mass, never an
			// arbitrary basis state.
			idx = lastNZ
			if idx < 0 {
				idx = sp.ba - 1
			}
		}
		out[k] = sp.s.compose(gb/nb, gb%nb, idx)
	}
	return out, nil
}

// hintDrawOrder announces each rank's block visit sequence for one
// Sample call to tiered stores, deduplicating consecutive repeats
// (draws are resolved in sorted order, so equal blocks are adjacent
// and each rank's sequence is ascending).
func (sp *Sampler) hintDrawOrder(gbs []int) {
	anyWant := false
	for _, rs := range sp.s.ranks {
		if rs.store.WantHints() {
			anyWant = true
			break
		}
	}
	if !anyWant {
		return
	}
	nb := sp.s.blocksPerRank()
	orders := make([][]int, len(sp.s.ranks))
	for _, gb := range gbs {
		r, b := gb/nb, gb%nb
		if n := len(orders[r]); n > 0 && orders[r][n-1] == b {
			continue
		}
		orders[r] = append(orders[r], b)
	}
	for r, rs := range sp.s.ranks {
		if rs.store.WantHints() && len(orders[r]) > 0 {
			rs.store.PrefetchHint(orders[r])
		}
	}
}

func blockMass(cum []float64, g int) float64 {
	if g == 0 {
		return cum[0]
	}
	return cum[g] - cum[g-1]
}

// block returns global block gb decompressed, through the LRU. Compact
// blobs cache by content, so a redundant state (many byte-identical
// compressed blocks) occupies one line no matter which blocks the shots
// land in; dense blobs cache by block index, skipping the content hash.
func (sp *Sampler) block(gb int) ([]float64, error) {
	nb := sp.s.blocksPerRank()
	rs := sp.s.ranks[gb/nb]
	blob, err := rs.store.Get(gb % nb)
	if err != nil {
		return nil, fmt.Errorf("core: sampler: rank %d block %d: %w", rs.id, gb%nb, err)
	}
	key := decodedKey(gb, blob, sp.memoMax)
	if amps, ok := sp.cache.get(key); ok {
		return amps, nil
	}
	amps := make([]float64, 2*sp.ba)
	if err := sp.s.decodeBlob(blob, amps); err != nil {
		return nil, fmt.Errorf("core: sampler: rank %d block %d: %w", rs.id, gb%nb, err)
	}
	sp.cache.put(key, amps)
	return amps, nil
}

// decodedKey builds the LRU key: a "c"-prefixed copy of the blob bytes
// for compact (plausibly repeated) blobs, an "i"-prefixed block index
// otherwise. The prefix byte keeps the two namespaces disjoint.
func decodedKey(gb int, blob []byte, memoMax int) string {
	if len(blob) <= memoMax {
		return "c" + string(blob)
	}
	return fmt.Sprintf("i%d", gb)
}

// decodedLRU is a tiny LRU of decompressed blocks. Single-goroutine by
// contract (the Sampler is not safe for concurrent use), so no lock.
type decodedLRU struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type decodedEntry struct {
	key  string
	amps []float64
}

func newDecodedLRU(capacity int) *decodedLRU {
	return &decodedLRU{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

func (c *decodedLRU) get(key string) ([]float64, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*decodedEntry).amps, true
	}
	return nil, false
}

func (c *decodedLRU) put(key string, amps []float64) {
	for c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*decodedEntry).key)
	}
	c.items[key] = c.ll.PushFront(&decodedEntry{key: key, amps: amps})
}
