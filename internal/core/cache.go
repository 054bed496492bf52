package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"maps"
	"sync"
	"sync/atomic"
)

// keySeed seeds every key hash of this process. Hashes never leave the
// process and never decide a result (a hit is always verified), so a
// per-process seed costs no determinism.
var keySeed = maphash.MakeSeed()

// passKey is the part of a cache key that is fixed for a whole block
// pass: the sweep signature — hashed once here, not once per block —
// and the escalation level.
type passKey struct {
	sig     string
	sigHash uint64
	level   int
}

func newPassKey(sig string, level int) passKey {
	return passKey{sig: sig, sigHash: maphash.String(keySeed, sig), level: level}
}

// blockKey identifies one cached operation: a pass applied to the
// compressed inputs of one block group, in member order. A member the
// pass leaves untouched contributes a nil input (stored blobs are never
// empty), so the inputs also say which members the outputs belong to.
// variant is the block-index bits the pass's block controls read:
// inside a sweep they decide which gates fire on each member, so equal
// inputs under equal signatures map to equal outputs only when it
// matches too. The group base has the group's bits clear and a member's
// position fixes the rest, so variant is the base's bits alone. Tables
// index by hash alone; equal then confirms a candidate field by field,
// so a hash collision costs a miss and can never swap in the wrong
// output block. The inputs are held by reference — blobs are immutable
// (see blockstore.Store).
type blockKey struct {
	passKey
	variant int
	in      [groupSize][]byte
	hash    uint64
}

// block completes the pass key with one group's control variant and
// compressed inputs.
func (p passKey) block(variant int, in [groupSize][]byte) blockKey {
	var h maphash.Hash
	h.SetSeed(keySeed)
	var hdr [8 * (3 + groupSize)]byte
	binary.LittleEndian.PutUint64(hdr[0:], p.sigHash)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.level))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(variant))
	for m, blob := range in {
		binary.LittleEndian.PutUint64(hdr[24+8*m:], uint64(len(blob)))
	}
	h.Write(hdr[:])
	for _, blob := range in {
		h.Write(blob)
	}
	return blockKey{passKey: p, variant: variant, in: in, hash: h.Sum64()}
}

// equal compares everything the hash was computed from. On a redundant
// state the candidate's blobs are usually the very slices being looked
// up, which bytes.Equal settles by pointer without reading them.
func (k *blockKey) equal(o *blockKey) bool {
	if k.hash != o.hash || k.level != o.level || k.variant != o.variant || k.sig != o.sig {
		return false
	}
	for m := range k.in {
		if !bytes.Equal(k.in[m], o.in[m]) {
			return false
		}
	}
	return true
}

// cacheLine is one key → outputs entry of the block cache; apart from
// tick it is never written once published. The outputs are shared with
// every slot they were ever handed to, never copied.
type cacheLine struct {
	key blockKey
	out [groupSize][]byte // nil for a member the pass left untouched
	// tick is the number of the lookup that last touched the line;
	// the smallest tick is the LRU victim.
	tick atomic.Int64
}

// find returns the line stored for k, or nil.
func find(lines map[uint64]*cacheLine, k *blockKey) *cacheLine {
	if l := lines[k.hash]; l != nil && l.key.equal(k) {
		return l
	}
	return nil
}

// blockCache is the compressed block cache of §3.4: an LRU map from
// (sweep signature, error level, control variant, compressed input
// block(s)) to the compressed output block(s). When the quantum state
// carries redundancy — many blocks sharing the same compressed form — a
// hit replaces the decompress/compute/compress round trip with a hash
// of the input, a verifying compare and a pointer store: the output
// blob is shared, nothing is copied or allocated. If the state has no
// redundancy, or loses it, the cache stops hitting, so it disables
// itself after a probation window of consecutive misses, avoiding the
// paper's cache-miss penalty and releasing the lines' blobs.
//
// The rank's workers hit the cache concurrently during a fan-out, so a
// hit takes no lock: it reads an immutable snapshot of the table and
// records recency by stamping its line with the lookup counter — and
// not even that while the line is still the most recently used one,
// which on a redundant state is nearly always, so concurrent hits on
// one line share it read-only. put, which has just paid a codec round
// trip, serialises on mu, finds the LRU victim by scanning for the
// oldest stamp and publishes a fresh snapshot; that is O(lines) per
// miss, for a cache the paper sizes at 64 lines. With one worker the
// stamps are unique and ordered (an unstamped hit on the MRU line
// leaves it the newest), so the eviction order — and with it every
// lookup, hit and codec-call count — is exactly a linked-list LRU's.
type blockCache struct {
	cap int
	// probation is the number of consecutive hitless lookups after
	// which the cache shuts off.
	probation int64
	mu        sync.Mutex                            // serialises put and the shut-off
	table     atomic.Pointer[map[uint64]*cacheLine] // by key hash; nil once shut off
	lookups   atomic.Int64                          // doubles as the recency clock
	lastHit   atomic.Int64                          // number of the last lookup that hit
	mru       atomic.Pointer[cacheLine]
}

func newBlockCache(lines int) *blockCache {
	if lines <= 0 {
		return nil
	}
	c := &blockCache{cap: lines, probation: 4 * int64(lines)}
	c.table.Store(&map[uint64]*cacheLine{})
	return c
}

// enabled reports whether the cache is worth consulting; callers skip
// key construction entirely when it is not.
func (c *blockCache) enabled() bool {
	return c != nil && c.table.Load() != nil
}

// get returns the cached outputs for k, if present, counting the lookup
// (and the hit) in st exactly when the cache counted it — a cache that
// shut off since the caller's enabled() check counts nothing.
func (c *blockCache) get(k blockKey, st *Stats) (out [groupSize][]byte, ok bool, err error) {
	if c == nil {
		return out, false, nil
	}
	t := c.table.Load()
	if t == nil {
		return out, false, nil
	}
	n := c.lookups.Add(1)
	st.CacheLookups++
	if l := find(*t, &k); l != nil {
		if c.mru.Load() != l {
			l.tick.Store(n)
			c.mru.Store(l)
		}
		c.lastHit.Store(n)
		st.CacheHits++
		return l.out, true, nil
	}
	if n-c.lastHit.Load() >= c.probation {
		// §3.4: no redundancy left in the state — stop paying the miss
		// penalty and holding the lines.
		c.mu.Lock()
		c.table.Store(nil)
		c.mru.Store(nil)
		c.mu.Unlock()
	}
	return out, false, nil
}

// put stores the outputs of the lookup that just missed on k, evicting
// the least recently used line when the cache is full; a round trip that
// failed (err) has nothing to store. Key and outputs are kept by
// reference.
func (c *blockCache) put(k blockKey, out [groupSize][]byte, err error) {
	if c == nil || err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.table.Load()
	if t == nil {
		return
	}
	old := *t
	var victim *cacheLine
	if old[k.hash] == nil && len(old) >= c.cap {
		for _, o := range old {
			if victim == nil || o.tick.Load() < victim.tick.Load() {
				victim = o
			}
		}
	}
	next := maps.Clone(old)
	if victim != nil {
		delete(next, victim.key.hash)
	}
	l := &cacheLine{key: k, out: out}
	l.tick.Store(c.lookups.Load())
	next[k.hash] = l
	c.table.Store(&next)
	c.mru.Store(l)
}

// release drops every line, keeping the enabled / shut-off state and
// the lookup clock. Lines pin their input and output blobs outside
// every footprint ledger, so a run releases them when it returns; the
// redundancy they exploit lives within a pass and the next run refills
// them within its first.
func (c *blockCache) release() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.table.Load() != nil {
		c.table.Store(&map[uint64]*cacheLine{})
		c.mru.Store(nil)
	}
}
