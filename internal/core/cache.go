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
// tick and gone it is never written once published. The outputs are
// shared with every slot they were ever handed to, never copied.
type cacheLine struct {
	key blockKey
	out [groupSize][]byte // nil for a member the pass left untouched
	// tick is the number of the lookup that last touched the line;
	// the smallest tick is the LRU victim.
	tick atomic.Int64
	// gone is set, under the cache's mu, once the line leaves the table:
	// evicted or replaced by put, or dropped by release.
	gone atomic.Bool
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
// hit replaces the decompress/compute/compress round trip with a
// pointer store: the output blob is shared, nothing is copied or
// allocated. A worker whose group has the very input blobs, by
// reference, of a line it used lately recalls that line (recall) and
// hashes nothing; any other lookup hashes the inputs and verifies the
// candidate. If the state has no redundancy, or loses it, the cache
// stops hitting, so it disables itself after a probation window of
// consecutive misses, avoiding the paper's cache-miss penalty and
// releasing the lines' blobs.
//
// The rank's workers hit the cache concurrently during a fan-out, so a
// hit takes no lock and writes no word the workers share: it reads an
// immutable snapshot of the table and the count of misses, and records
// recency by stamping its line with its own lookup number (now) — and
// not even that while the line is the one the worker last stamped or
// put (group.mru) and already carries a number of this fan-out, which on
// a redundant state is nearly always. A worker numbers its lookups on
// top of the cache's clock, which fanOutPass advances by the fan-out's
// lookups once its workers are done (fold). So within one fan-out two
// workers' numbers compare only loosely and eviction is only roughly
// LRU across workers, but a line a worker keeps hitting is restamped in
// every fan-out and cannot age past the lines put in earlier ones. A
// miss adds one to the count of misses and a hit zeroes it, storing only
// when it is not zero already; a reset that lands after another worker's
// misses only delays a shut-off. put, which has just paid a codec round
// trip, serialises on mu, finds the LRU victim by scanning for the
// oldest stamp and publishes a fresh snapshot; that is O(lines) per
// miss, for a cache the paper sizes at 64 lines. With one worker
// the numbers are those of one shared counter and the stamps are unique
// and ordered (an unstamped hit on the worker's last line leaves it the
// newest), so the eviction order — and with it every lookup, hit and
// codec-call count — is exactly a linked-list LRU's, and the count of
// misses is the number of lookups since the last hit.
type blockCache struct {
	cap int
	// probation is the number of consecutive hitless lookups after
	// which the cache shuts off.
	probation int64
	mu        sync.Mutex                            // serialises put and the shut-off
	table     atomic.Pointer[map[uint64]*cacheLine] // by key hash; nil once shut off
	// clock is the number of lookups the cache's fan-outs have made,
	// written only between them (fold).
	clock  int64
	misses atomic.Int64 // lookups since the last hit
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

// now is the number of the latest lookup counted in st, the caller's own
// shard of the fan-out: the cache's clock plus the lookups st has counted
// since the fan-out began. A caller outside a fan-out numbers its lookups
// the same way from its own Stats.
func (c *blockCache) now(st *Stats) int64 { return c.clock + st.CacheLookups }

// fold advances the clock by n, the lookups of a fan-out whose workers
// are all done (fanOutPass).
func (c *blockCache) fold(n int64) {
	if c != nil {
		c.clock += n
	}
}

// get returns the line stored for k, or nil, counting the lookup (and
// the hit) in st exactly when the cache counted it — a cache that shut
// off since the caller's enabled() check counts nothing. g is the
// caller's group, whose mru a hit reads and writes.
func (c *blockCache) get(k blockKey, g *group, st *Stats) *cacheLine {
	if c == nil {
		return nil
	}
	t := c.table.Load()
	if t == nil {
		return nil
	}
	st.CacheLookups++
	if l := find(*t, &k); l != nil {
		c.stamp(l, g, st)
		return l
	}
	if c.misses.Add(1) >= c.probation {
		// §3.4: no redundancy left in the state — stop paying the miss
		// penalty and holding the lines.
		c.mu.Lock()
		c.table.Store(nil)
		c.mu.Unlock()
	}
	return nil
}

// recall is get for a key the caller knows to be byte-equal to line
// l's: l is a line it got or put earlier at inputs that are, by
// reference, the ones it holds now. While l is still published, find
// would return it, so the lookup is get's hit, counted and stamped the
// same; otherwise recall counts nothing and reports false, and the
// caller asks get.
func (c *blockCache) recall(l *cacheLine, g *group, st *Stats) bool {
	if c.table.Load() == nil || l.gone.Load() {
		return false
	}
	st.CacheLookups++
	c.stamp(l, g, st)
	return true
}

// stamp is the hit branch of a lookup on line l, counted in st: count
// the hit, make l the most recently used line (unless it is g's already
// and stamped in this fan-out, past the clock) and zero the count of
// misses.
func (c *blockCache) stamp(l *cacheLine, g *group, st *Stats) {
	st.CacheHits++
	if g.mru != l || l.tick.Load() <= c.clock {
		l.tick.Store(c.now(st))
		g.mru = l
	}
	if c.misses.Load() != 0 {
		c.misses.Store(0)
	}
}

// lookup is get for pass p at group g, its control variant and inputs
// read off g: first the recent lines of g's worker, by reference
// (recall), then the table by key, which it builds into *key for the
// record a miss owes. The line a hashed hit finds joins the worker's
// recent ones. Every lookup, hit and shut-off is the one get alone would
// make, at any worker count.
func (c *blockCache) lookup(g *group, p *blockPass, key *blockKey, st *Stats) *cacheLine {
	variant := g.b & p.ctrlBits
	if l := g.recent.find(p, variant, &g.in); l != nil && c.recall(l, g, st) {
		return l
	}
	*key = p.key.block(variant, g.in)
	l := c.get(*key, g, st)
	if l != nil {
		g.recent.note(l, p, variant, &g.in)
	}
	return l
}

// record is put of g's outputs, after the lookup of pass p at group g
// missed on key: the new line joins the worker's recent ones.
func (c *blockCache) record(g *group, p *blockPass, key *blockKey, st *Stats, err error) {
	if l := c.put(*key, g.out, err, g, st); l != nil {
		g.recent.note(l, p, key.variant, &key.in)
	}
}

// recallLines is how many cache lines a worker remembers. On Grover-27
// (perf's grover-cache) eight let 81 158 of its 84 992 lookups skip the
// hash; one lets 43 % and four 70 %.
const recallLines = 8

// recent is a worker's memory of the cache lines its last groups got or
// put, most recently used first: per line the pass, the control variant
// and the input blobs that led to it, held by reference. Blobs are
// immutable and a pass is fixed once built, so a group of the same pass
// and variant whose inputs are these blobs — same data pointer, same
// length — has a key byte-equal to the line's (recall). Holding them
// keeps their addresses from being reused while they are compared, and
// keeps them alive, so the list lives in the worker's group, which is
// dropped when its Run returns (workerState).
type recent [recallLines]recentLine

type recentLine struct {
	line    *cacheLine
	pass    *blockPass
	variant int
	in      [groupSize][]byte
}

// find returns the line noted for pass p at variant with inputs in, by
// reference, and makes it the most recently used; or nil.
func (r *recent) find(p *blockPass, variant int, in *[groupSize][]byte) *cacheLine {
	for i := range r {
		if e := &r[i]; e.pass == p && e.variant == variant && sameBlobs(&e.in, in) {
			if i > 0 {
				found := *e
				copy(r[1:i+1], r[:i])
				r[0] = found
			}
			return r[0].line
		}
	}
	return nil
}

// note remembers line l as the one pass p used at variant with inputs
// in, in place of the least recently used entry.
func (r *recent) note(l *cacheLine, p *blockPass, variant int, in *[groupSize][]byte) {
	copy(r[1:], r[:recallLines-1])
	r[0] = recentLine{line: l, pass: p, variant: variant, in: *in}
}

// sameBlobs reports whether a and b hold the same blobs by reference:
// equal lengths and, where not empty, the same first byte.
func sameBlobs(a, b *[groupSize][]byte) bool {
	for m := range a {
		if len(a[m]) != len(b[m]) || len(a[m]) > 0 && &a[m][0] != &b[m][0] {
			return false
		}
	}
	return true
}

// put stores the outputs of the lookup that just missed on k, evicting
// the least recently used line when the cache is full, and returns the
// new line, stamped with the number of that lookup (now) and made g's
// mru; a round trip that failed (err) has nothing to store, and a cache
// that shut off stores nothing. Key and outputs are kept by reference.
func (c *blockCache) put(k blockKey, out [groupSize][]byte, err error, g *group, st *Stats) *cacheLine {
	if c == nil || err != nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.table.Load()
	if t == nil {
		return nil
	}
	old := *t
	victim := old[k.hash] // a line already under k's hash is replaced
	if victim == nil && len(old) >= c.cap {
		for _, o := range old {
			if victim == nil || o.tick.Load() < victim.tick.Load() {
				victim = o
			}
		}
	}
	next := maps.Clone(old)
	if victim != nil {
		delete(next, victim.key.hash)
		victim.gone.Store(true)
	}
	l := &cacheLine{key: k, out: out}
	l.tick.Store(c.now(st))
	next[k.hash] = l
	c.table.Store(&next)
	g.mru = l
	return l
}

// release drops every line, marking each gone, and keeps the enabled /
// shut-off state, the lookup clock and the count of misses. Lines pin
// their input and output blobs outside every footprint ledger, so a run
// releases them when it returns; the redundancy they exploit lives
// within a pass and the next run refills them within its first.
func (c *blockCache) release() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.table.Load(); t != nil {
		for _, l := range *t {
			l.gone.Store(true)
		}
		c.table.Store(&map[uint64]*cacheLine{})
	}
}
