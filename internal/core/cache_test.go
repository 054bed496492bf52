package core

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"qcsim/internal/blockstore"
	"qcsim/internal/quantum"
)

func TestCacheHitsOnRedundantState(t *testing.T) {
	// A product state split over many identical blocks: applying the
	// same gate to the same compressed content should hit after the
	// first block (§3.4: amplitudes share values in structured
	// circuits).
	s := newSim(t, 10, 1, 16, func(c *Config) { c.CacheLines = 64 })
	c := quantum.NewCircuit(10)
	for q := 0; q < 4; q++ { // offset-segment targets only
		c.H(q)
	}
	for q := 0; q < 4; q++ {
		c.X(q)
	}
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheLookups == 0 {
		t.Fatal("cache never consulted")
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits on a fully redundant state")
	}
	// Hits must not change the outcome.
	ref := quantum.NewState(10)
	ref.ApplyCircuit(c)
	got, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != ref.Amps[i] {
			t.Fatalf("cache corrupted amplitude %d: %v vs %v", i, got[i], ref.Amps[i])
		}
	}
}

// TestGroverCacheKeepsItsHits pins the codec calls, cache hits and peak
// footprint of a 13-qubit Grover run: a redundant state whose ancilla
// blocks stay byte-equal, and so cacheable, small and coded once per
// group, only while their zeros are +0. A short-form loop that keeps the
// −0s its products make (drops its + 0, the +0 rule at apply) passes
// every bit-identity suite, which compares the engine with itself, and
// fails here: the diagonal loop so makes 45 encodes and 60 reuses, 8
// hits of 24 and a 1 549-byte peak; the diagonal, swap and
// real-imaginary loops together 83 and 45, 4 hits and 2 066 B. The 23
// encodes and 21 decodes are the groups' distinct blocks; with the 50
// members of each kind that repeat an earlier member of their group,
// they are the 73 and 71 calls of a walk that codes every member.
func TestGroverCacheKeepsItsHits(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		c := quantum.Grover(8, 0b1011, 1)
		s := newSim(t, c.N, 1, 256, func(cfg *Config) {
			cfg.CacheLines = 64
			cfg.Workers = 1
		})
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.CompressCalls != 23 || st.CompressReused != 50 || st.DecompressCalls != 21 || st.DecompressReused != 50 ||
			st.CacheHits != 14 || st.CacheLookups != 24 || st.MaxFootprint != 1024 {
			t.Fatalf("%d+%d compress calls+reuses, %d+%d decompress, %d cache hits of %d lookups, peak footprint %d B; want 23+50, 21+50, 14 of 24, 1 024 B",
				st.CompressCalls, st.CompressReused, st.DecompressCalls, st.DecompressReused, st.CacheHits, st.CacheLookups, st.MaxFootprint)
		}
	})
}

// TestCacheClockCountsEveryLookup: a worker numbers its lookups on top
// of the cache's clock, and a fan-out folds them into the clock once its
// workers are done, so after every Run the clock has grown by exactly
// the lookups Stats counted, at any worker count. It runs the 13-qubit
// Grover of TestGroverCacheKeepsItsHits twice on one simulator.
func TestCacheClockCountsEveryLookup(t *testing.T) {
	c := quantum.Grover(8, 0b1011, 1)
	for _, workers := range []int{1, 2, 4} {
		s := newSim(t, c.N, 1, 256, func(cfg *Config) { cfg.CacheLines, cfg.Workers = 64, workers })
		cache := s.ranks[0].cache
		for run := range 2 {
			clock, lookups := cache.clock, s.Stats().CacheLookups
			if err := s.Run(c); err != nil {
				t.Fatal(err)
			}
			if grew, counted := cache.clock-clock, s.Stats().CacheLookups-lookups; grew != counted || counted == 0 {
				t.Fatalf("%d workers, run %d: the clock grew by %d, Stats counted %d lookups", workers, run, grew, counted)
			}
		}
	}
}

func TestCacheCorrectnessOnFullWorkload(t *testing.T) {
	// Same circuit with and without cache must agree bit-for-bit.
	c := quantum.Grover(5, 11, 2)
	s1 := newSim(t, c.N, 2, 8, func(cfg *Config) { cfg.CacheLines = 64 })
	s2 := newSim(t, c.N, 2, 8, nil)
	if err := s1.Run(c); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(c); err != nil {
		t.Fatal(err)
	}
	a1, _ := s1.FullState()
	a2, _ := s2.FullState()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("cache changed amplitude %d", i)
		}
	}
}

func TestCacheSelfDisables(t *testing.T) {
	// A supremacy circuit has no block redundancy; the cache must shut
	// off after its probation window instead of burning lookups
	// forever (§3.4's miss-penalty rule).
	cir := quantum.Supremacy(3, 3, 12, 9)
	s := newSim(t, cir.N, 1, 8, func(cfg *Config) { cfg.CacheLines = 4 })
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	for _, rs := range s.ranks {
		if rs.cache.enabled() {
			t.Fatalf("cache still enabled after %d lookups, the last %d of them misses",
				rs.cache.clock, rs.cache.misses.Load())
		}
	}
}

// TestCacheShutsOffWhenHitsStop holds the shut-off to its window of
// consecutive misses: a cache that hit once and then stops hitting
// turns off and drops its lines, and one that hits at least once every
// window stays on.
func TestCacheShutsOffWhenHitsStop(t *testing.T) {
	var st Stats
	g := &group{}
	a := testKey("a", 1)
	c := newBlockCache(2)
	c.put(a, members([]byte{10}), nil, g, &st)
	if c.get(a, g, &st) == nil {
		t.Fatal("a missing")
	}
	for i := int64(1); i <= c.probation; i++ {
		if !c.enabled() {
			t.Fatalf("cache shut off after %d misses in a row, want %d", i-1, c.probation)
		}
		k := testKey("miss", byte(i))
		if c.get(k, g, &st) != nil {
			t.Fatalf("miss %d hit", i)
		}
		c.put(k, members([]byte{byte(i)}), nil, g, &st)
	}
	if c.enabled() {
		t.Fatalf("cache still on %d misses after its last hit", c.probation)
	}

	c = newBlockCache(2)
	c.put(a, members([]byte{10}), nil, g, &st)
	for round := range 8 {
		if c.get(a, g, &st) == nil {
			t.Fatalf("round %d: a missing", round)
		}
		for i := int64(1); i < c.probation; i++ {
			c.get(testKey("miss", byte(i)), g, &st)
		}
	}
	if !c.enabled() {
		t.Fatalf("cache that hits once every %d lookups shut off", c.probation)
	}
}

// TestCacheStampOnlyGrows: a hit's reset of the count of misses can
// only delay a shut-off. A worker that hit, was descheduled, and zeroes
// the count after other workers' misses must leave the cache on for a
// whole window of misses after the reset, and the window's last miss
// shuts it off.
func TestCacheStampOnlyGrows(t *testing.T) {
	var st Stats
	g := &group{}
	c := newBlockCache(64)
	l := c.put(testKey("a", 1), members([]byte{10}), nil, g, &st)
	miss := func(n int64) {
		t.Helper()
		for i := range n {
			if c.get(testKey("miss", byte(i)), g, &st) != nil {
				t.Fatalf("miss %d hit", i)
			}
		}
	}
	miss(c.probation - 1)
	c.stamp(l, g, &st) // the late reset
	miss(c.probation - 1)
	if got := c.misses.Load(); !c.enabled() || got != c.probation-1 {
		t.Fatalf("%d misses after a late reset: count %d, enabled %v; want %d, on", c.probation-1, got, c.enabled(), c.probation-1)
	}
	miss(1)
	if c.enabled() {
		t.Fatalf("cache still on %d misses after the reset", c.probation)
	}
}

// TestGroverCacheRecallKeepsCounters pins the cache and codec counters
// of perf's grover-cache circuit on one worker, where the LRU order is
// exact: a hit by recall must count, stamp and evict as the hashed hit
// it replaces. Of a walk's 750 encodes and 748 decodes, 488 and 483
// repeat an earlier member of their group and reuse its work.
func TestGroverCacheRecallKeepsCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("27 qubits")
	}
	c := quantum.Grover(15, 0b100_000000111111, 1)
	s := newSim(t, c.N, 1, 0, func(cfg *Config) {
		cfg.CacheLines = 64
		cfg.Workers = 1
	})
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheLookups != 84992 || st.CacheHits != 84895 || st.CompressCalls != 262 || st.CompressReused != 488 ||
		st.DecompressCalls != 265 || st.DecompressReused != 483 || st.MaxFootprint != 834392 {
		t.Fatalf("%d lookups, %d hits, %d+%d compress and %d+%d decompress calls+reuses, peak %d B; want 84 992, 84 895, 262+488, 265+483, 834 392 B",
			st.CacheLookups, st.CacheHits, st.CompressCalls, st.CompressReused, st.DecompressCalls, st.DecompressReused, st.MaxFootprint)
	}
}

// TestCacheRecallByReference: a worker recalls a line only for the
// very input blobs that led to it, under the same pass and control
// variant, and only while the line is published. Anything else —
// byte-equal copies, another variant, another pass, an evicted or
// released line, a shut-off cache — finds no line to recall, or a
// recall that counts nothing, and the hashed path decides.
func TestCacheRecallByReference(t *testing.T) {
	var st Stats
	c := newBlockCache(2)
	p := newBlockPass(newPassKey("op", 0), nil, 0, 1) // variant: block bit 0
	blob := []byte{1, 2, 3}
	in := members(blob)
	g := &group{} // at base 0: variant 0
	l := c.put(p.key.block(0, in), members([]byte{9}), nil, g, &st)
	hit := func(in [groupSize][]byte) {
		t.Helper()
		var key blockKey
		if g.in = in; c.lookup(g, p, &key, &st) == nil {
			t.Fatal("miss")
		}
	}
	hit(in) // hashed: the line joins the worker's recent ones
	if g.recent.find(p, 0, &in) != l || g.recent.noted() != 1 {
		t.Fatalf("the hit noted %d lines, want the line it hit", g.recent.noted())
	}
	before := st
	hit(in)
	if g.recent.noted() != 1 || st.CacheLookups != before.CacheLookups+1 || st.CacheHits != before.CacheHits+1 || c.clock != 0 {
		t.Fatal("a recall noted a line, did not count as one hit, or moved the cache's clock outside a fan-out")
	}
	cp := members(bytes.Clone(blob))
	if g.recent.find(p, 0, &cp) != nil {
		t.Fatal("a byte-equal copy recalled the line")
	}
	hit(cp) // through the hash
	if g.recent.noted() != 2 {
		t.Fatal("a copy's hashed hit was not noted")
	}
	if g.recent.find(p, 1, &in) != nil {
		t.Fatal("another variant recalled the line")
	}
	if q := newBlockPass(p.key, nil, 0, 1); g.recent.find(q, 0, &in) != nil {
		t.Fatal("another pass recalled the line")
	}

	unrecalled := func(why string) {
		t.Helper()
		before, n := st, c.misses.Load()
		if c.recall(l, g, &st) || st != before || c.misses.Load() != n {
			t.Fatalf("%s: recall hit or counted", why)
		}
	}
	c.put(testKey("b", 1), members([]byte{1}), nil, g, &st)
	c.put(testKey("c", 1), members([]byte{1}), nil, g, &st)
	unrecalled("after eviction")
	l = c.put(p.key.block(0, in), members([]byte{9}), nil, g, &st)
	c.release()
	unrecalled("after release")
	l = c.put(p.key.block(0, in), members([]byte{9}), nil, g, &st)
	for i := range c.probation {
		c.get(testKey("miss", byte(i)), g, &st)
	}
	if c.enabled() {
		t.Fatal("cache still on")
	}
	unrecalled("after shut-off")
}

// TestCacheRecallMatchesHashed drives one cache through passGroup —
// recall first — and a twin through get and put alone with the
// same bursty sequence of passes, variants and input blobs, some of
// them byte-equal copies: after every lookup both must have counted the
// same lookups and hits and hold the same keys, so recall changes no
// eviction victim and no shut-off.
func TestCacheRecallMatchesHashed(t *testing.T) {
	s := newSim(t, 3, 1, 2, nil) // blocks: |0⟩'s first, three zero blocks
	rs := s.ranks[0]
	g := rs.workers[0].hold()
	first, _ := rs.store.Peek(0)
	zero, _ := rs.store.Peek(1)
	blobs := [][]byte{first, zero, bytes.Clone(first), bytes.Clone(zero)}
	passes := []*blockPass{scanPass(0, 1), scanPass(0, 1)} // equal keys, two passes
	c, twin := newBlockCache(2), newBlockCache(2)
	tg := &group{} // the twin's worker
	var st, tst Stats
	keys := func(c *blockCache) []uint64 {
		var ks []uint64
		if t := c.table.Load(); t != nil {
			for k := range *t {
				ks = append(ks, k)
			}
		}
		slices.Sort(ks)
		return ks
	}
	rng := rand.New(rand.NewSource(7))
	var p *blockPass
	var b int
	var in [groupSize][]byte
	recalls := 0
	for i := 0; i < 4000 && twin.enabled(); i++ {
		if i == 0 || rng.Intn(3) == 0 { // otherwise repeat the last lookup
			p, b, in = passes[rng.Intn(2)], rng.Intn(2), members(blobs[rng.Intn(len(blobs))])
		}
		if i >= 3000 { // then only misses, until the window shuts both off
			in = members([]byte{byte(i), byte(i >> 8)})
		}
		if t := c.table.Load(); t != nil {
			if l := g.recent.find(p, b, &in); l != nil && (*t)[l.key.hash] == l {
				recalls++
			}
		}
		if i < 3000 {
			g.b, g.fired, g.read, g.in = b, [groupSize]int{1}, 1, in
			if err := s.passGroup(rs, p, c, g, &st); err != nil {
				t.Fatal(err)
			}
		} else if c.get(p.key.block(b, in), g, &st) == nil { // not a blob: no walk
			c.put(p.key.block(b, in), members([]byte{1}), nil, g, &st)
		}
		k := p.key.block(b, in)
		if twin.get(k, tg, &tst) == nil {
			twin.put(k, members([]byte{1}), nil, tg, &tst)
		}
		if st.CacheLookups != tst.CacheLookups || st.CacheHits != tst.CacheHits || !slices.Equal(keys(c), keys(twin)) {
			t.Fatalf("lookup %d: %d lookups, %d hits, keys %x; the hashed twin %d, %d, %x",
				i, st.CacheLookups, st.CacheHits, keys(c), tst.CacheLookups, tst.CacheHits, keys(twin))
		}
	}
	if c.enabled() || twin.enabled() {
		t.Fatal("a run of misses did not shut both caches off")
	}
	if recalls == 0 || st.CacheHits == 0 || st.CacheHits == st.CacheLookups {
		t.Fatalf("degenerate sequence: %d recalls, %d hits of %d lookups", recalls, st.CacheHits, st.CacheLookups)
	}
}

// noted is the number of lines r holds.
func (r *recent) noted() (n int) {
	for _, e := range r {
		if e.line != nil {
			n++
		}
	}
	return n
}

// members lays blobs out as a group's inputs or outputs, member 0 first.
func members(blobs ...[]byte) (g [groupSize][]byte) {
	copy(g[:], blobs)
	return g
}

// testKey is the key of a single-block op named sig whose input is the
// one byte in.
func testKey(sig string, in byte) blockKey {
	return newPassKey(sig, 0).block(0, members([]byte{in}))
}

func TestCacheLRUEviction(t *testing.T) {
	var st Stats
	g := &group{}
	c := newBlockCache(2)
	a, b, d := testKey("a", 1), testKey("b", 2), testKey("c", 3)
	c.put(a, members([]byte{10}), nil, g, &st)
	c.put(b, members([]byte{20}), nil, g, &st)
	// Touch "a" so "b" is the LRU victim.
	if c.get(a, g, &st) == nil {
		t.Fatal("a missing")
	}
	c.put(d, members([]byte{30}), nil, g, &st)
	if c.get(b, g, &st) != nil {
		t.Fatal("b should have been evicted")
	}
	if c.get(a, g, &st) == nil {
		t.Fatal("a evicted out of LRU order")
	}
	if l := c.get(d, g, &st); l == nil || l.out[0][0] != 30 {
		t.Fatal("c missing or wrong")
	}
	if st.CacheLookups != 4 || st.CacheHits != 3 {
		t.Fatalf("counted %d lookups / %d hits, want 4 / 3", st.CacheLookups, st.CacheHits)
	}
}

// TestCacheMatchesReferenceLRU drives the engine's protocol (get, and
// put after a miss) with a bursty random key sequence and checks every
// hit/miss against a textbook linked-list LRU: on one worker, stamping
// lines with the worker's lookup numbers — and skipping the stamp on the
// line it last stamped or put — must keep the exact eviction order.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	const lines, universe = 4, 9
	rng := rand.New(rand.NewSource(5))
	c := newBlockCache(lines)
	ref := list.New() // of key ids; front = most recently used
	var st Stats
	g := &group{}
	id := 0
	for i := 0; i < 20000; i++ {
		if rng.Intn(3) > 0 { // otherwise repeat the previous key
			id = rng.Intn(universe)
		}
		k := testKey("op", byte(id))
		var refEl *list.Element
		for el := ref.Front(); el != nil; el = el.Next() {
			if el.Value.(int) == id {
				refEl = el
			}
		}
		l := c.get(k, g, &st)
		hit := l != nil
		if hit != (refEl != nil) {
			t.Fatalf("lookup %d (key %d): hit=%v, reference LRU says %v", i, id, hit, refEl != nil)
		}
		if hit {
			if l.out[0][0] != byte(id) {
				t.Fatalf("lookup %d: key %d returned the output of key %d", i, id, l.out[0][0])
			}
			ref.MoveToFront(refEl)
			continue
		}
		c.put(k, members([]byte{byte(id)}), nil, g, &st)
		if ref.Len() == lines {
			ref.Remove(ref.Back())
		}
		ref.PushFront(id)
	}
	if st.CacheHits == 0 || st.CacheHits == st.CacheLookups {
		t.Fatalf("degenerate sequence: %d hits of %d lookups", st.CacheHits, st.CacheLookups)
	}
}

// TestCacheKeyVerifiedBehindHash ports the old string key's collision
// regressions to the hashed key: the table indexes by hash alone, so
// keys that differ in any one of (sig, level, variant, any member's
// input) — including the boundary-shift and truncation pairs that
// collided under the separator-byte scheme, between every two adjacent
// members, and one blob at another member position — are given EQUAL
// hashes here and must still miss, in the block cache and in the batch
// memo alike.
func TestCacheKeyVerifiedBehindHash(t *testing.T) {
	g := &group{}
	// group is a full group's inputs, members alternately one byte and
	// two bytes with a leading zero, so that moving one byte across any
	// boundary between adjacent members keeps their concatenation.
	group := func() [][]byte {
		in := make([][]byte, groupSize)
		for m := range in {
			if in[m] = []byte{'A' + byte(m)}; m%2 == 1 {
				in[m] = []byte{0, 'A' + byte(m)}
			}
		}
		return in
	}
	with := func(edit func(in [][]byte)) [][]byte {
		in := group()
		edit(in)
		return in
	}
	mk := func(sig string, level int, in [][]byte) blockKey {
		return blockKey{passKey: passKey{sig: sig, level: level}, in: members(in...), hash: 42}
	}
	variant := mk("s", 0, group())
	variant.variant = 2
	base := mk("s", 0, group())
	others := map[string]blockKey{
		"sig-member boundary":  mk("s\x00", 0, group()),
		"level":                mk("s", 1, group()),
		"level truncation":     mk("s", 256, group()),
		"absent member 7":      mk("s", 0, with(func(in [][]byte) { in[7] = nil })),
		"absent member 1":      mk("s", 0, with(func(in [][]byte) { in[1] = nil })),
		"members 2, 3 swapped": mk("s", 0, with(func(in [][]byte) { in[2], in[3] = in[3], in[2] })),
		"members 6, 7 swapped": mk("s", 0, with(func(in [][]byte) { in[6], in[7] = in[7], in[6] })),
		"signature":            mk("t", 0, group()),
		"control variant":      variant,
	}
	for m := 0; m+1 < groupSize; m++ {
		others[fmt.Sprintf("member %d-%d boundary", m, m+1)] = mk("s", 0, with(func(in [][]byte) {
			cat := append(append([]byte(nil), in[m]...), in[m+1]...)
			cut := 2 // {X}{0 Y} → {X 0}{Y}
			if m%2 == 1 {
				cut = 1 // {0 X}{Y} → {0}{X Y}
			}
			in[m], in[m+1] = cat[:cut], cat[cut:]
		}))
	}
	var st Stats
	c := newBlockCache(8)
	memo := newBatchMemo()
	var outs [groupSize][]byte
	for m := range outs {
		outs[m] = []byte{byte(m + 1)}
	}
	c.put(base, outs, nil, g, &st)
	if _, ok, _ := memo.get(base, &st); ok { // the claim
		t.Fatal("an empty memo hits")
	}
	memo.put(base, outs, nil)
	_, memoHit, _ := memo.get(base, &st)
	if c.get(base, g, &st) == nil || !memoHit {
		t.Fatal("the stored key itself misses")
	}
	if st.CodecPassesShared != groupSize {
		t.Fatalf("a memo hit on %d outputs counted %d shared passes", groupSize, st.CodecPassesShared)
	}
	for name, k := range others {
		if c.get(k, g, &st) != nil {
			t.Errorf("%s: block cache returned another key's blocks on a hash collision", name)
		}
		if _, ok, _ := memo.get(k, &st); ok {
			t.Errorf("%s: batch memo returned another key's blocks on a hash collision", name)
		}
	}
	// A colliding put takes the slot over; the displaced key misses.
	c.put(others["level"], members([]byte{3}, []byte{4}), nil, g, &st)
	if l := c.get(others["level"], g, &st); l == nil || l.out[0][0] != 3 {
		t.Fatal("colliding put not stored")
	}
	if c.get(base, g, &st) != nil {
		t.Fatal("displaced key still hits")
	}
	// The real hash covers every field too (so collisions stay rare).
	hash := func(sig string, level, variant int, in ...[]byte) uint64 {
		return newPassKey(sig, level).block(variant, members(in...)).hash
	}
	in := []byte{1, 2}
	if hash("sig", 0, 0, in) == hash("sig", 1, 0, in) {
		t.Error("hash ignores the error level")
	}
	if hash("sig", 0, 0, in) == hash("sig", 0, 4, in) {
		t.Error("hash ignores the control variant")
	}
	for name, k := range others {
		if k.variant == 0 && k.level == 0 && k.sig == "s" && hash("s", 0, 0, k.in[:]...) == hash("s", 0, 0, base.in[:]...) {
			t.Errorf("hash ignores the %s", name)
		}
	}
}

// TestCacheSharesImmutableBlobs pins the ownership contract that
// replaced copy-on-hit: the cache hands out the very slices it was
// given (blobs are immutable, see blockstore.Store), and a hit in the
// engine makes block slots share one blob.
func TestCacheSharesImmutableBlobs(t *testing.T) {
	var st Stats
	g := &group{}
	c := newBlockCache(2)
	outs := members([]byte{42}, []byte{43}, nil, []byte{44})
	k := newPassKey("a", 0).block(0, members([]byte{1}, []byte{2}, nil, []byte{3}))
	c.put(k, outs, nil, g, &st)
	l := c.get(k, g, &st)
	if l == nil || &l.out[0][0] != &outs[0][0] || &l.out[1][0] != &outs[1][0] || l.out[2] != nil || &l.out[3][0] != &outs[3][0] {
		t.Fatal("cache hit does not alias the stored outputs")
	}

	s := newSim(t, 10, 1, 16, func(c *Config) { c.CacheLines = 64 })
	cir := quantum.NewCircuit(10)
	cir.H(0).X(1)
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	first := map[*byte]bool{}
	store := s.ranks[0].store
	var logical int64
	for b := 0; b < store.Len(); b++ {
		blob, _ := store.Peek(b)
		first[&blob[0]] = true
		logical += int64(len(blob))
	}
	if len(first) >= store.Len() {
		t.Fatalf("%d slots hold %d distinct blobs: hits did not share", store.Len(), len(first))
	}
	if store.Footprint() != logical {
		t.Fatalf("footprint %d is not the logical sum over slots, %d", store.Footprint(), logical)
	}
}

// sealedStore wraps a block store and checksums every blob that passes
// through it; verify then proves none of them was written to since.
type sealedStore struct {
	blockstore.Store
	mu   sync.Mutex
	seen map[*byte]uint64
	all  [][]byte
}

func seal(s *Simulator) []*sealedStore {
	var out []*sealedStore
	for _, rs := range s.ranks {
		ss := &sealedStore{Store: rs.store, seen: map[*byte]uint64{}}
		rs.store = ss
		out = append(out, ss)
	}
	return out
}

func (s *sealedStore) note(blob []byte) []byte {
	if len(blob) > 0 {
		s.mu.Lock()
		if _, ok := s.seen[&blob[0]]; !ok {
			s.seen[&blob[0]] = maphash.Bytes(keySeed, blob)
			s.all = append(s.all, blob)
		}
		s.mu.Unlock()
	}
	return blob
}

func (s *sealedStore) Put(b int, blob []byte) error { return s.Store.Put(b, s.note(blob)) }

func (s *sealedStore) Get(b int) ([]byte, error) {
	blob, err := s.Store.Get(b)
	return s.note(blob), err
}

func (s *sealedStore) Peek(b int) ([]byte, error) {
	blob, err := s.Store.Peek(b)
	return s.note(blob), err
}

func (s *sealedStore) verify(t *testing.T) {
	t.Helper()
	for _, blob := range s.all {
		if maphash.Bytes(keySeed, blob) != s.seen[&blob[0]] {
			t.Fatalf("a %d-byte blob was modified after the store saw it", len(blob))
		}
	}
}

// TestNoEnginePathWritesThroughBlobs is the property the shared blobs
// rest on: whatever the engine does — cached and uncached passes on a
// worker pool, sweeps, cross-rank exchange, measurement collapse,
// noise, lossy escalation, spilling, clones and lockstep batches,
// checkpoints, sampling, expectations — no blob the store ever took or
// handed out changes afterwards. Under -race the same run also proves
// no worker writes a blob another one is reading.
func TestNoEnginePathWritesThroughBlobs(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"lossless":       func(c *Config) {},
		"lossy":          func(c *Config) { c.MemoryBudget = 1024 },
		"spill":          func(c *Config) { c.SpillDir, c.SpillRAMBudget = t.TempDir(), 700 },
		"gate-at-a-time": func(c *Config) { c.DisableSweeps = true },
	} {
		mut := mut
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				mk := func(noise float64) *Simulator {
					return newSim(t, 8, 2, 16, func(c *Config) {
						c.Workers, c.CacheLines, c.Seed, c.Noise = 4, 64, seed, noise
						mut(c)
					})
				}
				s := mk(0)
				stores := seal(s)
				// move hands the state to another simulator through a
				// checkpoint and seals the stores the load installed.
				move := func(from, to *Simulator) {
					var ckpt bytes.Buffer
					if err := from.Save(&ckpt); err != nil {
						t.Fatal(err)
					}
					if err := to.Load(&ckpt); err != nil {
						t.Fatal(err)
					}
					stores = append(stores, seal(to)...)
				}
				if err := s.SetBasisState(uint64(seed) * 37 % 256); err != nil {
					t.Fatal(err)
				}
				cir := quantum.Grover(5, 11, 1) // 7 data qubits on an 8-qubit register
				wide := quantum.NewCircuit(8)
				wide.Gates = append(wide.Gates, cir.Gates...)
				wide.Gates = append(wide.Gates, quantum.RandomCircuit(8, 40, seed).Gates...)
				wide.Measure(7)
				wide.Measure(1)
				if err := s.Run(wide); err != nil {
					t.Fatal(err)
				}
				// The noisy middle run happens on a noisy simulator, and
				// the state comes back for the rest.
				noisy := mk(0.2)
				move(s, noisy)
				if err := noisy.Run(quantum.RandomCircuit(8, 20, seed+10)); err != nil {
					t.Fatal(err)
				}
				move(noisy, s)

				// Clones share the parent's blobs; a lockstep batch then
				// diverges them through the memo.
				par := quantum.NewCircuit(8)
				for q := 0; q < 8; q++ {
					par.PRY(q, quantum.P(0))
				}
				par.CNOT(0, 7).CNOT(3, 4)
				var sims []*Simulator
				var cs []*quantum.Circuit
				for v := 0; v < 3; v++ {
					cl, err := s.Clone(VariantSeed(seed, v))
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					stores = append(stores, seal(cl)...)
					bound, err := par.Bind([]float64{0.1 * float64(v/2)})
					if err != nil {
						t.Fatal(err)
					}
					sims, cs = append(sims, cl), append(cs, bound)
				}
				if err := RunBatch(sims, cs, RunControl{}); err != nil {
					t.Fatal(err)
				}

				move(s, s)
				sp, err := s.NewSampler(0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sp.Sample(rand.New(rand.NewSource(seed)), 64); err != nil {
					t.Fatal(err)
				}
				if _, err := s.DiagonalExpectation(nil, []quantum.ZZTerm{{A: 0, B: 7, W: 1}}); err != nil {
					t.Fatal(err)
				}
				if _, err := s.FullState(); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(quantum.RandomCircuit(8, 20, seed+20)); err != nil {
					t.Fatal(err)
				}
				for _, ss := range stores {
					ss.verify(t)
				}
			}
		})
	}
}

// TestCacheHitZeroAlloc holds the hit path — read the members' slots,
// build the key, look it up, store the shared outputs — to zero
// allocations, for groups of one, two, four and eight blocks, hashed
// and recalled.
func TestCacheHitZeroAlloc(t *testing.T) {
	var st Stats
	c := newBlockCache(4)
	store := blockstore.NewRAM(groupSize)
	in := bytes.Repeat([]byte{7}, 100)
	p := newBlockPass(newPassKey("h 3", 0), nil, 0, 0)
	for _, size := range []int{1, 2, 4, groupSize} {
		var blobs [groupSize][]byte
		for m := 0; m < size; m++ {
			store.Put(m, in)
			blobs[m] = in
		}
		c.put(p.key.block(0, blobs), blobs, nil, &group{}, &st)
		for _, recall := range []bool{false, true} {
			g := &group{}
			hit := func() {
				var cur [groupSize][]byte
				for m := 0; m < size; m++ {
					cur[m], _ = store.Get(m)
				}
				out := cacheHit(c, p, g, &st, cur, recall)
				for m := 0; m < size; m++ {
					store.Put(m, out[m])
				}
			}
			if n := testing.AllocsPerRun(200, hit); n != 0 {
				t.Errorf("%d-block hit (recall %v) allocates %v times", size, recall, n)
			}
			if n := g.recent.noted(); recall && n != 1 {
				t.Errorf("%d-block hits noted %d lines, want the first alone", size, n)
			}
		}
	}
}

// cacheHit is one hit as a worker makes it, at variant 0 of pass p on
// inputs in: hashed, the key built and looked up (get), or through the
// recent lines of g, based at 0, first (lookup).
func cacheHit(c *blockCache, p *blockPass, g *group, st *Stats, in [groupSize][]byte, recall bool) [groupSize][]byte {
	var l *cacheLine
	if recall {
		var key blockKey
		g.in = in
		l = c.lookup(g, p, &key, st)
	} else {
		l = c.get(p.key.block(0, in), g, st)
	}
	if l == nil {
		panic("miss")
	}
	return l.out
}

// TestPassBlockHitZeroAlloc holds a group's whole hit path through
// passBlock — what the pass reads, the members fetched into a worker's
// reused group, the lookup, the shared outputs stored — to zero
// allocations, for groups of one, two, four and eight blocks, hashed and
// recalled.
func TestPassBlockHitZeroAlloc(t *testing.T) {
	var s Simulator // a hit runs no codec
	rs := &rankState{store: blockstore.NewRAM(groupSize)}
	in := bytes.Repeat([]byte{7}, 100)
	for size := 1; size <= groupSize; size *= 2 {
		// One block-target gate per stride, uncontrolled: every member
		// fires, so every member is read, looked up and stored.
		var gates []passGate
		for stride := 1; stride < size; stride *= 2 {
			gates = append(gates, newPassGate(quantum.MatH, 0, stride, 0, 0))
		}
		p := newBlockPass(newPassKey(fmt.Sprintf("h %d", size), 0), gates, size-1, 0)
		var blobs [groupSize][]byte
		for m := range size {
			rs.store.Put(m, in)
			blobs[m] = in
		}
		c := newBlockCache(4)
		c.put(p.key.block(0, blobs), blobs, nil, &group{}, &Stats{})
		for _, recall := range []bool{false, true} {
			g := (&workerState{size: 2}).hold()
			var st Stats
			hit := func() {
				if !recall {
					g.recent = recent{} // nothing to recall: the lookup hashes
				}
				if err := s.passBlock(rs, p, c, g, &st, 0); err != nil {
					panic(err)
				}
			}
			if n := testing.AllocsPerRun(200, hit); n != 0 {
				t.Errorf("%d-block passBlock hit (recall %v) allocates %v times", size, recall, n)
			}
			if st.CacheLookups != 201 || st.CacheHits != st.CacheLookups {
				t.Errorf("%d-block groups (recall %v): %d hits of %d lookups, want 201 of 201", size, recall, st.CacheHits, st.CacheLookups)
			}
			if n := g.recent.noted(); n != 1 {
				t.Errorf("%d-block hits (recall %v) noted %d lines, want the one line", size, recall, n)
			}
		}
	}
}

// groverBlobs runs a redundant Grover state through a 64-line cache at
// the given worker count and returns every compressed block plus the
// merged stats.
func groverBlobs(t *testing.T, workers int) ([][]byte, Stats) {
	t.Helper()
	cir := quantum.Grover(7, 0x2b, 2)
	s := newSim(t, cir.N, 1, 16, func(c *Config) { c.Workers, c.CacheLines = workers, 64 })
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for b := 0; b < s.blocksPerRank(); b++ {
		blob, err := s.ranks[0].store.Peek(b)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs, s.Stats()
}

// TestCacheWorkersBitIdentical: a worker pool sharing one cache must
// leave exactly the serial run's compressed blocks. One lookup is made
// per block visit whatever the pool size; codec calls repeat exactly
// from serial run to serial run, and a pool can only add to them the
// passes of workers that missed one key at the same moment (each then
// computes the same blob) — never more than one per worker and miss.
func TestCacheWorkersBitIdentical(t *testing.T) {
	const pool = 4
	b1, st1 := groverBlobs(t, 1)
	_, again := groverBlobs(t, 1)
	if again.CompressCalls != st1.CompressCalls || again.CacheHits != st1.CacheHits {
		t.Fatalf("serial runs differ: %d/%d codec calls, %d/%d hits", st1.CompressCalls, again.CompressCalls, st1.CacheHits, again.CacheHits)
	}
	if st1.CacheHits == 0 {
		t.Fatal("workload has no redundancy")
	}
	bn, stn := groverBlobs(t, pool)
	for i := range b1 {
		if !bytes.Equal(b1[i], bn[i]) {
			t.Fatalf("block %d differs between 1 and %d workers", i, pool)
		}
	}
	if stn.CacheLookups != st1.CacheLookups || stn.MaxFootprint != st1.MaxFootprint {
		t.Fatalf("lookups %d vs %d, peak footprint %d vs %d", stn.CacheLookups, st1.CacheLookups, stn.MaxFootprint, st1.MaxFootprint)
	}
	if stn.CompressCalls < st1.CompressCalls || stn.CompressCalls > pool*st1.CompressCalls {
		t.Fatalf("%d codec calls on %d workers, %d on one", stn.CompressCalls, pool, st1.CompressCalls)
	}
}

// TestCacheLookupsMatchStats: Stats counts a lookup exactly when the
// cache made one, also once the cache has shut itself off (workers that
// pass enabled() and then find the cache off used to bump Stats anyway).
// The witness is the test's own count of the lookups it made while the
// table was up: after the shut-off, get, recall and lookup on a line the
// worker recalls must count nothing and leave the count of misses alone.
// A pool of four workers then shuts a two-line cache off mid-pass under
// the race detector.
func TestCacheLookupsMatchStats(t *testing.T) {
	var st Stats
	g := &group{}
	c := newBlockCache(2)
	p := newBlockPass(newPassKey("op", 0), nil, 0, 0)
	in := members([]byte{1, 2, 3})
	k := p.key.block(0, in)
	c.put(k, members([]byte{9}), nil, g, &st)
	var key blockKey
	if g.in = in; c.lookup(g, p, &key, &st) == nil || g.recent.find(p, 0, &in) == nil {
		t.Fatal("the stored line missed, or was not noted for recall")
	}
	made := int64(1)
	for i := range c.probation {
		c.get(testKey("miss", byte(i)), g, &st)
		made++
	}
	if c.enabled() {
		t.Fatal("cache still on")
	}
	misses := c.misses.Load()
	if c.get(k, g, &st) != nil || c.lookup(g, p, &key, &st) != nil {
		t.Fatal("a shut-off cache hit")
	}
	if st.CacheLookups != made || st.CacheHits != 1 || c.misses.Load() != misses {
		t.Fatalf("%d lookups made on the table, %d counted with %d hits; misses %d → %d",
			made, st.CacheLookups, st.CacheHits, misses, c.misses.Load())
	}

	cir := quantum.Supremacy(3, 3, 4, 9)
	s := newSim(t, cir.N, 1, 4, func(cfg *Config) { cfg.Workers, cfg.CacheLines = 4, 2 })
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	if s.ranks[0].cache.enabled() || s.Stats().CacheLookups == 0 {
		t.Fatal("the pool's cache made no lookup, or did not shut off")
	}
}

// TestCacheHotLineOutlivesOtherWorkers: a worker that keeps hitting the
// line it last stamped skips the stamp only within one fan-out, so its
// hot line is not evicted for a tick it got in an earlier one while
// another worker puts lines. Each step below is one fan-out, its
// workers' shards folded into the clock as fanOutPass does.
func TestCacheHotLineOutlivesOtherWorkers(t *testing.T) {
	const lines = 4
	c := newBlockCache(lines)
	a, b := &group{}, &group{}
	fanOut := func(f func(sa, sb *Stats)) {
		var sa, sb Stats
		f(&sa, &sb)
		c.fold(sa.CacheLookups + sb.CacheLookups)
	}
	hot := testKey("hot", 1)
	miss := func(g *group, st *Stats, k blockKey) {
		t.Helper()
		if c.get(k, g, st) != nil {
			t.Fatalf("%x hit before its put", k.hash)
		}
		c.put(k, members([]byte{1}), nil, g, st)
	}
	fanOut(func(sa, _ *Stats) { miss(a, sa, hot) }) // a's last line is the hot one
	fanOut(func(_, sb *Stats) {
		for i := range lines - 1 { // b fills the cache
			miss(b, sb, testKey("cold", byte(i)))
		}
	})
	fanOut(func(sa, sb *Stats) {
		if c.get(hot, a, sa) == nil {
			t.Fatal("hot line evicted while the cache had room")
		}
		miss(b, sb, testKey("cold", lines))
	})
	if c.get(hot, a, &Stats{}) == nil {
		t.Fatal("the hot line was evicted for another worker's put")
	}
	if c.get(testKey("cold", 0), b, &Stats{}) != nil {
		t.Fatal("the oldest cold line survived; the hot one should have been kept instead")
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *blockCache
	var st Stats
	g := &group{}
	k := testKey("x", 1)
	if c.get(k, g, &st) != nil || st.CacheLookups != 0 {
		t.Fatal("nil cache hit or counted a lookup")
	}
	c.put(k, members([]byte{1}), nil, g, &st) // must not panic
}

// BenchmarkCacheHit times the §3.4 hit path as a worker runs it — read
// the slot, hash and build the key, look it up, store the shared
// output; or, in the recall rows, find the line among the worker's
// recent ones instead of hashing — on one goroutine and on two sharing
// the cache (each with its own slots, stats shard and recent lines, all
// hitting one line: the redundant regime). It must report 0 allocs/op
// at every size.
func BenchmarkCacheHit(b *testing.B) {
	for _, recall := range []bool{false, true} {
		for _, size := range []int{100, 64 << 10} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("blob=%dB/goroutines=%d", size, workers)
				if recall {
					name = "recall/" + name
				}
				b.Run(name, func(b *testing.B) {
					const slots = 64
					in := bytes.Repeat([]byte{7}, size)
					store := blockstore.NewRAM(workers * slots)
					for i := 0; i < store.Len(); i++ {
						store.Put(i, in)
					}
					c := newBlockCache(64)
					p := newBlockPass(newPassKey("h 3", 0), nil, 0, 0)
					c.put(p.key.block(0, members(in)), members(in), nil, &group{}, &Stats{})
					b.SetBytes(int64(size))
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							var st Stats
							g := &group{}
							for i := 0; i < b.N/workers; i++ {
								slot := w*slots + i%slots
								cur, _ := store.Get(slot)
								out := cacheHit(c, p, g, &st, members(cur), recall)
								store.Put(slot, out[0])
							}
						}(w)
					}
					wg.Wait()
				})
			}
		}
	}
}
