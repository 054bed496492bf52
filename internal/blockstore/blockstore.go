// Package blockstore owns the per-rank table of compressed state
// blocks. The engine in internal/core never indexes a raw [][]byte
// anymore: every read and write of a compressed blob goes through a
// Store, and the footprint accounting that used to be hand-maintained
// deltas at each write site lives behind the same seam, where it
// cannot drift from the blobs it describes.
//
// Two implementations share the contract. NewRAM is the default
// zero-overhead path — a bare slice plus an atomic footprint, no lock
// at all. NewTiered adds the out-of-core tier the paper's block
// decomposition makes possible: blobs past a resident-RAM budget are
// evicted coldest-first to a per-store spill file, read back on
// demand, and staged ahead of demand by an async prefetcher whenever
// the caller announces its visit order with PrefetchHint (the sweep
// scheduler and the shot-bucketing sampler both know theirs).
package blockstore

import "errors"

// ErrSpill marks I/O failures of the spill tier (creating, writing,
// or reading the spill file). Callers test with errors.Is; the
// facade re-exports it as qcsim.ErrSpill.
var ErrSpill = errors.New("blockstore: spill I/O failure")

// Store is the block-table seam. Blocks are dense indices
// [0, Len()); every slot holds one compressed blob (possibly empty —
// an empty blob is stored, not an absence).
//
// Concurrency: Get and Put may race from multiple workers as long as
// no two goroutines touch the SAME index concurrently — the engine's
// fan-out assigns each block to exactly one worker per gate.
// Footprint, Resident, and Stats are safe to call concurrently with
// anything. Peek, PrefetchHint, and Close belong to the owner
// goroutine (the engine between gates).
//
// Ownership: blobs are immutable. Put takes a reference to blob and
// nobody — caller or store — may write through it afterwards; slices
// returned by Get and Peek are read-only views that stay valid even
// if the block is later evicted or overwritten. The engine leans on
// this: one blob may sit in many slots at once (Reset's zero block,
// every §3.4 cache hit), in the block cache's lines, in a batch memo,
// in the stores of cloned simulators and in a distributed run's
// exported blocks and rank deltas, and none of them copies it. A single in-place write would corrupt all of them, so code
// that needs different bytes compresses a fresh blob. Footprint and
// Resident stay logical — the sum of len(blob) over slots, shared
// or not — which is the quantity the paper's memory story counts.
type Store interface {
	// Get returns block b's blob for the hot path, promoting it to
	// most-recently-used. On a tiered store a spilled block is read
	// back synchronously (counted in Stats.SpillReads) unless the
	// prefetcher already staged it (Stats.PrefetchHits).
	Get(b int) ([]byte, error)
	// Put replaces block b's blob and takes ownership of it. On a
	// tiered store this may evict cold blocks to disk to hold the
	// resident bytes under the RAM budget.
	Put(b int, blob []byte) error
	// Peek returns block b's blob without promoting it or disturbing
	// the resident set — for checkpointing, inspection, and asserts,
	// which walk the whole table and must not thrash the cache the
	// hot path relies on.
	Peek(b int) ([]byte, error)
	// Len is the number of block slots.
	Len() int
	// Footprint is the total compressed bytes across both tiers
	// (resident + spilled) — the quantity the paper's memory story
	// is about.
	Footprint() int64
	// Resident is the compressed bytes currently held in RAM — the
	// RSS proxy the spill tier bounds.
	Resident() int64
	// WantHints reports whether PrefetchHint does anything, so hot
	// paths can skip building order slices for the RAM store.
	WantHints() bool
	// PrefetchHint announces the caller's upcoming block visit
	// order. A tiered store protects those blocks from eviction and
	// stages spilled ones back into RAM ahead of their Get,
	// overlapping disk reads with codec work. A later hint replaces
	// the previous one. The RAM store ignores hints.
	PrefetchHint(order []int)
	// Stats returns cumulative spill counters and gauges.
	Stats() Stats
	// Close releases the store's resources (the spill file, for a
	// tiered store). Idempotent. The store must not be used after.
	Close() error
}

// Stats are a store's spill-tier counters. All fields are cumulative
// monotonic counters except SpilledBytes, a gauge of the bytes
// currently on disk.
type Stats struct {
	SpilledBytes  int64 // gauge: compressed bytes on disk right now
	SpillWrites   int64 // blocks evicted (written) to the spill file
	SpillReads    int64 // synchronous read-backs on Get (prefetch misses)
	PrefetchReads int64 // blocks the async prefetcher staged into RAM
	PrefetchHits  int64 // Gets served from RAM by a prior prefetch
}
