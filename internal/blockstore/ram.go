package blockstore

import "sync/atomic"

// ram is the default single-tier store: the old [][]byte block table
// with the footprint delta accounting moved inside. Everything is
// resident; hints are no-ops and WantHints lets callers skip even
// building them.
//
// There is no lock: the Store contract gives every slot a single
// owner per pass (and passes are ordered by the fan-out's join), so
// slot reads and writes never race, and the footprint is an atomic
// that a same-size replacement — every cache hit on a redundant
// state — does not touch.
type ram struct {
	blocks    [][]byte
	footprint atomic.Int64
}

// NewRAM returns an in-memory store with n empty block slots.
func NewRAM(n int) Store {
	return &ram{blocks: make([][]byte, n)}
}

func (r *ram) Get(b int) ([]byte, error) { return r.blocks[b], nil }

func (r *ram) Peek(b int) ([]byte, error) { return r.blocks[b], nil }

func (r *ram) Put(b int, blob []byte) error {
	if d := len(blob) - len(r.blocks[b]); d != 0 {
		r.footprint.Add(int64(d))
	}
	r.blocks[b] = blob
	return nil
}

func (r *ram) Len() int { return len(r.blocks) }

func (r *ram) Footprint() int64 { return r.footprint.Load() }

func (r *ram) Resident() int64 { return r.Footprint() }

func (r *ram) WantHints() bool          { return false }
func (r *ram) PrefetchHint(order []int) {}
func (r *ram) Stats() Stats             { return Stats{} }
func (r *ram) Close() error             { return nil }
