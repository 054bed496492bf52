package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"io"
	"math"

	"qcsim/internal/blockstore"
)

// Checkpointing (§3.5): the compressed blocks are written out as-is so a
// job killed by a wall-time limit can resume from the last gate
// boundary. The format is self-describing and checksummed. Both
// directions stream block-at-a-time through the block store: Save
// never needs the whole table resident (spilled blocks are read
// straight from the spill file via Peek), and Load stages incoming
// blocks into fresh stores that may themselves spill — a state larger
// than RAM checkpoints and restores without ever materializing in RAM.

var checkpointMagic = [8]byte{'Q', 'C', 'S', 'I', 'M', 'C', 'K', '1'}

// Save writes the full simulator state (geometry, ledger, measurement
// log, per-rank levels and compressed blocks) to w.
func (s *Simulator) Save(w io.Writer) error {
	h := fnv.New64a()
	mw := io.MultiWriter(w, h)
	if _, err := mw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	hdr := []uint64{
		uint64(s.cfg.Qubits),
		uint64(s.rankBits),
		uint64(s.blockBits),
		uint64(s.offsetBits),
		math.Float64bits(s.ledger),
		uint64(s.gatesRun),
		uint64(len(s.measurements)),
	}
	for _, v := range hdr {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, m := range s.measurements {
		if err := binary.Write(mw, binary.LittleEndian, uint8(m)); err != nil {
			return err
		}
	}
	nb := s.blocksPerRank()
	for _, rs := range s.ranks {
		if err := binary.Write(mw, binary.LittleEndian, uint8(rs.level)); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, uint32(nb)); err != nil {
			return err
		}
		for b := 0; b < nb; b++ {
			// Peek, not Get: a checkpoint of a partially spilled state
			// must not thrash the resident set the next gates rely on.
			blob, err := rs.store.Peek(b)
			if err != nil {
				return err
			}
			if err := binary.Write(mw, binary.LittleEndian, uint32(len(blob))); err != nil {
				return err
			}
			if _, err := mw.Write(blob); err != nil {
				return err
			}
		}
	}
	// Trailing checksum (not itself checksummed).
	return binary.Write(w, binary.LittleEndian, h.Sum64())
}

// Load restores a checkpoint written by Save into this simulator. The
// simulator must have been built with the same Qubits, Ranks, and
// BlockAmps geometry (codecs may differ only if they can decode the
// stored blocks).
//
// Blocks stream into per-rank staging stores as they are read — under
// a spill configuration they may go straight to disk, so restoring
// never needs the whole table in RAM. Every distinct blob is
// decode-validated on the way in; a block byte-identical to an earlier
// one shares that blob (same bytes, same verdict), so a redundant
// state costs one decode per distinct block, not per slot, and the
// restored simulator shares blobs the way the saved one did. The live
// state is swapped only after the trailing checksum verifies: any
// failure leaves the simulator exactly as it was.
func (s *Simulator) Load(r io.Reader) error {
	h := fnv.New64a()
	tr := io.TeeReader(r, h)
	var magic [8]byte
	if _, err := io.ReadFull(tr, magic[:]); err != nil {
		return fmt.Errorf("core: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("core: not a checkpoint (magic %q)", magic[:])
	}
	var hdr [7]uint64
	for i := range hdr {
		if err := binary.Read(tr, binary.LittleEndian, &hdr[i]); err != nil {
			return fmt.Errorf("core: checkpoint header: %w", err)
		}
	}
	if int(hdr[0]) != s.cfg.Qubits || int(hdr[1]) != s.rankBits ||
		int(hdr[2]) != s.blockBits || int(hdr[3]) != s.offsetBits {
		return fmt.Errorf("core: checkpoint geometry (q=%d ρ=%d β=%d ω=%d) does not match simulator (q=%d ρ=%d β=%d ω=%d)",
			hdr[0], hdr[1], hdr[2], hdr[3], s.cfg.Qubits, s.rankBits, s.blockBits, s.offsetBits)
	}
	ledger := math.Float64frombits(hdr[4])
	gatesRun := int(hdr[5])
	nMeas := int(hdr[6])
	if nMeas < 0 || nMeas > gatesRun {
		return fmt.Errorf("core: checkpoint measurement count %d invalid", nMeas)
	}
	meas := make([]int, nMeas)
	for i := range meas {
		var m uint8
		if err := binary.Read(tr, binary.LittleEndian, &m); err != nil {
			return fmt.Errorf("core: checkpoint measurements: %w", err)
		}
		meas[i] = int(m)
	}
	levels := make([]int, len(s.ranks))
	staging := make([]blockstore.Store, 0, len(s.ranks))
	closeStaging := func() {
		for _, st := range staging {
			st.Close()
		}
	}
	scratch := make([]float64, 2*s.blockAmps())
	// interned maps a blob's hash to the first copy read. The table
	// pins blobs a spilling staging store would otherwise be free to
	// evict, so under a spill configuration it may hold one more
	// resident budget of them and no more; later distinct blobs are
	// then validated and stored unshared.
	interned := make(map[uint64][]byte)
	room := int64(math.MaxInt64)
	if s.cfg.spillEnabled() {
		room = s.cfg.SpillRAMBudget
	}
	for ri := range s.ranks {
		var level uint8
		if err := binary.Read(tr, binary.LittleEndian, &level); err != nil {
			closeStaging()
			return fmt.Errorf("core: checkpoint rank %d: %w", ri, err)
		}
		if int(level) > len(s.cfg.ErrorLevels) {
			closeStaging()
			return fmt.Errorf("core: checkpoint level %d out of range", level)
		}
		var nb uint32
		if err := binary.Read(tr, binary.LittleEndian, &nb); err != nil {
			closeStaging()
			return fmt.Errorf("core: checkpoint rank %d: %w", ri, err)
		}
		if int(nb) != s.blocksPerRank() {
			closeStaging()
			return fmt.Errorf("core: checkpoint rank %d has %d blocks, want %d", ri, nb, s.blocksPerRank())
		}
		levels[ri] = int(level)
		st, err := s.newStore(ri)
		if err != nil {
			closeStaging()
			return err
		}
		staging = append(staging, st)
		for b := 0; b < int(nb); b++ {
			var bl uint32
			if err := binary.Read(tr, binary.LittleEndian, &bl); err != nil {
				closeStaging()
				return fmt.Errorf("core: checkpoint block length: %w", err)
			}
			if bl > 1<<30 {
				closeStaging()
				return fmt.Errorf("core: checkpoint block of %d bytes implausible", bl)
			}
			blob := make([]byte, bl)
			if _, err := io.ReadFull(tr, blob); err != nil {
				closeStaging()
				return fmt.Errorf("core: checkpoint block: %w", err)
			}
			sum := maphash.Bytes(keySeed, blob)
			if first, seen := interned[sum]; seen && bytes.Equal(first, blob) {
				blob = first
			} else {
				// Validate on the way in — the blob may spill immediately,
				// and a corrupt checkpoint must be rejected before commit.
				if err := s.decodeBlob(blob, scratch); err != nil {
					closeStaging()
					return fmt.Errorf("core: checkpoint rank %d undecodable: %w", ri, err)
				}
				if !seen && int64(bl) <= room {
					interned[sum] = blob
					room -= int64(bl)
				}
			}
			if err := st.Put(b, blob); err != nil {
				closeStaging()
				return err
			}
		}
	}
	want := h.Sum64()
	var got uint64
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		closeStaging()
		return fmt.Errorf("core: checkpoint checksum: %w", err)
	}
	if got != want {
		closeStaging()
		return fmt.Errorf("core: checkpoint checksum mismatch (file %#x, computed %#x)", got, want)
	}
	// Commit: swap each rank onto its staged store.
	s.version++
	s.ledger = ledger
	s.gatesRun = gatesRun
	s.measurements = meas
	for ri, rs := range s.ranks {
		rs.level = levels[ri]
		// The restored state replaces whatever ran before, so per-rank
		// accounting latched from the pre-restore timeline must not
		// survive: a stuck overBudget latch would make the next run
		// report the budget exceeded even though the restored footprint
		// fits, and FinalLevel must describe the restored ladder position
		// (levels only escalate, so the level at save time is the highest
		// the checkpointed timeline ever used).
		rs.stats.FinalLevel = levels[ri]
		// Fold the outgoing store's spill tally into the baseline so
		// the rank's cumulative counters survive the swap, then close
		// it (removing its spill file).
		rs.storeAcc = rs.storeAcc.Plus(rs.store.Stats().Minus(rs.storeBase))
		rs.storeBase = blockstore.Stats{}
		rs.store.Close()
		rs.store = staging[ri]
		// Re-derive the latch from the restored state itself: clear it
		// for a healthy checkpoint, but a state saved over budget at
		// the loosest bound is still over budget after the restore.
		// The budget presses on the resident bytes, so a restore into
		// a spill-enabled simulator can clear a latch the saving
		// (unspilled) simulator tripped.
		rs.overBudget = s.cfg.budgeted() && rs.level == len(s.cfg.ErrorLevels) &&
			rs.store.Resident() > s.cfg.MemoryBudget
		s.syncStoreStats(rs)
		if rs.stats.CurrentFootprint > rs.stats.MaxFootprint {
			rs.stats.MaxFootprint = rs.stats.CurrentFootprint
		}
	}
	return nil
}
