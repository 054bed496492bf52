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

// maxCheckpointGates is the largest gate count Load accepts: 2^53, which
// no run reaches (at a microsecond a gate it takes 285 years) and up to
// which the count is exact as a float64.
const maxCheckpointGates = 1 << 53

// readChunk is the most readArrived allocates ahead of the bytes read.
const readChunk = 1 << 20

// readArrived reads exactly n bytes from r. Its buffer starts at
// readChunk and then doubles, each time only once the bytes before have
// arrived, ending at exactly n: a length field that promises more than
// the stream holds costs a chunk, not the promise.
func readArrived(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

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
		err := rs.walk(func(_ int, blob []byte) error {
			if err := binary.Write(mw, binary.LittleEndian, uint32(len(blob))); err != nil {
				return err
			}
			_, err := mw.Write(blob)
			return err
		})
		if err != nil {
			return err
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
//
// The header is held to what Save writes before anything is read on
// its word: a ledger in [0, 1], at most maxCheckpointGates gates, no
// more measurements than gates, outcomes 0 or 1. The measurement log
// and every blob grow only as their bytes arrive (readArrived), so no
// length field can make Load allocate memory the stream does not back.
// Every refusal wraps ErrBadCheckpoint; a spill failure while staging
// wraps blockstore.ErrSpill.
func (s *Simulator) Load(r io.Reader) error {
	h := fnv.New64a()
	tr := io.TeeReader(r, h)
	var magic [8]byte
	if _, err := io.ReadFull(tr, magic[:]); err != nil {
		return fmt.Errorf("%w: header: %w", ErrBadCheckpoint, err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("%w: not a checkpoint (magic %q)", ErrBadCheckpoint, magic[:])
	}
	var hdr [7]uint64
	if err := binary.Read(tr, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("%w: header: %w", ErrBadCheckpoint, err)
	}
	if int(hdr[0]) != s.cfg.Qubits || int(hdr[1]) != s.rankBits ||
		int(hdr[2]) != s.blockBits || int(hdr[3]) != s.offsetBits {
		return fmt.Errorf("%w: geometry (q=%d ρ=%d β=%d ω=%d) does not match simulator (q=%d ρ=%d β=%d ω=%d)",
			ErrBadCheckpoint, hdr[0], hdr[1], hdr[2], hdr[3], s.cfg.Qubits, s.rankBits, s.blockBits, s.offsetBits)
	}
	ledger := math.Float64frombits(hdr[4])
	if !(ledger >= 0 && ledger <= 1) { // NaN fails too
		return fmt.Errorf("%w: fidelity ledger %v outside [0, 1]", ErrBadCheckpoint, ledger)
	}
	if hdr[5] > maxCheckpointGates {
		return fmt.Errorf("%w: gate count %d above %d", ErrBadCheckpoint, hdr[5], uint64(maxCheckpointGates))
	}
	if hdr[6] > hdr[5] {
		return fmt.Errorf("%w: %d measurements in %d gates", ErrBadCheckpoint, hdr[6], hdr[5])
	}
	gatesRun, nMeas := int(hdr[5]), int(hdr[6])
	outcomes, err := readArrived(tr, nMeas)
	if err != nil {
		return fmt.Errorf("%w: measurements: %w", ErrBadCheckpoint, err)
	}
	meas := make([]int, nMeas)
	for i, m := range outcomes {
		if m > 1 {
			return fmt.Errorf("%w: measurement %d has outcome %d", ErrBadCheckpoint, i, m)
		}
		meas[i] = int(m)
	}
	levels := make([]int, len(s.ranks))
	// Until the commit swaps them in, the staging stores are this call's
	// to close, whichever refusal returns.
	staging := make([]blockstore.Store, 0, len(s.ranks))
	committed := false
	defer func() {
		if !committed {
			for _, st := range staging {
				st.Close()
			}
		}
	}()
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
			return fmt.Errorf("%w: rank %d: %w", ErrBadCheckpoint, ri, err)
		}
		if int(level) > len(s.cfg.ErrorLevels) {
			return fmt.Errorf("%w: level %d out of range", ErrBadCheckpoint, level)
		}
		var nb uint32
		if err := binary.Read(tr, binary.LittleEndian, &nb); err != nil {
			return fmt.Errorf("%w: rank %d: %w", ErrBadCheckpoint, ri, err)
		}
		if int(nb) != s.blocksPerRank() {
			return fmt.Errorf("%w: rank %d has %d blocks, want %d", ErrBadCheckpoint, ri, nb, s.blocksPerRank())
		}
		levels[ri] = int(level)
		st, err := s.newStore(ri)
		if err != nil {
			return err
		}
		staging = append(staging, st)
		for b := 0; b < int(nb); b++ {
			var bl uint32
			if err := binary.Read(tr, binary.LittleEndian, &bl); err != nil {
				return fmt.Errorf("%w: block length: %w", ErrBadCheckpoint, err)
			}
			if bl > 1<<30 {
				return fmt.Errorf("%w: block of %d bytes implausible", ErrBadCheckpoint, bl)
			}
			blob, err := readArrived(tr, int(bl))
			if err != nil {
				return fmt.Errorf("%w: block: %w", ErrBadCheckpoint, err)
			}
			sum := maphash.Bytes(keySeed, blob)
			if first, seen := interned[sum]; seen && bytes.Equal(first, blob) {
				blob = first
			} else {
				// Validate on the way in — the blob may spill immediately,
				// and a corrupt checkpoint must be rejected before commit.
				if err := s.decodeBlob(blob, scratch); err != nil {
					return fmt.Errorf("%w: rank %d undecodable: %w", ErrBadCheckpoint, ri, err)
				}
				if !seen && int64(bl) <= room {
					interned[sum] = blob
					room -= int64(bl)
				}
			}
			if err := st.Put(b, blob); err != nil {
				return err
			}
		}
	}
	want := h.Sum64()
	var got uint64
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return fmt.Errorf("%w: checksum: %w", ErrBadCheckpoint, err)
	}
	if got != want {
		return fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrBadCheckpoint, got, want)
	}
	// Commit: swap each rank onto its staged store.
	committed = true
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
		// Fold the outgoing store's spill counters in before closing it
		// (removing its spill file), then count the staging store's from
		// zero: the rank's counters run on across the swap.
		s.syncStoreStats(rs)
		rs.store.Close()
		rs.store, rs.seen = staging[ri], blockstore.Stats{}
		// Re-derive the latch from the restored state itself: clear it
		// for a healthy checkpoint, but a state saved over budget at
		// the loosest bound is still over budget after the restore.
		// The budget presses on the resident bytes, so a restore into
		// a spill-enabled simulator can clear a latch the saving
		// (unspilled) simulator tripped.
		rs.overBudget = s.cfg.budgeted() && rs.level == len(s.cfg.ErrorLevels) &&
			rs.store.Resident() > s.cfg.MemoryBudget
		s.sampleFootprint(rs)
	}
	return nil
}
