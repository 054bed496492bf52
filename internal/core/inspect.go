package core

import (
	"fmt"
	"math/rand"

	"qcsim/internal/stats"
)

// Amplitude returns ⟨idx|ψ⟩, decompressing only the containing block.
func (s *Simulator) Amplitude(idx uint64) (complex128, error) {
	if idx >= 1<<uint(s.cfg.Qubits) {
		return 0, fmt.Errorf("core: amplitude index %d out of range", idx)
	}
	r, b, o := s.locate(idx)
	scratch := make([]float64, 2*s.blockAmps())
	// Peek, not Get: inspection must not disturb the resident set a
	// tiered store keeps for the hot path.
	blob, err := s.ranks[r].store.Peek(b)
	if err != nil {
		return 0, err
	}
	if err := s.decodeBlob(blob, scratch); err != nil {
		return 0, err
	}
	return complex(scratch[2*o], scratch[2*o+1]), nil
}

// FullState decompresses the whole state vector (test scales only).
func (s *Simulator) FullState() ([]complex128, error) {
	if s.cfg.Qubits > 26 {
		return nil, fmt.Errorf("core: FullState on %d qubits would allocate %s", s.cfg.Qubits, stats.FormatBytes(MemoryRequirement(s.cfg.Qubits)))
	}
	out := make([]complex128, 1<<uint(s.cfg.Qubits))
	err := s.readBlocks(0, func(base uint64, x []float64) {
		for o := range s.blockAmps() {
			out[base+uint64(o)] = complex(x[2*o], x[2*o+1])
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Norm returns Σ|aᵢ|² across the full compressed state.
func (s *Simulator) Norm() (float64, error) {
	var n float64
	err := s.readBlocks(0, func(_ uint64, x []float64) {
		for _, v := range x {
			n += v * v
		}
	})
	return n, err
}

// ProbabilityOne returns P(qubit q = 1) without collapsing.
func (s *Simulator) ProbabilityOne(q int) (float64, error) {
	if q < 0 || q >= s.cfg.Qubits {
		return 0, fmt.Errorf("core: qubit %d out of range", q)
	}
	bit := uint64(1) << uint(q)
	var want uint64 // a block whose index has q clear holds q=0 alone
	if q >= s.offsetBits {
		want = bit
	}
	var p float64
	err := s.readBlocks(want, func(base uint64, x []float64) {
		for o := range s.blockAmps() {
			if (base+uint64(o))&bit != 0 {
				re, im := x[2*o], x[2*o+1]
				p += re*re + im*im
			}
		}
	})
	return p, err
}

// readBlocks is the inspectors' one read of the state: every block whose
// global index has the bits of want (above the offset segment) set, in
// rank → block order, decoded into one scratch of the call's own and
// handed to fn with the global index of its first amplitude. It Peeks,
// so inspection never disturbs the resident set a tiered store keeps for
// the hot path, and decodes without touching Stats, so reading the state
// never skews the Table 2 time breakdown.
func (s *Simulator) readBlocks(want uint64, fn func(base uint64, x []float64)) error {
	x := make([]float64, 2*s.blockAmps())
	for r, rs := range s.ranks {
		for b := range s.blocksPerRank() {
			base := s.compose(r, b, 0)
			if base&want != want {
				continue
			}
			blob, err := rs.store.Peek(b)
			if err != nil {
				return err
			}
			if err := s.decodeBlob(blob, x); err != nil {
				return err
			}
			fn(base, x)
		}
	}
	return nil
}

// DefaultSampleCache is the number of lines a Sampler's decoded-block
// LRU gets when the caller has no reason to pick another.
const DefaultSampleCache = 8

// Sample draws `shots` full-register outcomes from the compressed state
// without collapsing it, via a throwaway streaming Sampler — the state
// is never materialized, so sampling works at any register width. A
// nil rng falls back to the simulator's own seeded sampling stream, so
// deterministic sampling needs no caller-supplied randomness — and,
// because that stream is separate from the measurement-collapse stream,
// sampling never perturbs later measurement outcomes. Callers drawing
// repeatedly from an unchanged state should hold a NewSampler instead
// and amortize the CDF build.
func (s *Simulator) Sample(rng *rand.Rand, shots int) ([]uint64, error) {
	sp, err := s.NewSampler(DefaultSampleCache)
	if err != nil {
		return nil, err
	}
	return sp.Sample(rng, shots)
}

// Stats returns the aggregate across ranks, first refreshing each
// rank's footprint gauges and spill counters from its block store.
func (s *Simulator) Stats() Stats {
	var agg Stats
	for _, rs := range s.ranks {
		s.syncStoreStats(rs)
		agg = agg.Add(rs.stats)
	}
	return agg
}

// CompressedFootprint returns the current total compressed bytes
// across ranks and both memory tiers.
func (s *Simulator) CompressedFootprint() int64 {
	var t int64
	for _, rs := range s.ranks {
		t += rs.store.Footprint()
	}
	return t
}

// CompressionRatio returns uncompressed-state-bytes over the current
// footprint.
func (s *Simulator) CompressionRatio() float64 {
	fp := s.CompressedFootprint()
	if fp == 0 {
		return 0
	}
	return MemoryRequirement(s.cfg.Qubits) / float64(fp)
}

// GatesRun returns the number of gates executed so far.
func (s *Simulator) GatesRun() int { return s.gatesRun }

// BytesMoved returns the cumulative cross-rank communication volume.
func (s *Simulator) BytesMoved() int64 { return s.bytesMoved }

// OverBudget reports whether, on any rank, a sweep boundary found the
// compressed footprint above the memory budget with the §3.7 escalation
// ladder already exhausted — the state was recompressed at the loosest
// error bound and still did not fit, so the adaptive pipeline can no
// longer trade fidelity for space. The latch clears on Reset.
func (s *Simulator) OverBudget() bool {
	for _, rs := range s.ranks {
		if rs.overBudget {
			return true
		}
	}
	return false
}
