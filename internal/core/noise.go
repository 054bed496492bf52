package core

import (
	"math/rand"

	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// noiseActive reports whether the depolarizing channel (Config.Noise)
// can ever fire. A noiseless configuration skips the per-gate
// error-flag allreduce and the two rng draws the channel would cost
// entirely.
func (s *Simulator) noiseActive() bool {
	return s.cfg.Noise > 0
}

// applyNoiseRank draws from the rank's noise stream — identical on every
// rank — and applies the chosen Pauli as a regular gate. All ranks draw
// the same number of variates per gate whether or not the Pauli fires,
// keeping the streams aligned. The draws happen here, before any block
// fan-out, and the Pauli application goes through the same worker-pool
// gate path as ordinary gates — no randomness is ever consumed inside a
// worker, which is what keeps the trajectory independent of Workers. A
// codec failure propagates to the run loop's sweep error barrier like
// any other gate error. The Pauli's pass recompresses the state a second
// time at the gate's boundary, so it charges the ledger in a round of its
// own — the boundary's last — rather than sharing the gate's.
func (s *Simulator) applyNoiseRank(comm mpi.Comm, rs *rankState, g quantum.Gate, gi int) error {
	if rs.rng == nil {
		// The noise stream must be IDENTICAL on every rank: each rank
		// draws the same variates per gate, so all ranks agree on
		// whether (and which) Pauli fires — otherwise a cross-rank noise
		// gate deadlocks half the pairs.
		rs.rng = rand.New(rand.NewSource(s.cfg.Seed ^ 0x9E3779B9))
	}
	u := rs.rng.Float64()
	pick := rs.rng.Intn(3)
	if u >= s.cfg.Noise {
		return nil
	}
	var pauli quantum.Gate
	switch pick {
	case 0:
		pauli = quantum.Gate{Name: "noise-x", Target: g.Target, U: quantum.MatX}
	case 1:
		pauli = quantum.Gate{Name: "noise-y", Target: g.Target, U: quantum.MatY}
	default:
		pauli = quantum.Gate{Name: "noise-z", Target: g.Target, U: quantum.MatZ}
	}
	return applyUnitaries(comm, []*Simulator{s}, [][]quantum.Gate{{pauli}}, nil, gi, s.ledgerRounds()-1)
}
