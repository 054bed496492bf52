package core

import (
	"fmt"

	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// NoiseModel implements the paper's future-work direction (§6): folding
// stochastic device noise into the simulation alongside the (already
// uncorrelated) compression error. It is a quantum-trajectories
// depolarizing channel: after each gate, with probability Prob, a
// uniformly random Pauli is applied to the gate's target qubit.
type NoiseModel struct {
	// Prob is the per-gate depolarizing probability in [0, 1).
	Prob float64
}

// SetNoise installs (or, with nil, removes) the noise model. Every rank
// derives the same Pauli insertions from its deterministic noise stream,
// so the trajectory is consistent across the distributed state.
func (s *Simulator) SetNoise(m *NoiseModel) error {
	if m != nil && (m.Prob < 0 || m.Prob >= 1) {
		return fmt.Errorf("core: depolarizing probability %v out of [0,1)", m.Prob)
	}
	s.noise = m
	return nil
}

// noiseActive reports whether the depolarizing channel can ever fire.
// A Prob == 0 model is equivalent to no model at all, so the per-gate
// error-flag allreduce and the two rng draws the channel would cost are
// skipped entirely — the execution path (collectives, noise stream,
// stats) is identical to a nil model.
func (s *Simulator) noiseActive() bool {
	return s.noise != nil && s.noise.Prob > 0
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
	u := rs.rng.Float64()
	pick := rs.rng.Intn(3)
	if u >= s.noise.Prob {
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
	return applyUnitaries(comm, []*Simulator{s}, [][]quantum.Gate{{pauli}}, gi, s.ledgerRounds()-1)
}
