package quantum

import "encoding/binary"

// Sweep is one unit of the block-local partition of a circuit: a
// half-open gate range [Start, End). When Local is true, every gate in
// the range is block-local with respect to the offset-bit count the
// plan was built for — its target AND all of its controls address
// offset bits — so it acts identically on every block of every rank.
// Non-local gates (cross-block or cross-rank targets, controls outside
// the offset segment, measurements) are singletons with Local false.
// The engine schedules by the coarser PlanPairSweeps; this partition
// labels traces and counts block-local runs.
type Sweep struct {
	Start, End int
	Local      bool
}

// Len returns the number of gates the sweep covers.
func (s Sweep) Len() int { return s.End - s.Start }

// BlockLocal reports whether g can join a block-local sweep for the
// given offset-bit count: a unitary whose target and every control all
// live in the offset segment, so applying it touches amplitude pairs
// inside a single block and acts identically on every block of every
// rank. Measurements are never block-local (they are collective), and
// neither is any gate whose target or a control selects block or rank
// index bits.
func BlockLocal(g Gate, offsetBits int) bool {
	if g.Kind != KindUnitary || g.Target >= offsetBits {
		return false
	}
	for _, c := range g.Controls {
		if c >= offsetBits {
			return false
		}
	}
	return true
}

// PlanSweeps partitions gates into maximal runs of consecutive
// block-local gates (Local sweeps, possibly of length 1) interleaved
// with singleton non-local sweeps. Concatenating the ranges in order
// reproduces the input stream exactly: the plan never reorders gates.
func PlanSweeps(gates []Gate, offsetBits int) []Sweep {
	var plan []Sweep
	for i := 0; i < len(gates); {
		if !BlockLocal(gates[i], offsetBits) {
			plan = append(plan, Sweep{Start: i, End: i + 1})
			i++
			continue
		}
		j := i + 1
		for j < len(gates) && BlockLocal(gates[j], offsetBits) {
			j++
		}
		plan = append(plan, Sweep{Start: i, End: j, Local: true})
		i = j
	}
	return plan
}

// PairSweep is one schedule unit of the pair-sweep scheduler: a
// half-open gate range [Start, End). When Pass is true the range is a
// run of unitaries whose targets are offset-segment qubits or ONE
// shared block-segment qubit t, so the whole run fits the paper's
// two-block working set (§3.1, Eq. 8) and executes as a single codec
// pass over the block pairs (b, b|2^(t-offsetBits)) — over single
// blocks when no gate targets the block segment. Controls may sit in
// any segment: they select amplitudes, blocks or ranks and are never
// members of the working set. Measurements and gates that target the
// rank segment are singletons with Pass false.
type PairSweep struct {
	Start, End int
	Pass       bool
}

// Len returns the number of gates the sweep covers.
func (s PairSweep) Len() int { return s.End - s.Start }

// pairTarget reports whether g can join a pair sweep — a unitary whose
// target lies below the rank segment — and the block-segment qubit it
// targets, or -1 when its target is an offset qubit.
func pairTarget(g Gate, offsetBits, blockBits int) (t int, ok bool) {
	switch {
	case g.Kind != KindUnitary || g.Target >= offsetBits+blockBits:
		return -1, false
	case g.Target >= offsetBits:
		return g.Target, true
	}
	return -1, true
}

// PlanPairSweeps partitions gates into maximal pair sweeps (see
// PairSweep) interleaved with the singletons that cannot join one. A
// run ends where the next gate would bring a second block-segment
// target into it: two such targets need four decompressed blocks per
// worker, twice the working set Eq. 8 budgets. Like PlanSweeps the plan
// never reorders gates and depends only on the gate list and the
// geometry, so every rank computes the same schedule.
func PlanPairSweeps(gates []Gate, offsetBits, blockBits int) []PairSweep {
	var plan []PairSweep
	for i := 0; i < len(gates); {
		t, ok := pairTarget(gates[i], offsetBits, blockBits)
		j := i + 1
		for ok && j < len(gates) {
			tj, join := pairTarget(gates[j], offsetBits, blockBits)
			if !join || (tj >= 0 && t >= 0 && tj != t) {
				break
			}
			if tj >= 0 {
				t = tj
			}
			j++
		}
		plan = append(plan, PairSweep{Start: i, End: j, Pass: ok})
		i = j
	}
	return plan
}

// SingletonPairSweeps returns the degenerate plan with one sweep per
// gate — the schedule that reproduces the paper's gate-at-a-time cost
// model exactly (used when the sweep scheduler is disabled or a noise
// channel must fire after every gate). A one-gate pair sweep runs
// through the same pass as a long one.
func SingletonPairSweeps(gates []Gate, offsetBits, blockBits int) []PairSweep {
	plan := make([]PairSweep, len(gates))
	for i, g := range gates {
		_, ok := pairTarget(g, offsetBits, blockBits)
		plan[i] = PairSweep{Start: i, End: i + 1, Pass: ok}
	}
	return plan
}

// SweepSignature returns an unambiguous byte signature of a gate run for
// the compressed block cache (§3.4): each gate's Signature,
// length-prefixed so distinct gate sequences can never concatenate to
// the same key bytes.
func SweepSignature(gates []Gate) string {
	b := make([]byte, 0, 72*len(gates))
	for _, g := range gates {
		sig := g.Signature()
		b = binary.AppendUvarint(b, uint64(len(sig)))
		b = append(b, sig...)
	}
	return string(b)
}
