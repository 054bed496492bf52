package quantum

import (
	"encoding/binary"
	"slices"
)

// Sweep is one unit of the block-local partition of a circuit: a
// half-open gate range [Start, End). When Local is true, every gate in
// the range is block-local with respect to the offset-bit count the
// plan was built for — its target AND all of its controls address
// offset bits — so it acts identically on every block of every rank.
// Non-local gates (cross-block or cross-rank targets, controls outside
// the offset segment, measurements) are singletons with Local false.
// The engine schedules by the coarser PlanGroupSweeps; this partition
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

// GroupSweep is one schedule unit of the group-sweep scheduler: a
// half-open gate range [Start, End). When Pass is true the range is a
// run of unitaries whose targets are offset-segment qubits or a few
// distinct qubits above the offset segment (see PlanGroupSweeps), and
// it executes as a single codec pass over the block groups those qubits
// span — b together with b flipped in every combination of their index
// bits: a single block when no gate targets outside the offset segment,
// a pair for one such qubit, four blocks for two, eight for three. A
// block-segment target pairs blocks of one rank; a rank-segment target
// pairs each block with the same-index block on the peer rank, so its
// groups are exchanged (§3.3's third case). Controls may sit in any
// segment: they select amplitudes, blocks or ranks and are never
// members of a group. A ZZ unit (see ZZUnit) is no target at all.
// Measurements are singletons with Pass false.
type GroupSweep struct {
	Start, End int
	Pass       bool
	// Units holds the first gate of each ZZ unit the pass applies as one,
	// relative to Start, in increasing order; nil when there is none.
	Units []int
}

// Len returns the number of gates the sweep covers.
func (s GroupSweep) Len() int { return s.End - s.Start }

// ZZUnit reports whether gates[i:i+3] is a ZZ unit: CNOT(u,v), then a
// gate on v with no controls and exact-zero off-diagonal entries, then
// the same CNOT(u,v), u and v in any segment. The triple multiplies
// each amplitude by the middle gate's diagonal entry indexed by
// z_u ⊕ z_v, so it mixes no amplitudes, and a pass applies it in place,
// as no target and one multiply per amplitude (QAOA's cost layer is one
// unit per edge). The entries are read by exact equality, never the
// gates' names; −0 counts as 0. A batch plans each variant on its own,
// so a triple may be a unit in one variant and three gates in another.
func ZZUnit(gates []Gate, i int) bool {
	if i+3 > len(gates) {
		return false
	}
	cx, d, cx2 := &gates[i], &gates[i+1], &gates[i+2]
	return isCNOT(cx) && isCNOT(cx2) && cx2.Target == cx.Target && cx2.Controls[0] == cx.Controls[0] &&
		d.Kind == KindUnitary && d.Target == cx.Target && len(d.Controls) == 0 && d.U[0][1] == 0 && d.U[1][0] == 0
}

// isCNOT reports whether g is an X (exact entries) with one control.
func isCNOT(g *Gate) bool {
	return g.Kind == KindUnitary && len(g.Controls) == 1 &&
		g.U[0][0] == 0 && g.U[1][1] == 0 && g.U[0][1] == 1 && g.U[1][0] == 1
}

// PlanGroupSweeps partitions gates into maximal group sweeps (see
// GroupSweep) interleaved with the measurements, which are singletons.
// A run ends only at a measurement, or where the next gate would bring
// one distinct non-offset target more than width into it, or a second
// distinct rank-segment target: a block-segment and a rank-segment
// target each double the group, so width 1 gives pair sweeps (a rank
// target's pair is split across two ranks), 2 groups of up to four
// blocks, 3 groups of up to eight (the engine picks the width from its
// budget). A ZZ unit counts no target, whatever segments u and v lie
// in. Like PlanSweeps the plan never reorders gates and depends only on
// the gate list, the geometry and the width, so every rank computes the
// same schedule.
func PlanGroupSweeps(gates []Gate, offsetBits, blockBits, width int) []GroupSweep {
	var plan []GroupSweep
	targets := make([]int, 0, width) // the run's distinct non-offset targets
	for i := 0; i < len(gates); {
		targets = targets[:0]
		rank := false // a target in targets is a rank-segment qubit
		var units []int
		j := i
		for ; j < len(gates); j++ {
			g := gates[j]
			if g.Kind != KindUnitary {
				break
			}
			if ZZUnit(gates, j) {
				units = append(units, j-i)
				j += 2
				continue
			}
			t := g.Target
			if t < offsetBits || slices.Contains(targets, t) {
				continue
			}
			isRank := t >= offsetBits+blockBits
			if len(targets) == width || isRank && rank {
				break
			}
			rank = rank || isRank
			targets = append(targets, t)
		}
		if j == i {
			plan = append(plan, GroupSweep{Start: i, End: i + 1})
			i++
			continue
		}
		plan = append(plan, GroupSweep{Start: i, End: j, Pass: true, Units: units})
		i = j
	}
	return plan
}

// SingletonSweeps returns the degenerate plan with one sweep per gate —
// the schedule that reproduces the paper's gate-at-a-time cost model
// exactly (used when the sweep scheduler is disabled). A one-gate sweep
// runs through the same pass as a long one; only a measurement is not a
// pass.
func SingletonSweeps(gates []Gate) []GroupSweep {
	plan := make([]GroupSweep, len(gates))
	for i, g := range gates {
		plan[i] = GroupSweep{Start: i, End: i + 1, Pass: g.Kind == KindUnitary}
	}
	return plan
}

// SweepSignature returns an unambiguous byte signature of a gate run for
// the compressed block cache (§3.4): each gate's Signature,
// length-prefixed so distinct gate sequences can never concatenate to
// the same key bytes.
func SweepSignature(gates []Gate) string {
	size := 0
	for i := range gates {
		size += binary.MaxVarintLen64 + gates[i].signatureLen()
	}
	b := make([]byte, 0, size)
	for i := range gates {
		b = binary.AppendUvarint(b, uint64(gates[i].signatureLen()))
		b = gates[i].appendSignature(b)
	}
	return string(b)
}
