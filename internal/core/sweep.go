package core

import (
	"bytes"
	"math"
	"math/bits"
	"slices"

	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// The group-sweep executor. The paper's cost model (§3.1) pays a full
// decompress → apply → recompress pass over every compressed block for
// every gate, which is why its Table 2 time is dominated by codec work.
// A group sweep spends one codec pass on a whole run of gates:
//
//   - What joins a sweep: a maximal run of consecutive unitaries whose
//     targets are offset-segment qubits or at most sweepWidth distinct
//     qubits above the offset segment — three, or one under a memory
//     budget — of which at most one is a rank-segment qubit
//     (quantum.PlanGroupSweeps). Controls may sit anywhere — an offset
//     control masks amplitudes, a block control selects which blocks a
//     gate fires on, a rank control which ranks; none of them is a member
//     of a group. Measurements (a collective) stay singletons.
//   - Why up to three block-segment targets: the pass walks groups of
//     2^t blocks, b|sub for every sub made of the sweep's t block
//     strides, and decompresses a group into the worker's scratch. One
//     target is the paper's Eq. 8 pair (w.x, w.y); each further one
//     doubles the group, and the six extra buffers an 8-block group needs
//     live only while a Run makes such passes (workerState.wide), so an
//     idle Simulator still holds the pair alone. A target more lets one
//     pass carry gates that would otherwise start another — a
//     decompress → apply → recompress round trip per block (§3.1) — and
//     lets a cache hit (§3.4) stand for more work. A sweep with no
//     block-segment target is the group of one block.
//   - A rank-segment target (§3.3's third case) is one more stride whose
//     partner lives on the peer rank: it is the group's top member bit,
//     the rank's own blocks are one half of the group and the peer's
//     same-index blocks the other. Such a pass exchanges each group once,
//     not once per gate, and both ranks compute the pairs the rank-target
//     gates split.
//   - A ZZ unit needs no target: CNOT(u,v)·D(v)·CNOT(u,v), D diagonal
//     and uncontrolled (quantum.ZZUnit), multiplies each amplitude by
//     D's entry indexed by z_u ⊕ z_v and mixes nothing, so it runs in
//     place on every member whatever segments u and v lie in — one gate
//     of the pass (unitGate), one complex multiply per amplitude where
//     the triple made three passes over it, and no exchange. QAOA's cost
//     layer is one unit per edge.
//   - One walk per group (walk): decompress the members the pass reads,
//     apply all k gates in circuit order (an offset-target gate to each
//     member whose block index satisfies its block controls, a
//     block-target gate across each pair of members its stride
//     separates, a unit to every member), recompress the members some
//     gate acted on. A rank-segment pass swaps the crossing members with
//     the peer before its window, the first to the last rank-target
//     gate; without one the window is empty. A one-gate sweep is the
//     paper's gate-at-a-time pass, so the scheduler-off run uses the same
//     code, and so does a measurement's collapse (collapsePass).
//   - A noise channel's Pauli is a gate of the circuit the run executes
//     (noise.go): drawn before planning and spliced in after its gate, it
//     joins that gate's sweep on the gate's own target — X a swap, Y
//     real-imaginary, Z diagonal — and costs no pass of its own.
//
// Under the lossless codec the result is bit-identical to
// gate-at-a-time execution: every amplitude sees the same float
// operations in the same order, and decompress ∘ compress is exact, so
// eliding the round trips in between changes no bits. The class kernels
// (general, diagonal, swap, real-imaginary; gateClass) keep this, as a
// gate's class is its matrix's wherever it runs: a short form writes
// the general 2×2 with its zeros made +0 (the +0 rule). A ZZ unit keeps
// the weaker ±0 rule (both at apply): it equals the three gates in every
// nonzero component, and where its component is zero so is theirs, the
// sign aside — so a dense state keeps its bits. Under lossy
// codecs the state is truncated FEWER times — once per sweep instead of
// once per gate — and the fidelity ledger charges one (1-δ) factor per
// sweep, so the Eq. 11 bound only rises.
//
// On amd64 with AVX2 (vectorKernels) the four class loops and a unit's
// multiply (zero-entry units aside) run as assembly (kernel_amd64.s),
// two amplitudes a vector: the Go loops' multiplies, adds and subtracts
// in the Go loops' order, no fused multiply-add, and a short form's
// + 0 added as the Go loops add it, so their bits are the Go kernel's.
// Every other GOARCH, and the purego build tag, runs the Go loops alone;
// they round each product on its own (quantum.CMul), so no GOARCH fuses
// one into a multiply-add and every GOARCH writes the same bits.
//
// The memory budget holds at every sweep boundary, not "eventually":
// with tens of boundaries instead of hundreds, relaxing the bound one
// level and waiting for the next gate to recompress would leave the
// state resting above the budget when Run returns. A boundary that
// finds the resident footprint over budget escalates one level AND
// requantizes in place — a codec-only pass, decompress → compress at
// the new level, through the same pass and cache — and repeats until
// the state fits or the ladder is exhausted (then overBudget latches).
// Each requantize truncates the state once more, so it charges its own
// (1-δ) factor on top of the sweep's.

// planSweeps is the schedule the run loop iterates: maximal group sweeps
// unless DisableSweeps asks for the paper's one-gate schedule.
func (s *Simulator) planSweeps(gates []quantum.Gate) []quantum.GroupSweep {
	if !s.cfg.DisableSweeps {
		return quantum.PlanGroupSweeps(gates, s.offsetBits, s.blockBits, s.sweepWidth())
	}
	return quantum.SingletonSweeps(gates)
}

// groupSize is the most blocks a pass holds decompressed: a group of
// three block-segment targets, or of two and the rank-segment target
// (half of it the peer's).
const groupSize = 8

// sweepWidth is how many targets above the offset segment this
// simulator's sweeps may carry: three — groups of eight blocks. One —
// pair sweeps — when a memory budget can escalate
// the ladder: the at-rest rule settles the budget at sweep boundaries,
// and a group merges pair sweeps and the boundaries between them, where
// a state that had just grown past the budget would have been
// requantized before growing again. Without it the state overshoots
// further: an 18-qubit QFT from a basis state under a quarter-size
// budget (perf's qft-budget) peaked 48 % higher with 4-block groups on 7
// of its first 20 seeds. The width reads the budget alone — never
// Workers — so every rank, every variant of a batch and every worker
// count plans the same sweeps.
func (s *Simulator) sweepWidth() int {
	if s.cfg.budgeted() {
		return 1
	}
	return 3
}

// gateClass is the arithmetic a gate's matrix needs, read off its
// entries by exact equality — never off the gate's name, so a fused or
// user-supplied matrix qualifies exactly when its entries are exact.
type gateClass uint8

const (
	classGeneral  gateClass = iota // the full complex 2×2, 28 flops a pair
	classDiagonal                  // u01 == u10 == 0: one complex multiply per amplitude, 12 flops a pair
	classSwap                      // u00 == u11 == 0, u01 == u10 == 1: a copy
	classRealImag                  // a real diagonal, an imaginary off-diagonal (RX, Y): 12 flops a pair
	classUnit                      // a ZZ unit: one complex multiply per amplitude, by the entry its parity picks
)

func classify(u quantum.Matrix2) gateClass {
	switch {
	case u[0][1] == 0 && u[1][0] == 0:
		return classDiagonal
	case u[0][0] == 0 && u[1][1] == 0 && u[0][1] == 1 && u[1][0] == 1:
		return classSwap
	case imag(u[0][0]) == 0 && real(u[0][1]) == 0 && real(u[1][0]) == 0 && imag(u[1][1]) == 0:
		return classRealImag
	}
	return classGeneral
}

// passGate is one gate of a compiled pass, pre-split into the masks the
// kernel needs. tMask is the target's bit within a block, 0 for a gate
// that targets a block- or rank-segment qubit; mask is the offset bits
// that must be set in the index of the pair's high amplitude — the
// offset controls, plus tMask itself. flip is the member-index bit that
// separates the two blocks of each pair a block- or rank-segment target
// acts on, 0 for an offset target (its pair lies inside one member).
type passGate struct {
	tMask int
	mask  int
	flip  int
	// blkCtrl is the block-index bits that must be set for the gate to
	// fire; in a pass with a rank-segment target, bit nb (one above the
	// block bits) is a control on that rank bit, set in the index of the
	// group's members that live on the rank whose bit is 1.
	blkCtrl int
	class   gateClass
	u       quantum.Matrix2
	// par is a ZZ unit's (classUnit, see unitGate): it has no target, no
	// flip and no block controls, and multiplies every amplitude of a
	// member by u00 or u11, the middle gate's entries, as the parity
	// z_u ⊕ z_v is 0 or 1. The parity reads tMask in the offset (u's and
	// v's bits there, none, one or two) and par in the member's block
	// index; a rank bit decided on this rank has swapped the entries
	// already.
	par int
}

// newPassGate builds a gate whose block- or rank-segment target, if
// any, has block stride stride (nb for the rank target); flip holds the
// stride until newBlockPass knows the group and maps it to a member bit.
func newPassGate(u quantum.Matrix2, tMask, stride int, offCtrl uint64, blkCtrl int) passGate {
	return passGate{tMask: tMask, mask: int(offCtrl) | tMask, flip: stride, blkCtrl: blkCtrl, class: classify(u), u: u}
}

// blockPass is one group sweep compiled for one rank at one error
// level: the gates that fire on this rank, the group's members, and the
// cache key prefix. It is immutable once built and shared by the rank's
// workers, which walk its groups through passBlock.
type blockPass struct {
	key   passKey
	gates []passGate
	// span is the union of the block strides 2^(t-offsetBits) of the
	// gates' block-segment targets — and nb, one above every block bit,
	// for a rank-segment target: a block whose index has none of them
	// set is a group base. size is the member count, 2^popcount(span),
	// and member m of the group based at b is block b|sub[m] — bit k of
	// m selects the k-th lowest stride, so members go in index order and
	// a rank target's stride is the top member bit, size/2.
	span int
	size int
	sub  [groupSize]int
	// ctrlBits is the union of the gates' block controls and the ZZ
	// units' parity bits: the bits of a block index that decide which
	// gates fire there and what a unit multiplies by.
	ctrlBits int
	// cnots holds, per ZZ unit whose CNOTs fire on this rank, the
	// block-index bits that must be set for them to: the two gates of its
	// triple besides the middle one, which a unit counts where they fire
	// (reads). Its bits are parity bits, so they are in ctrlBits.
	cnots []int
	// This rank holds local of the group's members, from own on: local
	// member m is buffer own+m and block b|sub[m]. The window
	// gates[first..last] runs on the whole group. Without a rank-segment
	// target every member is local and the window is empty. With one, comm
	// reaches the peer rank holding the other half, own is 0 or size/2 as
	// the target bit is 0 or 1, and the window is the first to the last
	// rank-target gate.
	comm        mpi.Comm
	peer        int
	own, local  int
	first, last int
}

// newBlockPass lays out the members of the groups span's strides make,
// all of them local and the window empty, and turns each block- or
// rank-target gate's stride into its member bit.
func newBlockPass(key passKey, gates []passGate, span, ctrlBits int) *blockPass {
	p := &blockPass{key: key, gates: gates, span: span, size: 1, ctrlBits: ctrlBits}
	for rest := span; rest != 0; rest &= rest - 1 {
		for m := 0; m < p.size; m++ {
			p.sub[p.size+m] = p.sub[m] | rest&-rest
		}
		p.size *= 2
	}
	p.local, p.first, p.last = p.size, len(gates), len(gates)-1
	for i := range p.gates {
		if stride := p.gates[i].flip; stride != 0 {
			p.gates[i].flip = 1 << bits.OnesCount(uint(span&(stride-1)))
		}
	}
	return p
}

// compilePass builds the pass for a group sweep on this rank at the
// rank's current level, or nil when a rank-segment control silences
// every gate here (§3.3: the whole rank is unmodified). units are the
// sweep's ZZ units as the plan names them, each compiled to one gate
// (unitGate). A control on the rank bit the sweep's rank-segment target
// exchanges selects a half of each group, so it becomes block-control
// bit nb; any other rank control is decided here, and it is the same on
// both ranks of an exchanging pair, which differ in the target bit
// alone.
func (s *Simulator) compilePass(comm mpi.Comm, rs *rankState, gates []quantum.Gate, units []int) *blockPass {
	rankBase, nb := s.offsetBits+s.blockBits, s.blocksPerRank()
	isUnit := func(i int) bool { _, ok := slices.BinarySearch(units, i); return ok }
	tr := 0 // the rank bit a gate firing here exchanges (the planner allows one)
	for i := 0; i < len(gates); i++ {
		if isUnit(i) {
			i += 2
			continue
		}
		if _, _, rankCtrl := s.splitControls(gates[i].Controls); gates[i].Target >= rankBase && rs.id&rankCtrl == rankCtrl {
			tr = 1 << uint(gates[i].Target-rankBase)
			break
		}
	}
	pgs := make([]passGate, 0, len(gates))
	span, ctrlBits, first, last := 0, 0, -1, -1
	var cnots []int
	for i := 0; i < len(gates); i++ {
		if isUnit(i) {
			g, cx, fire := s.unitGate(rs, gates[i:i+3], tr)
			pgs = append(pgs, g)
			ctrlBits |= g.par
			if fire {
				cnots = append(cnots, cx)
			}
			i += 2
			continue
		}
		g := gates[i]
		offCtrl, blkCtrl, rankCtrl := s.splitControls(g.Controls)
		if rankCtrl&tr != 0 {
			rankCtrl &^= tr
			blkCtrl |= nb
		}
		if rs.id&rankCtrl != rankCtrl {
			continue
		}
		tMask, stride := 0, 0
		switch {
		case g.Target < s.offsetBits:
			tMask = 1 << uint(g.Target)
		case g.Target < rankBase:
			stride = 1 << uint(g.Target-s.offsetBits)
		default:
			stride = nb
			if first < 0 {
				first = len(pgs)
			}
			last = len(pgs)
		}
		span |= stride
		ctrlBits |= blkCtrl
		pgs = append(pgs, newPassGate(g.U, tMask, stride, offCtrl, blkCtrl))
	}
	if len(pgs) == 0 {
		return nil
	}
	p := newBlockPass(newPassKey(quantum.SweepSignature(gates), rs.level), pgs, span, ctrlBits)
	p.cnots = cnots
	if tr != 0 {
		p.comm, p.peer, p.local, p.first, p.last = comm, rs.id^tr, p.size/2, first, last
		if rs.id&tr != 0 {
			p.own = p.local
		}
	}
	return p
}

// unitGate compiles the ZZ unit CNOT(u,v)·D(v)·CNOT(u,v) on this rank
// (see passGate), tr the rank bit the pass exchanges, if any: its parity
// is on v and u (parity), and the CNOTs fire on this rank (fire) unless
// u is a rank bit that is 0 here; cx is the block-index bits they fire
// on. Like a rank target needs none, the unit needs no exchange.
func (s *Simulator) unitGate(rs *rankState, unit []quantum.Gate, tr int) (g passGate, cx int, fire bool) {
	u, v := unit[0].Controls[0], unit[0].Target
	g = passGate{class: classUnit, u: unit[1].U}
	s.parity(rs, &g, v, tr)
	cx, zero := s.parity(rs, &g, u, tr)
	return g, cx, !zero
}

// parity adds qubit q to the parity of unit g on this rank, tr the rank
// bit the pass exchanges, if any. An offset qubit joins g's tMask; a block
// bit, or bit nb for tr — a member bit, as a control on it is — is
// returned as q's bit in a member's block index and joins g.par; any
// other rank bit is decided here: 1 swaps g's entries, 0 (zero) leaves
// them.
func (s *Simulator) parity(rs *rankState, g *passGate, q, tr int) (bit int, zero bool) {
	switch r := q - s.offsetBits - s.blockBits; {
	case q < s.offsetBits:
		g.tMask |= 1 << uint(q)
	case r < 0:
		bit = 1 << uint(q-s.offsetBits)
	case 1<<uint(r) == tr:
		bit = s.blocksPerRank()
	case rs.id>>uint(r)&1 != 0:
		g.u[0][0], g.u[1][1] = g.u[1][1], g.u[0][0]
	default:
		zero = true
	}
	g.par |= bit
	return bit, zero
}

// collapsePass is a measurement's phase 3 on this rank: one unit whose
// entries u are the projector on the drawn outcome times 1/√keep and
// whose parity is on q alone. A rank qubit is decided here, so the pass
// has no exchange. Its key is the signature of the measurement gate
// carrying u, whose kind no unitary's key shares.
func (s *Simulator) collapsePass(rs *rankState, q int, u quantum.Matrix2) *blockPass {
	g := passGate{class: classUnit, u: u}
	s.parity(rs, &g, q, 0)
	sig := quantum.SweepSignature([]quantum.Gate{{Kind: quantum.KindMeasure, Target: q, U: u}})
	return newBlockPass(newPassKey(sig, rs.level), []passGate{g}, 0, g.par)
}

// scanPass is the pass of no gates over the blocks whose index has
// every bit of blkMask set, at error level lvl. With blkMask 0 it is the
// codec-only pass of the at-rest budget rule (settleBudget); measurement
// and sampling announce its visit order to a tiered store (hintPass).
func scanPass(lvl, blkMask int) *blockPass {
	return newBlockPass(newPassKey(quantum.SweepSignature(nil), lvl), nil, 0, blkMask)
}

// reads is what the pass reads at the group based at b. fired[m] is how
// many of the circuit's gates it applies to local member m: those whose
// block controls are all set in the member's index, a ZZ unit counting
// each gate of its triple that fires there (its CNOTs by cnots). A
// block-target gate's controls never include its own stride, so both
// members of each pair it acts on count it. read has bit m set where
// fired[m] > 0 or member m crosses to the peer (crossing); a member it
// does not read is not fetched, decoded or recompressed (§3.3: whole
// block unmodified). Both are functions of b&ctrlBits.
func (p *blockPass) reads(b int) (fired [groupSize]int, read int) {
	local := p.sub[p.own : p.own+p.local]
	switch {
	case len(p.gates) == 0: // scanPass
		if b&p.ctrlBits == p.ctrlBits {
			fired[0] = 1
		}
	case p.ctrlBits == 0:
		for m := range local {
			fired[m] = len(p.gates) + 2*len(p.cnots)
		}
	default:
		for i := range p.gates {
			c := p.gates[i].blkCtrl
			for m, sub := range local {
				if (b|sub)&c == c {
					fired[m]++
				}
			}
		}
		for _, c := range p.cnots {
			for m, sub := range local {
				if (b|sub)&c == c {
					fired[m] += 2
				}
			}
		}
	}
	read = p.crossing(b)
	for m, n := range fired {
		if n > 0 {
			read |= 1 << m
		}
	}
	return fired, read
}

// apply is the kernel: all of the pass's gates, in circuit order, on
// the decompressed group based at b (bufs[m] holds member m). An
// offset-target gate runs on each member it fires on; a block-target
// gate runs once per pair, from the member with its flip bit clear, on
// (member, member|flip) — and may be controlled on the group's other
// stride; a ZZ unit runs on every member. A member the pass does not
// read (reads) holds stale scratch and is neither read nor written.
//
// Each gate runs the loop of its class: one complex multiply per
// amplitude for a diagonal, a copy for a swap, the 2×2 over its real
// products alone for a real-imaginary matrix, else the full 2×2. The
// class never enters passKey, so its bytes are fixed by the +0 rule: a
// short form writes each component as r + 0, r its short result. A
// product the short form drops is an exact ±0 matrix component times a
// finite amplitude component, a signed zero (0·Inf would be NaN), and
// adding a signed zero changes no nonzero r; the swap's kept term is
// 1·x, whose components are x's plus signed zeros the same way. So r is
// the general 2×2's component wherever that is nonzero, and a zero,
// perhaps of the other sign, where it is zero; r + 0 keeps a nonzero r
// and makes every zero +0 (−0 + +0 == +0). A short form thus equals the
// general 2×2 with its zeros made +0, and needs no sign test and no
// fallback. The zeros matter: a block's blob, and with it the §3.4 cache
// line it keys and the lossless stage's dictionary, sees the sign bit,
// and a redundant state (Grover's ancillas) keeps its repeated blocks
// byte-equal only while its zeros have one sign. The general class
// writes the 2×2's own bits, whose "+ u·a" terms already turn most −0s
// back into +0.
//
// A ZZ unit keeps the ±0 rule instead: each of its components equals
// the three-gate reference's, CNOT·D·CNOT as general 2×2s, wherever
// either is nonzero, and where one is zero so is the other, perhaps of
// the other sign. Gate at a time, an amplitude x becomes d·x′ + 0·a, x′
// being x after the CNOT's swap and a the partner the middle gate's 2×2
// reads, then swaps back. The swaps and the dropped 0·a term change
// only the signs of zeros (the argument above), and d·x′ differs from
// the unit's d·x only where a product term is a signed zero, which
// moves no nonzero sum. The unit writes d·x as it is, with no + 0, so
// it may differ from gate-at-a-time in the sign of a zero component,
// never elsewhere. No dense state has a zero component, so its bits and
// blobs are gate-at-a-time's.
func (p *blockPass) apply(bufs [][]float64, b int) { p.applyTo(bufs, b, p.gates, 0, p.size) }

// applyTo is apply restricted to gates, a range of the pass's, and to
// the members [m0, m1): the whole group, or in a pass with a rank-segment
// target one rank's half of it.
func (p *blockPass) applyTo(bufs [][]float64, b int, gates []passGate, m0, m1 int) {
	for i := range gates {
		g := &gates[i]
		if g.class == classUnit {
			for m := m0; m < m1; m++ {
				g.unit(bufs[m], b|p.sub[m])
			}
			continue
		}
		for m := m0; m < m1; m++ {
			if m&g.flip == 0 && (b|p.sub[m])&g.blkCtrl == g.blkCtrl {
				g.kernel(bufs[m], bufs[m|g.flip])
			}
		}
	}
}

// runLen is the stride of the controlled-offset walk every kernel
// shares: the offsets below n whose bits include mask, in increasing
// order, are the runs [v, v+runLen) for v := mask; v < n; v =
// (v+runLen)|mask — runLen the lowest set bit of mask, all of n for an
// empty mask. No offset is tested and rejected.
func runLen(mask, n int) int {
	if mask == 0 {
		return n
	}
	return mask & -mask
}

// kernel applies the gate to the amplitude pairs (lo[v-tMask], hi[v])
// for every offset v that includes g.mask: lo and hi are one block for
// an offset target, the block pair (tMask == 0) for the block-segment
// target. Each run is a pair of equal-length windows: the control test
// and the slice arithmetic are paid per run, not per pair.
//
// With vectorKernels every class runs as one assembly call per gate and
// member, two pairs a vector, which walks the runs itself — runs of one
// pair two at a time, or, with the target on qubit 0, the pair one
// vector — and adds a short form's + 0 inside the vector.
func (g *passGate) kernel(lo, hi []float64) {
	if !vectorKernels {
		g.kernelGo(lo, hi)
		return
	}
	switch g.class {
	case classGeneral:
		generalVec(lo, hi, g.mask, g.tMask, &g.u)
	case classDiagonal:
		diagonalVec(lo, hi, g.mask, g.tMask, &g.u)
	case classSwap:
		swapVec(lo, hi, g.mask, g.tMask, &g.u)
	case classRealImag:
		realImagVec(lo, hi, g.mask, g.tMask, &g.u)
	}
}

// kernelGo is kernel's Go loops: the specification of every class's
// bits.
func (g *passGate) kernelGo(lo, hi []float64) {
	t, mask, end := g.tMask, g.mask, len(hi)/2
	n := runLen(mask, end)
	switch g.class {
	case classDiagonal:
		u00, u11 := g.u[0][0], g.u[1][1]
		for v := mask; v < end; v = (v + n) | mask {
			l, h := window(lo, hi, v, t, n)
			for i := 1; i < len(l); i += 2 {
				n0 := quantum.CMul(complex(l[i-1], l[i]), u00)
				n1 := quantum.CMul(complex(h[i-1], h[i]), u11)
				l[i-1], l[i] = real(n0)+0, imag(n0)+0
				h[i-1], h[i] = real(n1)+0, imag(n1)+0
			}
		}
	case classSwap:
		for v := mask; v < end; v = (v + n) | mask {
			l, h := window(lo, hi, v, t, n)
			for i := 1; i < len(l); i += 2 {
				x0, y0, x1, y1 := l[i-1], l[i], h[i-1], h[i]
				l[i-1], l[i] = x1+0, y1+0
				h[i-1], h[i] = x0+0, y0+0
			}
		}
	case classRealImag:
		r00, s01, s10, r11 := real(g.u[0][0]), imag(g.u[0][1]), imag(g.u[1][0]), real(g.u[1][1])
		for v := mask; v < end; v = (v + n) | mask {
			l, h := window(lo, hi, v, t, n)
			for i := 1; i < len(l); i += 2 {
				x0, y0, x1, y1 := l[i-1], l[i], h[i-1], h[i]
				l[i-1], l[i] = float64(r00*x0)-float64(s01*y1)+0, float64(r00*y0)+float64(s01*x1)+0
				h[i-1], h[i] = float64(r11*x1)-float64(s10*y0)+0, float64(r11*y1)+float64(s10*x0)+0
			}
		}
	default:
		u00, u01, u10, u11 := g.u[0][0], g.u[0][1], g.u[1][0], g.u[1][1]
		for v := mask; v < end; v = (v + n) | mask {
			l, h := window(lo, hi, v, t, n)
			for i := 1; i < len(l); i += 2 {
				a0 := complex(l[i-1], l[i])
				a1 := complex(h[i-1], h[i])
				n0 := quantum.CMul(a0, u00) + quantum.CMul(a1, u01)
				n1 := quantum.CMul(a0, u10) + quantum.CMul(a1, u11)
				l[i-1], l[i] = real(n0), imag(n0)
				h[i-1], h[i] = real(n1), imag(n1)
			}
		}
	}
}

// unitRun is the shortest run of one parity a unit scales as a slice:
// below it the per-run slicing costs more than the multiplies, and
// unit picks each amplitude's entry from a two-entry table instead,
// two amplitudes at a time.
const unitRun = 4

// unit is a ZZ unit's kernel on the member whose block index is blk:
// amplitude o times d[p], p the parity of o's bits in tMask and blk's in
// par — u00 where z_u ⊕ z_v is 0, u11 where it is 1. The amplitudes of
// one parity come in runs of tMask's lowest bit, the whole block when
// neither u nor v is an offset qubit. It is the multiply gate-at-a-time's
// middle gate applies after the CNOT's exact swap, with no + 0, which
// is the ±0 rule (see apply). An entry of 0 — a collapse's
// (collapsePass), or any zero-entry unit — writes its runs exact +0,
// not 0·x, whose zeros carry signs, so an amplitude a collapse drops is
// the zero Reset installs and a dropped block compresses to its blob.
// With vectorKernels a unit with no zero entry is one assembly call
// (unitVec) whatever its run length; a zero-entry unit stays Go.
func (g *passGate) unit(x []float64, blk int) {
	d := [2]complex128{g.u[0][0], g.u[1][1]}
	if bits.OnesCount(uint(blk&g.par))&1 != 0 {
		d[0], d[1] = d[1], d[0]
	}
	t := g.tMask
	n := runLen(t, len(x)/2) // amplitudes in a run
	if vectorKernels && len(x) >= 8 && d[0] != 0 && d[1] != 0 {
		// One assembly call whatever the run length: runs of one
		// amplitude take the table's pair [d[p], d[p^1]] two at a time,
		// longer runs d[p] throughout, and t == 0 is one run of d[0].
		f := t & 1
		unitVec(x, t, max(n, 2), &[2][2]complex128{{d[0], d[f]}, {d[1], d[1^f]}})
		return
	}
	if n < unitRun && t != 0 && d[0] != 0 && d[1] != 0 {
		// Amplitudes 2j and 2j+1 a step, x[i] the latter's last float: the
		// two differ in parity when n is 1.
		f := t & 1
		for i := 3; i < len(x); i += 4 {
			p := bits.OnesCount(uint(i>>1&^1&t)) & 1 // amplitude 2j's
			a0 := quantum.CMul(complex(x[i-3], x[i-2]), d[p])
			a1 := quantum.CMul(complex(x[i-1], x[i]), d[p^f])
			x[i-3], x[i-2], x[i-1], x[i] = real(a0), imag(a0), real(a1), imag(a1)
		}
		return
	}
	for o := 0; 2*o < len(x); o += n {
		run := x[2*o : 2*(o+n)]
		if dd := d[bits.OnesCount(uint(o&t))&1]; dd != 0 {
			scale(run, dd)
		} else {
			clear(run)
		}
	}
}

// scale multiplies the amplitudes of x by d.
func scale(x []float64, d complex128) {
	for i := 1; i < len(x); i += 2 {
		a := quantum.CMul(complex(x[i-1], x[i]), d)
		x[i-1], x[i] = real(a), imag(a)
	}
}

// window cuts run v out of lo and hi: n pairs each, lo's t offsets lower.
func window(lo, hi []float64, v, t, n int) (l, h []float64) {
	l = lo[2*(v-t) : 2*(v-t+n)]
	return l, hi[2*v : 2*(v+n)][:len(l)]
}

// passMemo is what a pass consults before paying the codec: the rank's
// §3.4 block cache for one variant, the per-pass cross-variant memo for
// K > 1 (see runPass). get counts its own lookups and hits in st. A get
// that misses is answered by exactly one put for the same key, carrying
// the outputs or the error that kept them from existing: the batch memo
// parks later arrivals on that key until then, and err is what it hands
// them (the block cache never waits and never fails).
type passMemo interface {
	enabled() bool
	get(k blockKey, st *Stats) (out [groupSize][]byte, ok bool, err error)
	put(k blockKey, out [groupSize][]byte, err error)
}

// passBlock runs pass p on the group based at block b: fetch the local
// members it reads, short-circuit through the memo, otherwise walk the
// group in w's scratch. Codec and compute time are charged to st, the
// (worker, variant) shard. A failed fetch still exchanges, as walk does.
func (s *Simulator) passBlock(rs *rankState, p *blockPass, memo passMemo, w *workerState, st *Stats, b int) error {
	if b&p.span != 0 {
		return nil // not a group base: visited with its base
	}
	fired, read := p.reads(b)
	if read == 0 {
		return nil
	}
	in, err := fetch(rs.store.Get, p, b, read)
	if err != nil {
		p.exchange(w.group(p.size), b)
		return err
	}
	return s.passGroup(rs, p, memo, w, st, b, fired, read, in)
}

// fetch reads through get (the store's Get; Peek for a fork capture;
// hintPass's recorder) local member m's blob into in[m] for each m that
// read names, nil for the others.
func fetch(get func(int) ([]byte, error), p *blockPass, b, read int) (in [groupSize][]byte, err error) {
	for m := range p.local {
		if read>>m&1 != 0 {
			if in[m], err = get(b | p.sub[m]); err != nil {
				return in, err
			}
		}
	}
	return in, nil
}

// passGroup is passBlock once the group's inputs are fetched.
func (s *Simulator) passGroup(rs *rankState, p *blockPass, memo passMemo, w *workerState, st *Stats, b int, fired [groupSize]int, read int, in [groupSize][]byte) error {
	var key blockKey
	cached := memo.enabled()
	if cached {
		key = p.key.block(b&p.ctrlBits, in)
		out, ok, err := memo.get(key, st)
		if err != nil {
			return err
		}
		if ok {
			return storeGroup(rs, p, b, out)
		}
	}
	out, err := s.walk(p, w, st, b, fired, read, in)
	if cached {
		// Before the store: a batch memo has workers parked on this key.
		memo.put(key, out, err)
	}
	if err != nil {
		return err
	}
	if err := storeGroup(rs, p, b, out); err != nil {
		return err
	}
	noteSaved(fired, st)
	return nil
}

// walk is the pass on the group based at b, in w's scratch: decode the
// inputs, apply the gates before the window to the local members,
// exchange, apply the window to the whole group and the rest to the
// local members, recompress what fired. A failed decode still
// exchanges, so the peer's SendRecvs stay paired.
func (s *Simulator) walk(p *blockPass, w *workerState, st *Stats, b int, fired [groupSize]int, read int, in [groupSize][]byte) (out [groupSize][]byte, err error) {
	bufs := w.group(p.size)
	if err := s.decodeGroup(p, bufs, read, in, st); err != nil {
		p.exchange(bufs, b)
		return out, err
	}
	m0, m1 := p.own, p.own+p.local
	w.kernel(p, bufs[:], b, p.gates[:p.first], m0, m1, st)
	p.exchange(bufs, b)
	w.kernel(p, bufs[:], b, p.gates[p.first:p.last+1], 0, p.size, st)
	w.kernel(p, bufs[:], b, p.gates[p.last+1:], m0, m1, st)
	return s.encodeGroup(p, bufs, fired, st)
}

// decodeGroup decodes in[m] into buffer own+m for each m read names.
func (s *Simulator) decodeGroup(p *blockPass, bufs [groupSize][]float64, read int, in [groupSize][]byte, st *Stats) error {
	for m := range p.local {
		if read>>m&1 != 0 {
			if err := s.decompressBlock(in[m], bufs[p.own+m], st); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeGroup recompresses the local members of a decoded group that
// some gate of p acted on, at p's level.
func (s *Simulator) encodeGroup(p *blockPass, bufs [groupSize][]float64, fired [groupSize]int, st *Stats) (out [groupSize][]byte, err error) {
	for m, n := range fired {
		if n > 0 {
			if out[m], err = s.compressBlock(p.key.level, bufs[p.own+m], st); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// storeGroup puts a group's output blobs, nil for a member left alone.
func storeGroup(rs *rankState, p *blockPass, b int, out [groupSize][]byte) error {
	for m, blob := range out {
		if blob != nil {
			if err := rs.store.Put(b|p.sub[m], blob); err != nil {
				return err
			}
		}
	}
	return nil
}

// noteSaved charges st the round trips a computed group elided versus
// gate-at-a-time: every gate after the first that fired on a member.
func noteSaved(fired [groupSize]int, st *Stats) {
	for _, n := range fired {
		st.CodecPassesSaved += int64(max(n-1, 0))
	}
}

// runPass fans one group sweep — passes[v] on sims[v] — over rank r's
// blocks on the lead's worker pool and records each variant's level for
// the fidelity ledger, as truncation number round of the boundary after
// its gate gi[v]. The lead is the first variant with a pass: a variant
// whose pass is nil (compilePass) runs nothing and charges nothing. The
// work unit is (block, variant): K·nb indices go
// through the one forEach, each decoding to the passBlock call a solo
// run of that variant would make, in whichever worker's scratch claims
// it — so a batch of many variants over few blocks (a gradient on a
// small register is 79 variants of ONE pair) still fills the pool.
// The order is variant-major: while the variants have not diverged, the
// leaders of the batch memo's keys are the lead's blocks, which come
// first and spread across the workers. Codec calls are charged to the
// variant that issued them; a memo hit charges the saved variant's
// CodecPassesShared instead — which variant of an undiverged group pays
// depends on the schedule, the totals over the batch do not. A variant
// whose gates part from the lead's inside the pass runs as a fork of
// the lead's walk instead (forkPlan), in units of its own placed first.
//
// A pass with a rank-segment target goes variant by variant instead,
// each through exchangePass: the same passBlock per group, but its
// SendRecvs must pair with the peer's in order, so it runs in block
// order on one worker and consults no memo. Which variants exchange is
// the same on both ranks of a pair; they go first, in variant order, and
// the others then fan out together.
func runPass(sims []*Simulator, r int, passes []*blockPass, gi []int, round int) error {
	for v, s := range sims {
		if p := passes[v]; p != nil {
			s.hintPass(s.ranks[r], p)
		}
	}
	var err error
	if !slices.ContainsFunc(passes, runsAlone) {
		err = fanOutPass(sims, r, passes)
	} else {
		var fan []*Simulator
		var fanPasses []*blockPass
		err = eachVariant(sims, func(v int, s *Simulator) error {
			switch p := passes[v]; {
			case p == nil:
			case p.comm != nil:
				return s.exchangePass(s.ranks[r], p)
			default:
				fan, fanPasses = append(fan, s), append(fanPasses, p)
			}
			return nil
		})
		if err == nil && len(fan) > 0 {
			err = fanOutPass(fan, r, fanPasses)
		}
	}
	if err != nil {
		return err
	}
	for v, s := range sims {
		if p := passes[v]; p != nil {
			s.noteLevel(s.ranks[r], gi[v], round, p.key.level)
		}
	}
	return nil
}

// runsAlone reports whether a variant's pass stays out of runPass's
// shared fan-out: it exchanges, or there is none.
func runsAlone(p *blockPass) bool { return p == nil || p.comm != nil }

// fanOutPass is runPass for a pass without a rank-segment target.
func fanOutPass(sims []*Simulator, r int, passes []*blockPass) error {
	K := len(sims)
	s0 := sims[0]
	rs0 := s0.ranks[r]
	// Which memo is something the pass observes, not a knob: one variant
	// consults its rank's §3.4 block cache, K > 1 a per-pass memo that
	// turns undiverged variants into shared blobs — it subsumes the
	// block cache within a pass, and feeding K variants' traffic through
	// one LRU would thrash its probation logic.
	var memo passMemo = rs0.cache
	var forks *forkPlan
	if K > 1 {
		memo = newBatchMemo()
		var err error
		if forks, err = planForks(rs0, passes); err != nil {
			return err
		}
	}
	// Per-worker, per-variant stat shards (the pool's own worker shards
	// would attribute every variant's codec work to variant 0).
	shards := make([]Stats, len(rs0.workers)*K)
	// nb is a power of two, so index i is unit i>>blockBits, block
	// i&(nb-1): the fork chunks' units first, then variant v's — for
	// K = 1, (0, i), with no division and no second loop.
	shift, blockMask := uint(s0.blockBits), s0.blocksPerRank()-1
	chunks := forks.len()
	err := s0.forEach(rs0, (chunks+K)*s0.blocksPerRank(), func(w *workerState, i int) error {
		u, b := i>>shift, i&blockMask
		if u < chunks {
			return forks.run(sims, r, passes, memo, w, shards, u, b)
		}
		v := u - chunks
		if forks.owns(v) {
			return nil // run by its chunk
		}
		s := sims[v]
		return s.passBlock(s.ranks[r], passes[v], memo, w, &shards[w.id*K+v], b)
	})
	for i := range shards {
		sims[i%K].ranks[r].stats.merge(shards[i])
	}
	return err
}

// forkPlan is how a batch pass runs the variants whose gates part from
// variant 0's — the pass's lead (runPass) — inside it: a parameter-shift
// batch is K−1 of them, each with its own angle on one gate; a noisy
// batch those with a Pauli where variant 0 has none, or another one.
// Variant v's divergence point at[v]
// is the first gate where its compiled pass differs from variant 0's
// (divergence); up to there the two apply the same float operations, so
// where v's input blobs at a group are variant 0's, v's outputs are
// variant 0's group decoded, walked through gates [0, at[v]), copied,
// and walked through v's own remaining gates. A chunk of forks, taken in
// divergence order, shares one decode of variant 0's inputs and one walk
// of its prefix, so the shared gates run once per chunk, not once per
// variant; every amplitude still sees the float operations of its solo
// run, bit for bit.
//
// Variants equal to variant 0 on every gate keep the batch memo, which
// shares their whole pass; a variant that differs at gate 0, or reads
// other members than variant 0 at some group, shares nothing and runs
// its own units.
type forkPlan struct {
	at     []int   // per variant: its divergence point, 0 for a variant the plan does not own
	own    []bool  // per variant: it fires otherwise than variant 0 (sameFired)
	chunks [][]int // the forks in divergence order, split into work units
	// in0 is variant 0's input blobs per group base, read before the
	// fan-out: variant 0's own units overwrite its slots while the chunks
	// still need what they held.
	in0 [][groupSize][]byte
}

// A pass's forks are split into at most forkChunks work units per
// group, and into no more than one per forksPerChunk forks. The split
// reads the batch alone — never Workers — so every codec counter is a
// function of the batch. Each chunk repeats the decode of variant 0's inputs and the
// walk of its prefix up to the chunk's last fork: more chunks buy
// parallelism with repeated work, and a chunk of one fork saves nothing
// over a solo run. Eight chunks fill a small pool while repeating 184
// gates, against the 2 261 a parameter-shift batch of 79 variants on a
// 52-gate pass (a 104-gate QAOA layer, its 26 ZZ triples one gate each)
// saves.
const (
	forkChunks    = 8
	forksPerChunk = 4
)

// planForks finds the variants of a batch pass that run as forks of
// variant 0, or returns nil when none does.
func planForks(rs0 *rankState, passes []*blockPass) (*forkPlan, error) {
	p0 := passes[0]
	f := &forkPlan{at: make([]int, len(passes)), own: make([]bool, len(passes))}
	var order []int
	for v, p := range passes[1:] {
		if d := divergence(p0, p, rs0.store.Len()); d > 0 {
			f.at[v+1], f.own[v+1] = d, !sameFired(p0, p, d)
			order = append(order, v+1)
		}
	}
	if len(order) == 0 {
		return nil, nil
	}
	slices.SortStableFunc(order, func(a, b int) int { return f.at[a] - f.at[b] })
	// Chunks of about equal work: a fork costs the gates it runs alone.
	alone := func(v int) int { return len(passes[v].gates) - f.at[v] }
	total := 0
	for _, v := range order {
		total += alone(v)
	}
	chunks := min(forkChunks, (len(order)+forksPerChunk-1)/forksPerChunk)
	target := max(1, (total+chunks-1)/chunks)
	for start, sum, i := 0, 0, 0; i < len(order); i++ {
		if sum += alone(order[i]); sum >= target || i == len(order)-1 {
			f.chunks = append(f.chunks, order[start:i+1])
			start, sum = i+1, 0
		}
	}
	f.in0 = make([][groupSize][]byte, rs0.store.Len())
	for b := range f.in0 {
		if b&p0.span != 0 {
			continue
		}
		_, read := p0.reads(b)
		var err error
		if f.in0[b], err = fetch(rs0.store.Peek, p0, b, read); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// divergence is the gate at which pass p leaves pass lead, on a rank of
// nb blocks: the length of their common prefix, gates equal in what they
// act on and in their matrix bits (the class is read off them). It is 0
// where p cannot fork off lead's walk — the prefix is empty, the passes
// walk other groups, or p reads other members than lead somewhere, which
// a fork's copy of lead's group would not hold — and where p equals lead
// outright, which the batch memo shares whole.
func divergence(lead, p *blockPass, nb int) int {
	if lead.span != p.span {
		return 0
	}
	d := 0
	for d < min(len(lead.gates), len(p.gates)) && sameGate(&lead.gates[d], &p.gates[d]) {
		d++
	}
	if d == 0 || d == len(lead.gates) && d == len(p.gates) || !sameReads(lead, p, d, nb) {
		return 0
	}
	return d
}

// sameReads reports whether passes lead and p, equal on gates [0, d),
// read the same members at every group base of a rank of nb blocks. A
// pass without block controls reads every member, and passes that fire
// alike (sameFired) read alike — a parameter-shift batch's, which part
// in angles alone; only a pass that gained or lost a block-controlled
// gate (a noise Pauli after one) is compared group by group.
func sameReads(lead, p *blockPass, d, nb int) bool {
	if lead.ctrlBits == 0 && p.ctrlBits == 0 || sameFired(lead, p, d) {
		return true
	}
	for b := range nb {
		if b&lead.span == 0 {
			_, rl := lead.reads(b)
			_, rp := p.reads(b)
			if rl != rp {
				return false
			}
		}
	}
	return true
}

// sameFired reports whether passes lead and p, equal on gates [0, d),
// fire alike (reads): as many gates, the same block controls on those
// from d on, and ZZ units firing on the same bits.
func sameFired(lead, p *blockPass, d int) bool {
	if len(lead.gates) != len(p.gates) || !slices.Equal(lead.cnots, p.cnots) {
		return false
	}
	for i := d; i < len(p.gates); i++ {
		if lead.gates[i].blkCtrl != p.gates[i].blkCtrl {
			return false
		}
	}
	return true
}

// sameGate reports whether two compiled gates act on the same amplitudes
// with the same matrix bits.
func sameGate(a, b *passGate) bool {
	return a.class == b.class && a.tMask == b.tMask && a.mask == b.mask && a.flip == b.flip &&
		a.blkCtrl == b.blkCtrl && a.par == b.par && sameMatrix(a.u, b.u)
}

// sameMatrix compares two matrices bit for bit (−0 is not +0).
func sameMatrix(a, b quantum.Matrix2) bool {
	for i := range 2 {
		for j := range 2 {
			if math.Float64bits(real(a[i][j])) != math.Float64bits(real(b[i][j])) ||
				math.Float64bits(imag(a[i][j])) != math.Float64bits(imag(b[i][j])) {
				return false
			}
		}
	}
	return true
}

// len is the number of fork chunks, 0 for no plan.
func (f *forkPlan) len() int {
	if f == nil {
		return 0
	}
	return len(f.chunks)
}

// owns reports whether variant v runs in a fork chunk.
func (f *forkPlan) owns(v int) bool { return f != nil && f.at[v] > 0 }

// run is fork chunk c's unit at the group based at b. A variant whose
// inputs there are not variant 0's bytes runs its own pass through
// passGroup first — a byte compare, which a blob shared with variant 0
// passes at its pointer and a blob read back from a spill file by its
// contents, so the choice reads the state alone, never the schedule.
// The rest fork off one walk of variant 0's group, in divergence order:
// decode variant 0's inputs once (charged to the first fork), then per
// fork apply variant 0's gates up to its divergence point, copy the
// group into the fork scratch, apply the fork's own gates from there,
// and recompress its members at its level. A batch pass has no rank
// target: every member is local.
func (f *forkPlan) run(sims []*Simulator, r int, passes []*blockPass, memo passMemo, w *workerState, shards []Stats, c, b int) error {
	p0, K := passes[0], len(sims)
	if b&p0.span != 0 {
		return nil // not a group base: visited with its base
	}
	fired0, read := p0.reads(b) // every fork's read too (divergence)
	if read == 0 {
		return nil
	}
	firedOf := func(v int) [groupSize]int {
		if f.own[v] {
			n, _ := passes[v].reads(b)
			return n
		}
		return fired0
	}
	forks := make([]int, 0, len(f.chunks[c]))
	for _, v := range f.chunks[c] {
		s, rs := sims[v], sims[v].ranks[r]
		in, err := fetch(rs.store.Get, passes[v], b, read)
		if err != nil {
			return err
		}
		same := true
		for m := range in {
			same = same && bytes.Equal(in[m], f.in0[b][m])
		}
		if same {
			forks = append(forks, v)
			continue
		}
		if err := s.passGroup(rs, passes[v], memo, w, &shards[w.id*K+v], b, firedOf(v), read, in); err != nil {
			return err
		}
	}
	if len(forks) == 0 {
		return nil
	}
	lead, fork := w.group(p0.size), w.forkGroup(p0.size)
	if err := sims[0].decodeGroup(p0, lead, read, f.in0[b], &shards[w.id*K+forks[0]]); err != nil {
		return err
	}
	walked := 0
	for _, v := range forks {
		s, p, st, d := sims[v], passes[v], &shards[w.id*K+v], f.at[v]
		w.kernel(p0, lead[:], b, p0.gates[walked:d], 0, p0.size, st)
		walked = d
		for m := range p0.size {
			if read>>m&1 != 0 {
				copy(fork[m], lead[m])
			}
		}
		w.kernel(p, fork[:], b, p.gates[d:], 0, p.size, st)
		fired := firedOf(v)
		out, err := s.encodeGroup(p, fork, fired, st)
		if err != nil {
			return err
		}
		if err := storeGroup(s.ranks[r], p, b, out); err != nil {
			return err
		}
		noteSaved(fired, st)
	}
	return nil
}

// crossing returns, one bit per local member of the group based at b,
// the pairs a pass exchanges: those on which a gate of the window acts
// on either half, none for an empty window. Only the window runs on the
// peer's half, and each pair it touches must hold the peer's values
// there — a block-target gate between two rank-target gates can join a
// pair no rank-target gate fires on to one it does.
// Controls are all "bit set", so a gate that acts on a member acts on
// its twin in the half whose index has bit nb set, and that half alone
// is tested. Both ranks of the pair compute the same bits, so every
// SendRecv is paired.
func (p *blockPass) crossing(b int) (cross int) {
	top := p.size / 2
	for i := p.first; i <= p.last; i++ {
		c := p.gates[i].blkCtrl
		for m := 0; m < top; m++ {
			if (b|p.sub[top+m])&c == c {
				cross |= 1 << m
			}
		}
	}
	return cross
}

// exchange swaps each crossing member of the group based at b, dense,
// with its twin: the same-index member of the peer's half.
func (p *blockPass) exchange(bufs [groupSize][]float64, b int) {
	cross := p.crossing(b)
	for m := range p.local {
		if cross>>m&1 != 0 {
			p.comm.SendRecv(p.peer, bufs[p.own+m], bufs[p.own^p.local+m])
		}
	}
}

// exchangePass runs a pass with a rank-segment target on rank rs (§3.3's
// third case): passBlock per group, in block order, on the rank's first
// worker, with no memo, so every SendRecv pairs with the peer's. A
// failure must not end the walk: the peer would block forever in
// SendRecv while this rank sat at the sweep error barrier. After the
// first error the rank only exchanges the remaining groups (sending
// whatever is in scratch), and the barrier stops all ranks.
func (s *Simulator) exchangePass(rs *rankState, p *blockPass) error {
	w := rs.w0()
	var err error
	for b := 0; b < s.blocksPerRank(); b++ {
		if err == nil {
			err = s.passBlock(rs, p, (*blockCache)(nil), w, &rs.stats, b)
		} else if b&p.span == 0 {
			p.exchange(w.group(p.size), b)
		}
	}
	return err
}

// hintPass announces the pass's visit order — the blocks fetch asks for,
// group by group — to a tiered store so its prefetcher can stage
// spilled blobs ahead of the pass. The in-RAM store wants no hints and
// the order is never built.
func (s *Simulator) hintPass(rs *rankState, p *blockPass) {
	if !rs.store.WantHints() {
		return
	}
	nb := s.blocksPerRank()
	order := make([]int, 0, nb)
	visit := func(blk int) ([]byte, error) {
		order = append(order, blk)
		return nil, nil
	}
	for b := 0; b < nb; b++ {
		if b&p.span == 0 {
			_, read := p.reads(b)
			fetch(visit, p, b, read)
		}
	}
	rs.store.PrefetchHint(order)
}

// escalate is the sweep-boundary footprint accounting: it samples the
// MaxFootprint high-water mark and, when the bytes resident in RAM
// exceed the memory budget, relaxes the error bound one level (§3.7)
// and reports true — the caller then requantizes at the new level and
// asks again. With the ladder exhausted it latches overBudget instead.
// Deciding once per boundary — never inside a block update — keeps
// escalation timing, every compressed bit and the Table 2 peak
// independent of the worker interleaving.
//
// With the tiered store the ladder gains its spill rung: the store has
// been evicting cold blobs to disk throughout the pass, so a state
// whose compressed size exceeds the budget but fits on disk never
// escalates at all. Only when the resident set itself cannot be held
// under the budget (spill disabled, a spill RAM budget above the memory
// budget, a single blob larger than it) does the ladder take over.
func (s *Simulator) escalate(rs *rankState) bool {
	s.sampleFootprint(rs)
	if !s.cfg.budgeted() || rs.stats.ResidentFootprint <= s.cfg.MemoryBudget {
		return false
	}
	if rs.level == len(s.cfg.ErrorLevels) {
		rs.overBudget = true
		return false
	}
	rs.level++
	rs.stats.Escalations++
	return true
}

// settleBudget enforces the at-rest budget rule at the boundary after
// gate gi: escalate and requantize until the state fits or no level is
// left. Requantize number n is the boundary's truncation round n — the
// sweep itself was round 0 — so each charges its own ledger factor.
func (s *Simulator) settleBudget(rs *rankState, gi int) error {
	for round := 1; s.escalate(rs); round++ {
		if err := runPass([]*Simulator{s}, rs.id, []*blockPass{scanPass(rs.level, 0)}, []int{gi}, round); err != nil {
			return err
		}
	}
	return nil
}
