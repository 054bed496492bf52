package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"qcsim/internal/quantum"
)

// Pauli-Z expectation values over the compressed state: the diagonal
// observables variational workloads (QAOA, VQE) read out — ⟨Z_q⟩,
// two-point correlators ⟨Z_a Z_b⟩ and the MAXCUT energies they sum to —
// without sampling.

// DiagonalExpectation evaluates Σ W·⟨Z_Q⟩ + Σ W·⟨Z_A Z_B⟩ in one read
// of the compressed blocks, however many terms there are. It is the
// K = 1 case of DiagonalExpectations.
//
// The value is computed against the stored state as-is: Σ w(idx)·|a|²
// with no renormalization of lossy norm drift, so ⟨Z_q⟩ is P(q=0) −
// P(q=1) of the stored amplitudes, not 1 − 2·P(q=1).
func (s *Simulator) DiagonalExpectation(zs []quantum.ZTerm, zzs []quantum.ZZTerm) (float64, error) {
	es, err := DiagonalExpectations([]*Simulator{s}, zs, zzs)
	if err != nil {
		return 0, err
	}
	return es[0], nil
}

// parityTerm is one Z or ZZ term: +W where the global index has even
// parity under mask (Z_Q reads +1 on bit 0, Z_A·Z_B on agreeing bits),
// −W where odd. off is the index of mask's offset bits among the call's
// distinct offset masks.
type parityTerm struct {
	mask uint64
	w    float64
	off  int
}

// DiagonalExpectations evaluates one diagonal observable on K states of
// one configuration (a RunBatch's variants, which share their codecs):
// energy v is what sims[v].DiagonalExpectation returns, bit for bit.
//
// The walk is block-index-first, and each variant folds its blocks into
// one running sum in global block order, so the value is the same bits
// at every worker and rank count. Per (rank, block) the K variants fan
// out over variant 0's worker pool and read through one blobReader for
// the whole call. A block is read in one of two ways, picked by its own
// variant's state alone, so a variant gives the same bits read alone:
//   - A compact blob the variant stores at two or more blocks (a zero
//     block, a block of a redundant state) is a function of its bytes,
//     so it decodes once per call, byte-equal blobs of every rank and
//     variant sharing it, into one signed mass per distinct offset mask
//     m among the terms: Sₘ = Σₒ ±|aₒ|² in offset order, − where o has
//     odd parity under m. A term's sign at base|o is its sign on the
//     block and rank bits of base times its sign on o, so the block adds
//     Σₜ ±Wₜ·S[off(t)], in term order, without a decode. A first pass
//     over the variants' blobs, Peeked in global block order, finds them.
//   - Any other blob decodes into the reader's buffer and continues the
//     variant's sum in offset order against the block's table w[o] =
//     Σ ±W, filled term-major before the fan-out and shared by the
//     variants: a batch prices its terms once per block, not once per
//     amplitude per variant, whether its blobs are compact or not.
func DiagonalExpectations(sims []*Simulator, zs []quantum.ZTerm, zzs []quantum.ZZTerm) ([]float64, error) {
	if len(sims) == 0 {
		return nil, nil
	}
	s0 := sims[0]
	for v, s := range sims {
		// The memo keys on blob bytes, not on who wrote them: one
		// variant's signed masses serve another only under one codec.
		if !sameBatchConfig(s, s0) {
			return nil, fmt.Errorf("%w: variant %d configuration differs from variant 0", ErrBatchMismatch, v)
		}
	}
	terms := make([]parityTerm, 0, len(zs)+len(zzs))
	for _, t := range zs {
		if t.Q < 0 || t.Q >= s0.cfg.Qubits {
			return nil, fmt.Errorf("core: invalid qubit %d in Z term", t.Q)
		}
		terms = append(terms, parityTerm{mask: 1 << uint(t.Q), w: t.W})
	}
	for _, t := range zzs {
		if t.A < 0 || t.A >= s0.cfg.Qubits || t.B < 0 || t.B >= s0.cfg.Qubits || t.A == t.B {
			return nil, fmt.Errorf("core: invalid qubit pair (%d, %d) in ZZ term", t.A, t.B)
		}
		terms = append(terms, parityTerm{mask: 1<<uint(t.A) | 1<<uint(t.B), w: t.W})
	}
	ba, bpr := s0.blockAmps(), s0.blocksPerRank()
	var offs []uint64
	for i, t := range terms {
		m := t.mask & uint64(ba-1)
		j := slices.Index(offs, m)
		if j < 0 {
			j = len(offs)
			offs = append(offs, m)
		}
		terms[i].off = j
	}
	// signed fills out[t] = Wₜ·S[off(t)], term t's value on a block
	// where its sign on the block and rank bits is +.
	signed := func(x, out []float64) {
		ms := make([]float64, len(offs))
		for o := range ba {
			re, im := x[2*o], x[2*o+1]
			p := float64(re*re) + float64(im*im)
			for j, m := range offs {
				if bits.OnesCount64(uint64(o)&m)&1 != 0 {
					ms[j] -= p
				} else {
					ms[j] += p
				}
			}
		}
		for i, t := range terms {
			out[i] = float64(t.w * ms[t.off])
		}
	}
	rd := s0.newReader()
	repeated, err := rd.repeated(sims)
	if err != nil {
		return nil, err
	}
	acc := make([]float64, len(sims))
	w := make([]float64, ba)
	// read adds variant v's block to acc[v]. The block — r, blk, its
	// global index g, base and its table w — is set before each fan-out,
	// so one closure serves the whole walk.
	var (
		r, blk, g int
		base      uint64
	)
	read := func(ws *workerState, v int) error {
		s := sims[v]
		if e := repeated[v][g]; e != nil {
			vals, err := rd.values(s, ws, e, len(terms), signed)
			if err != nil {
				return err
			}
			// A sum that starts at +0 is never −0, so adding a ±0 term
			// leaves its bits alone: a zero block costs no parity.
			var sum float64
			for i, t := range terms {
				if x := vals[i]; x != 0 {
					if bits.OnesCount64(base&t.mask)&1 != 0 {
						sum -= x
					} else {
						sum += x
					}
				}
			}
			acc[v] += sum
			return nil
		}
		blob, err := s.ranks[r].store.Peek(blk)
		if err != nil {
			return err
		}
		x, err := rd.decode(s, ws, blob)
		if err != nil {
			return err
		}
		a := acc[v]
		for o, wo := range w {
			re, im := x[2*o], x[2*o+1]
			if p := float64(re*re) + float64(im*im); p != 0 {
				a += float64(p * wo)
			}
		}
		acc[v] = a
		return nil
	}
	for r = range s0.ranks {
		for blk = range bpr {
			g, base = r*bpr+blk, s0.compose(r, blk, 0)
			for _, es := range repeated {
				if es[g] == nil { // some variant reads this block through w
					parityTable(w, base, terms)
					break
				}
			}
			if len(sims) == 1 {
				// A fan-out of one is a call: forEach would merge every
				// worker's Stats shard after each block.
				err = read(s0.ranks[r].workers[0], 0)
			} else {
				err = s0.forEach(s0.ranks[r], len(sims), read)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// repeated returns, for each variant v and block g in global block
// order, the memo entry of v's blob at g where v stores that compact
// blob at two or more blocks, nil where the block is read through the
// table. Blobs are Peeked, so the pass moves no store's resident set;
// a spilled block is read back here and again by the walk.
// A run of equal blobs (a redundant state's zero blocks) meets the memo
// once: a blob equal to the previous compact one takes its entry.
func (rd *blobReader) repeated(sims []*Simulator) ([][]*blobValue, error) {
	out := make([][]*blobValue, len(sims))
	for v, s := range sims {
		bpr := s.blocksPerRank()
		es := make([]*blobValue, len(s.ranks)*bpr)
		uses := make(map[*blobValue]int)
		var e *blobValue
		for g := range es {
			blob, err := s.ranks[g/bpr].store.Peek(g % bpr)
			if err != nil {
				return nil, err
			}
			if s.compact(blob) {
				if e == nil || !bytes.Equal(blob, e.blob) {
					e = rd.entry(blob)
				}
				es[g] = e
				uses[e]++
			}
		}
		for g, e := range es {
			if uses[e] < 2 {
				es[g] = nil
			}
		}
		out[v] = es
	}
	return out, nil
}

// parityTable fills the block table term by term: w[o] gains each
// term's +W where the bits of the global index base|o under its mask
// have even parity, −W where odd. x + (−W) is x − W bit for bit, so the
// sign may live in the addend. Kept out of line: inlined into
// DiagonalExpectations, its inner loop spills its index to the stack,
// and the dense readout, which this loop is most of, runs 5–10 % slower.
//
//go:noinline
func parityTable(w []float64, base uint64, terms []parityTerm) {
	clear(w)
	for _, t := range terms {
		sign := [2]float64{t.w, -t.w}
		if bits.OnesCount64(base&t.mask)&1 != 0 {
			sign = [2]float64{-t.w, t.w}
		}
		m := uint(t.mask) & uint(len(w)-1)
		for o := range w {
			w[o] += sign[bits.OnesCount(uint(o)&m)&1]
		}
	}
}
