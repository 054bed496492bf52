package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// measureRank implements intermediate measurement (the capability the
// paper highlights over tensor-network simulators, §1): every rank
// accumulates its partial P(q=1) over decompressed blocks, the total is
// allreduced, rank 0 draws the outcome, and all ranks collapse and
// renormalize their blocks. The probability reduction fans out across
// the worker pool, keeps per-block partials and sums them in block
// order, so the drawn outcome is bit-identical for every worker count.
// The collapse is a pass of one gate through the group walk
// (collapsePass, runPass): the code a unitary runs, §3.4 cache
// included, so equal blocks collapse once.
//
// Codec failures are returned, not panicked: a decompression error in
// the probability phase is agreed on collectively (an error-flag
// allreduce keeps every rank's collective sequence aligned) BEFORE the
// outcome is drawn, so no rank collapses anything and the
// pre-measurement state stays fully inspectable. A failure in the
// collapse phase is returned to the run loop, whose sweep error
// barrier stops all ranks at the gate boundary.
func (s *Simulator) measureRank(comm mpi.Comm, rs *rankState, q, gi int) (int, error) {
	// The measured qubit's bit lives in one segment (Fig. 3), exactly
	// like a single control: one of the three masks is set.
	offMask, blkMask, rankMask := s.splitControls([]int{q})
	ba := s.blockAmps()

	// Phase 1: partial probability of reading |1⟩, one slot per block.
	partials := make([]float64, s.blocksPerRank())
	var phase1Err error
	if rankMask == 0 || rs.id&rankMask != 0 {
		// blkMask is a single bit, so "any set" equals the all-set
		// filter a scan pass applies.
		s.hintPass(rs, scanPass(rs.level, blkMask))
		phase1Err = s.forBlocks(rs, func(w *workerState, b int) error {
			if blkMask != 0 && b&blkMask == 0 {
				return nil // whole block has q=0
			}
			blob, err := rs.store.Get(b)
			if err != nil {
				return err
			}
			w.ensure()
			if err := s.decompressBlock(blob, w.x, &w.stats); err != nil {
				return err
			}
			start := time.Now()
			var p float64
			for o := 0; o < ba; o++ {
				if offMask != 0 && uint64(o)&offMask == 0 {
					continue
				}
				re, im := w.x[2*o], w.x[2*o+1]
				p += float64(re*re) + float64(im*im)
			}
			partials[b] = p
			w.stats.ComputeTime += time.Since(start)
			return nil
		})
	}
	// Agree on phase-1 failure before any collective consumes data and
	// before the outcome is drawn: every rank runs the same collective
	// sequence whether or not its own blocks decoded, and on failure all
	// ranks return together with the state untouched.
	if anyRankFailed(comm, &phase1Err) {
		return 0, fmt.Errorf("core: measure qubit %d: %w", q, phase1Err)
	}
	var p1 float64
	for _, p := range partials {
		p1 += p
	}
	total := comm.AllreduceSum(p1)
	if total < 0 {
		total = 0
	}
	if total > 1 {
		total = 1 // lossy compression can push the norm slightly past 1
	}

	// Phase 2: rank 0 draws the outcome; everyone learns it.
	var pick float64
	if comm.Rank() == 0 {
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.cfg.Seed))
		}
		if s.rng.Float64() < total {
			pick = 1
		}
	}
	pick = comm.Bcast(0, pick)
	outcome := int(pick)
	keep := total
	if outcome == 0 {
		keep = 1 - total
	}
	if keep <= 0 {
		// Degenerate numerical edge: force the only possible outcome.
		outcome = 1 - outcome
		keep = 1 - keep
	}

	// Phase 3: collapse and renormalize, a pass of one gate: the
	// projector on the outcome times 1/√keep.
	var u quantum.Matrix2
	u[outcome][outcome] = complex(1/math.Sqrt(keep), 0)
	if err := runPass([]*Simulator{s}, rs.id, []*blockPass{s.collapsePass(rs, q, u)}, []int{gi}, 0); err != nil {
		return 0, fmt.Errorf("core: collapse after measuring qubit %d: %w", q, err)
	}
	return outcome, nil
}

// Measurements returns the outcomes of every measurement gate executed
// so far, in order.
func (s *Simulator) Measurements() []int {
	return append([]int(nil), s.measurements...)
}

// MeasurementCount returns how many measurement outcomes have been
// recorded, without copying the log.
func (s *Simulator) MeasurementCount() int { return len(s.measurements) }
