package qcsim

import (
	"errors"

	"qcsim/internal/blockstore"
	"qcsim/internal/mpi"
	"qcsim/internal/mps"
)

// Sentinel errors. Every error returned by the package either is one of
// these or wraps one of them (or, for aborted runs, wraps the context's
// error), so callers branch with errors.Is:
//
//	if _, err := qcsim.New(n, opts...); errors.Is(err, qcsim.ErrBadConfig) { ... }
//	if _, err := sim.Run(ctx, c); errors.Is(err, context.Canceled) { ... }
var (
	// ErrBadConfig reports an invalid or inconsistent option set passed
	// to New (qubit count out of range, non-power-of-two ranks or block
	// size, error levels outside (0,1) or not increasing, out-of-range
	// noise probability, ...), and a run request the engines cannot
	// take (a nil circuit, a gate of unknown kind).
	ErrBadConfig = errors.New("qcsim: invalid configuration")

	// ErrInvalidQubit reports a qubit index (or basis-state index)
	// outside the simulator's register, or a gate that names one qubit
	// twice.
	ErrInvalidQubit = errors.New("qcsim: qubit index out of range")

	// ErrBudgetExceeded reports that during a run some rank reached a
	// sweep boundary with its state recompressed at the adaptive
	// pipeline's loosest error bound and the compressed footprint still
	// above the memory budget — the state could not be made to fit. It
	// surfaces from the first such run. The simulator remains fully
	// inspectable; the state is the loosest-bound approximation.
	ErrBudgetExceeded = errors.New("qcsim: memory budget exceeded at the loosest error bound")

	// ErrCircuitMismatch reports a circuit whose qubit count differs
	// from the simulator's register width.
	ErrCircuitMismatch = errors.New("qcsim: circuit width does not match simulator")

	// ErrUnknownCodec reports a codec name with no registered factory
	// (see RegisterCodec and Codecs).
	ErrUnknownCodec = errors.New("qcsim: unknown codec")

	// ErrBadCheckpoint reports an unreadable, corrupt, or
	// geometry-mismatched checkpoint passed to Load.
	ErrBadCheckpoint = errors.New("qcsim: invalid checkpoint")

	// ErrStateTooLarge reports a request to materialize the full
	// uncompressed state vector (FullState) on a register too wide to
	// allocate it. Sample and Sampler never materialize the state and
	// work at any width.
	ErrStateTooLarge = errors.New("qcsim: state too large to materialize")

	// ErrStaleSampler reports a Sampler whose probability tables no
	// longer describe the simulator's state — gates ran, Reset or
	// SetBasisState reinitialized it, or a checkpoint loaded since the
	// Sampler was built. Build a fresh one with Simulator.Sampler.
	ErrStaleSampler = errors.New("qcsim: sampler stale: state mutated since it was built")

	// ErrAssertionFailed reports a statistical assertion
	// (AssertClassical, AssertSuperposition, AssertProduct) that the
	// current state does not satisfy. The message carries the measured
	// probability or total-variation distance:
	//
	//	if err := sim.AssertClassical(0, 1, 1e-6); errors.Is(err, qcsim.ErrAssertionFailed) { ... }
	ErrAssertionFailed = errors.New("qcsim: assertion failed")

	// ErrClosed reports a method call on a Simulator after Close. Every
	// error-returning method checks it first, so a caller that evicts a
	// simulator (a serving layer suspending an idle session, a pool
	// recycling handles) gets a typed refusal instead of undefined
	// behavior from a torn-down engine. Close itself stays idempotent
	// and never reports ErrClosed.
	ErrClosed = errors.New("qcsim: simulator closed")
)

// ErrUnsupportedOp reports an operation the selected backend genuinely
// cannot perform. The compressed backend supports everything (batches
// in-process only: RunBatch and Gradient refuse the TCP transport); the
// mps backend rejects measurement gates, multi-controlled gates (more
// than one control), the Assert* methods, Save/Load, and
// RunBatch/Gradient — the paper's §1 case for full-state simulation,
// made checkable:
//
//	if _, err := sim.Run(ctx, c); errors.Is(err, qcsim.ErrUnsupportedOp) {
//		// rebuild with WithBackend(qcsim.BackendCompressed)
//	}
//
// The error chain also carries a *mps.UnsupportedOpError naming the
// rejected operation; it is the same sentinel internal/mps uses, so
// errors.Is works across the facade boundary.
var ErrUnsupportedOp = mps.ErrUnsupportedOp

// ErrRankDied reports a distributed rank dying mid-run on the TCP
// transport (WithTransport): a worker process crashed, was killed, or
// lost its connection, and the failure cascaded across the rank mesh —
// every surviving rank unblocked with this sentinel in its error chain
// instead of deadlocking in a collective. The coordinator's state is
// untouched (deltas merge only after every rank succeeds), so the run
// can simply be retried:
//
//	if _, err := sim.Run(ctx, c); errors.Is(err, qcsim.ErrRankDied) {
//		// respawn workers / retry the run; the pre-run state is intact
//	}
//
// It is the same sentinel internal/mpi uses, so errors.Is works across
// the facade boundary.
var ErrRankDied = mpi.ErrRankDied

// ErrSpill reports an I/O failure in the disk spill tier enabled by
// WithSpill: the spill directory could not host the per-rank spill
// file at New, or a spill write/read failed mid-run. It is distinct
// from ErrBadConfig — the option set was valid, the disk was not —
// and from ErrBudgetExceeded, which is about the error-bound ladder,
// not storage. It is the same sentinel internal/blockstore uses, so
// errors.Is works across the facade boundary.
var ErrSpill = blockstore.ErrSpill
