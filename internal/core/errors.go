package core

import "errors"

// Sentinels rooting the engine's validation and assertion failures, so
// the facade can translate them with errors.Is instead of matching
// message text. Everything fmt.Errorf builds in this package wraps one
// of these (or a sentinel declared next to its subsystem, like
// ErrSamplerStale).
var (
	// ErrAssertFailed roots every statistical-assertion failure
	// (AssertClassical, AssertSuperposition, AssertProduct).
	ErrAssertFailed = errors.New("core: assertion failed")

	// ErrInvalidPair reports a joint-distribution request over an
	// out-of-range or degenerate (a == b) qubit pair.
	ErrInvalidPair = errors.New("core: invalid qubit pair")

	// ErrZeroMass reports a sampler build over a state whose total
	// probability mass is zero (fully decohered by lossy compression).
	ErrZeroMass = errors.New("core: sampler: state has zero total mass")

	// ErrNegativeShots reports a negative shot count.
	ErrNegativeShots = errors.New("core: negative shot count")

	// ErrBatchMismatch roots every RunBatch validation failure: empty
	// or ragged batches, nil variants, width or shape divergence, and
	// configuration drift between variants.
	ErrBatchMismatch = errors.New("core: variant batch mismatch")

	// ErrInvalidGate reports a circuit that fails quantum.Circuit.Validate
	// — an unknown gate kind, an operand outside the register, or a qubit
	// used twice in one gate — refused by Run and RunBatch before any
	// gate executes.
	ErrInvalidGate = errors.New("core: invalid gate")

	// ErrBadCheckpoint roots every checkpoint Load refuses: bad magic,
	// a geometry other than the simulator's, a header value no Save
	// writes, a truncated or corrupt stream, an undecodable block. A
	// refused Load leaves the simulator as it was. Spill I/O failures
	// while staging the blocks wrap blockstore.ErrSpill instead.
	ErrBadCheckpoint = errors.New("core: bad checkpoint")

	// ErrBadDelta roots every shipped rank image InstallRank refuses
	// and every worker delta ApplyDeltas refuses (see checkDeltas). A
	// refusal changes nothing.
	ErrBadDelta = errors.New("core: bad rank delta")
)
