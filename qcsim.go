package qcsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"qcsim/circuit"
	"qcsim/internal/core"
	"qcsim/internal/mps"
	"qcsim/internal/stats"
)

// Stats is the engine's accounting: the time breakdown
// (compress/decompress/compute/communication), footprint high-water
// marks, cache behaviour, and error-level escalations that regenerate
// the paper's Table 2.
type Stats = core.Stats

// Simulator is the public handle on a simulation engine. The default
// backend is the compressed full-state engine: a Schrödinger-style
// simulator that keeps the 2^n-amplitude state vector compressed in
// memory at all times (Wu et al., SC'19). WithBackend selects the MPS
// (tensor-network) engine instead — polynomial memory for
// low-entanglement circuits at any register width — or "auto", which
// picks per circuit at the first Run.
//
// Construct with New, execute circuits with Run or RunProgress (state
// persists across calls), inspect with Amplitude / ProbabilityOne /
// Snapshot and friends, sample with Sample, and persist with Save and
// Load. A Simulator is not safe for concurrent use; the compressed
// engine parallelizes internally (WithRanks, WithWorkers).
type Simulator struct {
	qubits int
	// be is the live engine; nil while an auto-backend decision is
	// still pending (see pendingAuto).
	be backend
	// pending defers backend construction for WithBackend("auto") until
	// a circuit is available to analyze.
	pending *pendingAuto
	// closed latches after Close: every error-returning method reports
	// ErrClosed instead of touching the torn-down engine.
	closed bool
	// batch holds the retained variant handles of the most recent
	// RunBatch call (see BatchVariants); owned by this simulator and
	// closed with it.
	batch []*Simulator
}

// New builds a simulator for the given register width, initialized to
// |0...0⟩. Invalid configurations report ErrBadConfig (or
// ErrUnknownCodec for an unresolvable WithCodec name).
func New(qubits int, opts ...Option) (*Simulator, error) {
	st, cfg, err := resolve(qubits, opts)
	if err != nil {
		return nil, err
	}
	p := &pendingAuto{qubits: qubits, cfg: cfg, bondDim: st.bondDim}
	sim := &Simulator{qubits: qubits}
	switch st.backend {
	case BackendAuto:
		sim.pending = p
	case BackendMPS:
		sim.be, err = p.build(BackendMPS)
		if err != nil {
			return nil, err
		}
	default: // "" or BackendCompressed
		sim.be, err = p.build(BackendCompressed)
		if err != nil {
			return nil, err
		}
		if st.transport == TransportTCP {
			sim.be = newDistBackend(sim.be.(compressedBackend), st.workerCmd)
		}
	}
	return sim, nil
}

// Backend returns the name of the engine in use: BackendCompressed or
// BackendMPS, or BackendAuto while an auto simulator's decision is
// still open (no circuit seen yet).
func (s *Simulator) Backend() string {
	if s.pending != nil {
		return BackendAuto
	}
	return s.be.Name()
}

// b returns the live engine. While an auto decision is still open,
// inspection is answered through a provisional MPS: the state so far
// is the product state |basis⟩ — exact at any register width for free
// — and the decision stays with the first Run, which rebuilds the
// engine if the provisional choice was wrong (nothing has executed, so
// nothing is lost; see run and resolveTo).
func (s *Simulator) b() backend {
	if s.be == nil {
		be, err := s.pending.build(BackendMPS)
		if err != nil {
			// Unreachable: the provisional engine is an MPS in a basis
			// state, whose only inputs (qubits, χ, basis) were
			// validated by New and SetBasisState.
			panic(fmt.Sprintf("qcsim: auto backend resolution: %v", err))
		}
		s.be = be
	}
	return s.be
}

// resolveTo closes an open auto decision on the named engine. A
// provisional engine (built for pre-Run inspection) is kept when the
// decision agrees with it and replaced otherwise — it has executed no
// gates, so only its sampler stream position is discarded, and
// samplers built on it are invalidated like any other pre-mutation
// sampler. The recorded basis state is replayed into the new engine.
func (s *Simulator) resolveTo(name string) error {
	if s.be == nil || s.be.Name() != name {
		be, err := s.pending.build(name)
		if err != nil {
			return err
		}
		if old, ok := s.be.(*mpsBackend); ok {
			old.version++
		}
		s.be = be
	}
	s.pending = nil
	return nil
}

// compressedOnly returns the compressed engine for an operation only it
// supports — Save, Load, the Assert* methods, RunBatch and Gradient —
// and is the one place the facade builds an ErrUnsupportedOp, naming op.
// Needing one while an auto decision is open is decisive evidence for
// the compressed engine — exactly like a circuit at Run — so it closes
// the decision in its favor instead of failing on the provisional MPS.
// Over the TCP transport the engine is the coordinator's local copy,
// which serves checkpoints and assertions; inProcess marks an operation
// the worker processes cannot run, which that transport refuses.
func (s *Simulator) compressedOnly(op string, inProcess bool) (*core.Simulator, error) {
	if s.pending != nil {
		if err := s.resolveTo(BackendCompressed); err != nil {
			return nil, err
		}
	}
	reason := "requires full-state access; use the compressed backend"
	switch be := s.b().(type) {
	case compressedBackend:
		return be.Simulator, nil
	case *distBackend:
		if !inProcess {
			return be.Simulator, nil
		}
		reason = fmt.Sprintf("in-process only; the %s transport cannot run it — build the simulator without WithTransport", TransportTCP)
	}
	return nil, &mps.UnsupportedOpError{Op: op, Reason: reason}
}

// ProgressEvent describes one completed gate of a RunProgress call.
type ProgressEvent struct {
	// Gate is the 0-based index of the gate that just completed.
	Gate int
	// Total is the number of gates in this run.
	Total int
	// Name is the gate's name (e.g. "h", "cx", "measure").
	Name string
	// Target is the gate's target qubit.
	Target int
}

// Result summarizes one Run call. The counters that accumulate across
// calls (Stats, FidelityLowerBound, footprint) reflect the simulator's
// cumulative totals; Gates and Measurements cover this call only.
type Result struct {
	// Gates is the number of gates this call executed (on a cancelled
	// run, the completed prefix).
	Gates int
	// Measurements holds the outcomes of measurement gates executed by
	// this call, in order.
	Measurements []int
	// FidelityLowerBound is the running Π(1-δᵢ) ledger (Eq. 11) — 1.0
	// while every gate has executed lossless.
	FidelityLowerBound float64
	// Footprint is the current compressed state size in bytes, summed
	// across ranks.
	Footprint int64
	// CompressionRatio is uncompressed-state-bytes over Footprint.
	CompressionRatio float64
	// Stats is the cumulative aggregate accounting across ranks.
	Stats Stats
}

// Run executes the circuit on the current state. It may be called
// repeatedly; state, stats, and the fidelity ledger accumulate across
// calls.
//
// Cancellation is checked at sweep boundaries (a sweep is one codec pass
// over the state, however many gates it carries): if ctx is cancelled the
// run stops between sweeps on every rank, the returned error wraps
// ctx.Err() (so errors.Is(err, context.Canceled) holds), and the
// returned Result covers the completed prefix — the simulator stays
// fully inspectable. A run that leaves a sweep boundary over the
// memory budget at the loosest error bound reports ErrBudgetExceeded
// alongside a valid Result.
func (s *Simulator) Run(ctx context.Context, c *circuit.Circuit) (*Result, error) {
	return s.run(ctx, c, nil)
}

// RunProgress is Run with a progress callback invoked after every
// completed gate. fn runs on an engine goroutine and must not call back
// into the Simulator; keep it fast — it sits between gates.
func (s *Simulator) RunProgress(ctx context.Context, c *circuit.Circuit, fn func(ProgressEvent)) (*Result, error) {
	return s.run(ctx, c, fn)
}

// closedErr is the guard every error-returning method calls first: a
// Simulator that has been Closed refuses all further work with the
// typed ErrClosed instead of exhibiting undefined behavior on the
// torn-down engine (spill files removed, stores closed).
func (s *Simulator) closedErr() error {
	if s.closed {
		return ErrClosed
	}
	return nil
}

// runnable is the guard every circuit-executing method (Run, RunBatch,
// Gradient) calls first, on every backend: an open simulator and a
// well-formed circuit of its width. A circuit assembled by hand rather
// than through the checked builders may carry an operand outside the
// register or a qubit twice in one gate (ErrInvalidQubit) or a gate kind
// no engine knows (ErrBadConfig).
func (s *Simulator) runnable(c *circuit.Circuit) error {
	if err := s.closedErr(); err != nil {
		return err
	}
	if c == nil {
		return fmt.Errorf("%w: nil circuit", ErrBadConfig)
	}
	if c.N != s.qubits {
		return fmt.Errorf("%w: circuit has %d qubits, simulator %d", ErrCircuitMismatch, c.N, s.qubits)
	}
	if err := c.Validate(); err != nil {
		if errors.Is(err, errors.ErrUnsupported) {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		return fmt.Errorf("%w: %v", ErrInvalidQubit, err)
	}
	return nil
}

func (s *Simulator) run(ctx context.Context, c *circuit.Circuit, fn func(ProgressEvent)) (*Result, error) {
	if err := s.runnable(c); err != nil {
		return nil, err
	}
	if s.pending != nil && len(c.Gates) > 0 {
		// Auto backend: this circuit is the evidence the decision was
		// waiting for. An empty circuit is no evidence at all — it
		// executes on the provisional engine and leaves the decision
		// open for a circuit with actual gates.
		if err := s.resolveTo(s.pending.choose(c)); err != nil {
			return nil, err
		}
	}
	eng := s.b()
	gatesBefore, measBefore := eng.GatesRun(), eng.MeasurementCount()
	runErr := eng.RunControlled(c, runControl(ctx, fn))
	res := resultSince(eng, s.qubits, gatesBefore, measBefore)
	if runErr != nil {
		return &res, runErr
	}
	if eng.OverBudget() {
		return &res, fmt.Errorf("%w: footprint %s after %d escalations", ErrBudgetExceeded,
			FormatBytes(float64(res.Footprint)), res.Stats.Escalations)
	}
	return &res, nil
}

// runControl translates a facade context and progress callback (either
// may be nil) into the engine's sweep-boundary hooks, for solo and
// batched runs alike.
func runControl(ctx context.Context, fn func(ProgressEvent)) core.RunControl {
	var ctl core.RunControl
	if ctx == nil {
		//qclint:allow ctxflow nil ctx is the facade's documented "run uncancelled" default
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		// Only contexts that can actually be cancelled pay for the
		// per-gate abort broadcast; context.Background() runs the exact
		// same path as the internal engine's Run.
		ctl.PollAbort = ctx.Err
	}
	if fn != nil {
		ctl.OnGate = func(gi, total int, g circuit.Gate) {
			// A cancelled context means the client is gone: the engine
			// still finishes the sweep in flight (it stops at the next
			// sweep boundary), but no more progress events are
			// delivered — a disconnected RunProgress consumer must not
			// keep receiving callbacks for the trailing gates.
			if ctx.Err() != nil {
				return
			}
			fn(ProgressEvent{Gate: gi, Total: total, Name: g.Name, Target: g.Target})
		}
	}
	return ctl
}

// resultSince summarizes the run that took eng, an n-qubit engine, from
// the given cumulative gate and measurement counts to its current state.
func resultSince(eng backend, n, gatesBefore, measBefore int) Result {
	fp := eng.CompressedFootprint()
	return Result{
		Gates:              eng.GatesRun() - gatesBefore,
		Measurements:       eng.Measurements()[measBefore:],
		FidelityLowerBound: eng.FidelityLowerBound(),
		Footprint:          fp,
		CompressionRatio:   compressionRatio(n, fp),
		Stats:              eng.Stats(),
	}
}

// compressionRatio is an n-qubit state's uncompressed bytes over its
// footprint (0 for an empty one): the facade's one definition, for
// every engine.
func compressionRatio(n int, footprint int64) float64 {
	if footprint == 0 {
		return 0
	}
	return MemoryRequirement(n) / float64(footprint)
}

// Snapshot is a point-in-time view of the simulator's cumulative
// accounting — everything Result carries plus geometry and
// communication volume.
type Snapshot struct {
	Qubits             int
	GatesRun           int
	Measurements       []int
	FidelityLowerBound float64
	Footprint          int64
	MaxFootprint       int64
	CompressionRatio   float64
	BytesMoved         int64
	Stats              Stats
}

// Snapshot returns the current cumulative accounting. It never touches
// the compressed blocks, so it is cheap and safe at any scale.
func (s *Simulator) Snapshot() Snapshot {
	be := s.b()
	st := be.Stats()
	fp := be.CompressedFootprint()
	return Snapshot{
		Qubits:             s.qubits,
		GatesRun:           be.GatesRun(),
		Measurements:       be.Measurements(),
		FidelityLowerBound: be.FidelityLowerBound(),
		Footprint:          fp,
		MaxFootprint:       st.MaxFootprint,
		CompressionRatio:   compressionRatio(s.qubits, fp),
		BytesMoved:         be.BytesMoved(),
		Stats:              st,
	}
}

// Qubits returns the register width n.
func (s *Simulator) Qubits() int { return s.qubits }

// Close releases engine resources: with WithSpill active it removes
// the per-rank spill files (failures wrap ErrSpill); otherwise it is
// a no-op. After Close every error-returning method reports ErrClosed
// — the handle is dead, never undefined. Safe to call more than once
// (later calls are no-ops returning nil), and safe on an auto
// simulator whose decision never closed.
func (s *Simulator) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeBatch()
	if s.be == nil {
		return nil
	}
	return s.be.Close()
}

// Reset reinitializes the state to |0...0⟩ and the fidelity ledger to
// 1, keeping the configuration.
func (s *Simulator) Reset() error {
	if err := s.closedErr(); err != nil {
		return err
	}
	if s.pending != nil {
		s.pending.basis = 0
	}
	return s.b().Reset()
}

// SetBasisState reinitializes the state to |idx⟩.
func (s *Simulator) SetBasisState(idx uint64) error {
	if err := s.closedErr(); err != nil {
		return err
	}
	if idx >= 1<<uint(s.qubits) {
		return fmt.Errorf("%w: basis state %d on a %d-qubit register", ErrInvalidQubit, idx, s.qubits)
	}
	if s.pending != nil {
		// Record it for the auto decision's rebuild path, so the
		// chosen engine starts in the same basis state.
		s.pending.basis = idx
	}
	return s.b().SetBasisState(idx)
}

func (s *Simulator) checkQubit(q int) error {
	if q < 0 || q >= s.qubits {
		return fmt.Errorf("%w: qubit %d on a %d-qubit register", ErrInvalidQubit, q, s.qubits)
	}
	return nil
}

// checkTol refuses an assertion tolerance that is NaN, which every
// comparison would pass, or negative.
func checkTol(tol float64) error {
	if math.IsNaN(tol) || tol < 0 {
		return fmt.Errorf("%w: assertion tolerance %v", ErrBadConfig, tol)
	}
	return nil
}

// Amplitude returns ⟨idx|ψ⟩, decompressing only the containing block.
func (s *Simulator) Amplitude(idx uint64) (complex128, error) {
	if err := s.closedErr(); err != nil {
		return 0, err
	}
	if idx >= 1<<uint(s.qubits) {
		return 0, fmt.Errorf("%w: amplitude index %d on a %d-qubit register", ErrInvalidQubit, idx, s.qubits)
	}
	return s.b().Amplitude(idx)
}

// maxFullStateQubits bounds FullState: past this width the decompressed
// vector itself is gigabytes. A var so tests can exercise the
// ErrStateTooLarge path without building a 27-qubit state. Sample and
// Sampler stream from the compressed blocks and have no such bound.
var maxFullStateQubits = 26

// FullState decompresses and returns the whole state vector. Registers
// wider than 26 qubits report ErrStateTooLarge.
func (s *Simulator) FullState() ([]complex128, error) {
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	if s.qubits > maxFullStateQubits {
		return nil, fmt.Errorf("%w: %d qubits would allocate %s", ErrStateTooLarge,
			s.qubits, FormatBytes(MemoryRequirement(s.qubits)))
	}
	return s.b().FullState()
}

// Norm returns Σ|aᵢ|² across the full compressed state (1 up to
// compression error).
func (s *Simulator) Norm() (float64, error) {
	if err := s.closedErr(); err != nil {
		return 0, err
	}
	return s.b().Norm()
}

// ProbabilityOne returns P(qubit q = 1) without collapsing the state.
func (s *Simulator) ProbabilityOne(q int) (float64, error) {
	if err := s.closedErr(); err != nil {
		return 0, err
	}
	if err := s.checkQubit(q); err != nil {
		return 0, err
	}
	return s.b().ProbabilityOne(q)
}

// ExpectationZ returns ⟨Z_q⟩ = P(q=0) − P(q=1): the Observable {Z: q}.
func (s *Simulator) ExpectationZ(q int) (float64, error) {
	return s.expectation(Observable{Z: []ZTerm{{Q: q, W: 1}}})
}

// ExpectationZZ returns the two-point correlator ⟨Z_a Z_b⟩: the
// Observable {ZZ: a,b}. a == b is ErrInvalidQubit.
func (s *Simulator) ExpectationZZ(a, b int) (float64, error) {
	return s.expectation(Observable{ZZ: []ZZTerm{{A: a, B: b, W: 1}}})
}

// MaxCutEnergy returns the expected cut value Σ_edges (1 - ⟨Z_u Z_v⟩)/2
// of the current state — the QAOA objective over the given graph, the
// value Gradient(…, MaxCutObservable(edges)).Energy reports for the
// same state. A self-loop is ErrInvalidQubit.
func (s *Simulator) MaxCutEnergy(edges []circuit.Edge) (float64, error) {
	return s.expectation(MaxCutObservable(edges))
}

// expectation is every diagonal observable's one read: check the terms,
// read the backend's DiagonalExpectation, add Const.
func (s *Simulator) expectation(obs Observable) (float64, error) {
	if err := s.closedErr(); err != nil {
		return 0, err
	}
	if err := s.checkObservable(obs); err != nil {
		return 0, err
	}
	e, err := s.b().DiagonalExpectation(obs.Z, obs.ZZ)
	if err != nil {
		return 0, err
	}
	return e + obs.Const, nil
}

// checkObservable refuses a term on a qubit outside the register and a
// ZZ term on a single qubit, with ErrInvalidQubit on every backend.
func (s *Simulator) checkObservable(obs Observable) error {
	for _, t := range obs.Z {
		if err := s.checkQubit(t.Q); err != nil {
			return err
		}
	}
	for _, t := range obs.ZZ {
		if err := s.checkQubit(t.A); err != nil {
			return err
		}
		if err := s.checkQubit(t.B); err != nil {
			return err
		}
		if t.A == t.B {
			return fmt.Errorf("%w: ZZ term on the single qubit %d", ErrInvalidQubit, t.A)
		}
	}
	return nil
}

// wrapAssert maps the engine's assertion errors onto the public
// sentinels, flattening the core detail into the message (the same
// idiom Sampler uses for ErrStaleSampler).
func wrapAssert(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrAssertFailed):
		return fmt.Errorf("%w: %v", ErrAssertionFailed, err)
	case errors.Is(err, core.ErrInvalidPair):
		return fmt.Errorf("%w: %v", ErrInvalidQubit, err)
	}
	return err
}

// AssertClassical checks that qubit q reads `value` with probability at
// least 1-tol — the statistical-assertion debugging workflow the paper
// motivates. A value other than 0 or 1, or a NaN or negative tol, is
// ErrBadConfig.
func (s *Simulator) AssertClassical(q, value int, tol float64) error {
	if err := s.closedErr(); err != nil {
		return err
	}
	if err := s.checkQubit(q); err != nil {
		return err
	}
	if value != 0 && value != 1 {
		return fmt.Errorf("%w: a qubit reads 0 or 1, not %d", ErrBadConfig, value)
	}
	if err := checkTol(tol); err != nil {
		return err
	}
	eng, err := s.compressedOnly("assert", false)
	if err != nil {
		return err
	}
	return wrapAssert(eng.AssertClassical(q, value, tol))
}

// AssertSuperposition checks that qubit q is in an approximately
// uniform superposition: P(1) within tol of 1/2. A NaN or negative tol
// is ErrBadConfig.
func (s *Simulator) AssertSuperposition(q int, tol float64) error {
	if err := s.closedErr(); err != nil {
		return err
	}
	if err := s.checkQubit(q); err != nil {
		return err
	}
	if err := checkTol(tol); err != nil {
		return err
	}
	eng, err := s.compressedOnly("assert", false)
	if err != nil {
		return err
	}
	return wrapAssert(eng.AssertSuperposition(q, tol))
}

// AssertProduct checks that qubits a and b are approximately
// unentangled in the computational basis (total-variation distance of
// the joint distribution from the product of marginals ≤ tol). A NaN or
// negative tol is ErrBadConfig.
func (s *Simulator) AssertProduct(a, b int, tol float64) error {
	if err := s.closedErr(); err != nil {
		return err
	}
	if err := s.checkQubit(a); err != nil {
		return err
	}
	if err := s.checkQubit(b); err != nil {
		return err
	}
	if err := checkTol(tol); err != nil {
		return err
	}
	eng, err := s.compressedOnly("assert", false)
	if err != nil {
		return err
	}
	return wrapAssert(eng.AssertProduct(a, b, tol))
}

// Measurements returns the outcomes of every measurement gate executed
// so far, in order.
func (s *Simulator) Measurements() []int { return s.b().Measurements() }

// Sample draws `shots` full-register outcomes from the simulator's own
// seeded stream (WithSeed) without collapsing the state. The draw
// streams from the compressed blocks — the full vector is never
// materialized — so sampling works at any register width. Outcome
// frequencies follow the state's normalized distribution: draws are
// scaled by the true total mass Σ|aᵢ|², so lossy compression shedding
// norm never biases the histogram (toward |0...0⟩ or anywhere else).
// Repeated sampling of an unchanged state is cheaper through a Sampler
// handle, which builds the probability tables once.
func (s *Simulator) Sample(shots int) ([]uint64, error) {
	if shots < 0 {
		return nil, fmt.Errorf("%w: negative shot count %d", ErrBadConfig, shots)
	}
	sp, err := s.Sampler()
	if err != nil {
		return nil, err
	}
	return sp.sample(shots)
}

// Sampler draws shots directly from the backend's probability tables,
// built once at construction. On the compressed backend that is a
// two-level CDF: one pass over the compressed blocks computes per-block
// probability masses; a Sample call binary-searches the block prefix
// sums per shot, then decompresses each block the shots touched once,
// on the worker pool, and binary-searches its folded probabilities
// (nothing decoded is kept between calls); draws are normalized
// by the true total mass, so lossy-codec norm loss never skews
// outcomes, and outcomes are identical for every worker count. On the
// mps backend it
// is perfect sampling by qubit-by-qubit conditional contraction over
// precomputed right environments — O(n·χ²) per shot, no 2^n vector.
// Either way, a Sampler reads the state it was built from; once the
// simulator mutates (Run, Reset, SetBasisState, Load), Sample reports
// ErrStaleSampler and a fresh Sampler must be built. Like the
// Simulator, a Sampler is not safe for concurrent use.
type Sampler struct {
	sp backendSampler
}

// Sampler builds the sampling tables for the current state — one
// worker-pool pass over the compressed blocks, or one environment sweep
// over the MPS tensors — never materializing the full vector, so
// shot-based readout works on registers far past what FullState can
// allocate.
func (s *Simulator) Sampler() (*Sampler, error) {
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	sp, err := s.b().NewSampler()
	if err != nil {
		return nil, err
	}
	return &Sampler{sp: sp}, nil
}

// TotalMass returns the sampler's normalization constant Σ|aᵢ|² at
// build time — 1 up to floating-point rounding while the state is
// lossless, below 1 once lossy compression has shed mass.
func (sp *Sampler) TotalMass() float64 { return sp.sp.TotalMass() }

// Sample draws `shots` outcomes from the simulator's seeded sampling
// stream (WithSeed). The stream is separate from measurement collapse,
// so sampling never perturbs later measurement outcomes.
func (sp *Sampler) Sample(shots int) ([]uint64, error) {
	if shots < 0 {
		return nil, fmt.Errorf("%w: negative shot count %d", ErrBadConfig, shots)
	}
	return sp.sample(shots)
}

func (sp *Sampler) sample(shots int) ([]uint64, error) {
	out, err := sp.sp.Sample(shots)
	if err != nil {
		if errors.Is(err, core.ErrSamplerStale) {
			return nil, fmt.Errorf("%w: %v", ErrStaleSampler, err)
		}
		return nil, err
	}
	return out, nil
}

// Stats returns the cumulative aggregate accounting across ranks.
func (s *Simulator) Stats() Stats { return s.b().Stats() }

// FidelityLowerBound returns the running fidelity ledger Π(1-δᵢ) over
// all executed gates (the paper's Eq. 11).
func (s *Simulator) FidelityLowerBound() float64 { return s.b().FidelityLowerBound() }

// CompressedFootprint returns the current compressed state size in
// bytes, summed across ranks.
func (s *Simulator) CompressedFootprint() int64 { return s.b().CompressedFootprint() }

// CompressionRatio returns uncompressed-state-bytes over the current
// compressed footprint.
func (s *Simulator) CompressionRatio() float64 {
	return compressionRatio(s.qubits, s.CompressedFootprint())
}

// GatesRun returns the number of gates executed so far across all
// runs.
func (s *Simulator) GatesRun() int { return s.b().GatesRun() }

// BytesMoved returns the cumulative cross-rank communication volume in
// bytes.
func (s *Simulator) BytesMoved() int64 { return s.b().BytesMoved() }

// Save writes a self-describing, checksummed checkpoint of the full
// simulator state (compressed blocks as-is, ledger, measurement log) to
// w — the paper's §3.5 wall-time-limit workflow. The mps backend has no
// checkpoint format and reports ErrUnsupportedOp; on an undecided auto
// simulator, needing a checkpoint closes the decision on the
// compressed engine.
func (s *Simulator) Save(w io.Writer) error {
	if err := s.closedErr(); err != nil {
		return err
	}
	eng, err := s.compressedOnly("checkpoint", false)
	if err != nil {
		return err
	}
	return eng.Save(w)
}

// Load restores a checkpoint written by Save. The simulator must have
// been built with the same qubit count, ranks, and block size; any
// mismatch, corruption, or undecodable block reports ErrBadCheckpoint
// without modifying the current state. The mps backend reports
// ErrUnsupportedOp; on an undecided auto simulator, a checkpoint is
// compressed-engine state, so Load closes the decision on the
// compressed engine (the -resume-before-Run CLI workflow).
func (s *Simulator) Load(r io.Reader) error {
	if err := s.closedErr(); err != nil {
		return err
	}
	eng, err := s.compressedOnly("checkpoint", false)
	if err != nil {
		return err
	}
	if err := eng.Load(r); err != nil {
		if errors.Is(err, ErrSpill) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return nil
}

// MemoryRequirement returns the uncompressed state size in bytes for n
// qubits: 2^(n+4) (the paper's Table 1 arithmetic).
func MemoryRequirement(n int) float64 { return core.MemoryRequirement(n) }

// MaxQubitsForMemory returns the largest register a machine with
// `bytes` of memory can simulate without compression.
func MaxQubitsForMemory(bytes float64) int { return core.MaxQubitsForMemory(bytes) }

// FidelityBound computes the paper's Eq. 11 lower bound analytically
// for a sequence of per-gate error bounds (0 = lossless gate).
func FidelityBound(gateBounds []float64) float64 { return core.FidelityBound(gateBounds) }

// FormatBytes renders a byte count using binary units ("16.0 MB").
func FormatBytes(b float64) string { return stats.FormatBytes(b) }
