package qcsim

import (
	"errors"
	"fmt"

	"qcsim/circuit"
	"qcsim/internal/core"
	"qcsim/internal/quantum"
)

// Backend names accepted by WithBackend. The facade's engine contract
// (the `backend` interface below) has two first-class implementations:
// the paper's compressed full-state engine and the §2.2 tensor-network
// (MPS) comparator, plus an "auto" mode that picks per circuit.
const (
	// BackendCompressed is the compressed full-state engine (default):
	// every operation supported, memory 2^(n+4) bytes before
	// compression, graceful lossy degradation under a budget.
	BackendCompressed = "compressed"
	// BackendMPS is the matrix-product-state engine: polynomial memory
	// for low-entanglement circuits at any width, but measurement
	// collapse, multi-controlled gates, assertions, and checkpointing
	// report ErrUnsupportedOp.
	BackendMPS = "mps"
	// BackendAuto defers the choice to the first Run: MPS when the
	// circuit's planned two-qubit-gate structure keeps the estimated
	// bond dimension within WithBondDim's budget (and every gate is
	// MPS-runnable), the compressed engine otherwise.
	BackendAuto = "auto"
)

// backend is the engine contract the Simulator facade drives: the
// operations both engines implement, each in its own way. Both must
// agree on semantics: state persists across RunControlled calls,
// inspection never mutates, errors wrap the package sentinels, and
// RunControlled honors core.RunControl's abort/progress hooks at gate
// boundaries. What only the compressed engine can do — checkpointing,
// the statistical assertions, batched runs — is not in the contract:
// the facade reaches the *core.Simulator for it through
// Simulator.compressedOnly, the one place ErrUnsupportedOp is built for
// an engine that lacks it. Quantities the facade can derive (geometry,
// the compression ratio, ExpectationZ/ZZ and MaxCutEnergy, which are
// Observables read through DiagonalExpectation) are not in it either.
type backend interface {
	Name() string

	// Execution. RunControlled applies every gate of c in order,
	// checking ctl.PollAbort at gate boundaries (a non-nil return stops
	// execution and is wrapped in the returned error) and invoking
	// ctl.OnGate after each completed gate.
	RunControlled(c *circuit.Circuit, ctl core.RunControl) error
	Reset() error
	SetBasisState(idx uint64) error

	// Cumulative accounting.
	GatesRun() int
	Measurements() []int
	MeasurementCount() int
	FidelityLowerBound() float64
	CompressedFootprint() int64
	BytesMoved() int64
	OverBudget() bool
	Stats() Stats

	// State inspection (never mutates).
	Amplitude(idx uint64) (complex128, error)
	FullState() ([]complex128, error)
	Norm() (float64, error)
	ProbabilityOne(q int) (float64, error)
	// DiagonalExpectation is every diagonal observable's one read,
	// Σ W·⟨Z_Q⟩ + Σ W·⟨Z_A Z_B⟩ over terms the facade has checked. The
	// compressed engine reads the stored state as-is, Σ w(idx)·|a|² with
	// no renormalization of lossy norm drift, decoding each distinct
	// compact blob once and every other block once, however many terms
	// there are; mps normalizes by ⟨ψ|ψ⟩.
	DiagonalExpectation(zs []quantum.ZTerm, zzs []quantum.ZZTerm) (float64, error)

	// Shot-based readout: probability tables built once, draws from the
	// backend's seeded sampling stream.
	NewSampler() (backendSampler, error)

	// Close releases engine resources (the compressed backend's spill
	// files when WithSpill is active; a no-op everywhere else).
	Close() error
}

// backendSampler is the readout handle contract behind the public
// Sampler type.
type backendSampler interface {
	Sample(shots int) ([]uint64, error)
	TotalMass() float64
}

// compressedBackend adapts *core.Simulator to the backend interface.
// Everything is a direct delegation except NewSampler, whose concrete
// return type must be lifted to the interface.
type compressedBackend struct {
	*core.Simulator
}

func (b compressedBackend) Name() string { return BackendCompressed }

func (b compressedBackend) NewSampler() (backendSampler, error) {
	sp, err := b.Simulator.NewSampler(0)
	if err != nil {
		return nil, err
	}
	return compressedSampler{sp}, nil
}

// compressedSampler draws from the simulator's dedicated seeded
// sampling stream (the nil-rng fallback inside core).
type compressedSampler struct {
	sp *core.Sampler
}

func (s compressedSampler) Sample(shots int) ([]uint64, error) { return s.sp.Sample(nil, shots) }
func (s compressedSampler) TotalMass() float64                 { return s.sp.TotalMass() }

// pendingAuto holds a WithBackend("auto") simulator's construction
// inputs while the backend decision is still open — until the first
// Run supplies a circuit to analyze. Pre-Run inspection runs against a
// provisional MPS (see Simulator.b), and the only pre-Run mutation,
// SetBasisState, is recorded in basis so a rebuild replays it: no gate
// has executed yet, so swapping engines at decision time loses
// nothing.
type pendingAuto struct {
	qubits  int
	cfg     core.Config
	bondDim int
	basis   uint64
}

// choose picks the backend for the decision circuit (see autoRoute).
func (p *pendingAuto) choose(c *circuit.Circuit) string {
	name, _, _ := autoRoute(c, p.cfg, p.bondDim)
	return name
}

// autoRoute is the auto backend's one routing rule, shared by the first
// Run of an auto simulator and EstimateCircuit: MPS iff every gate is
// MPS-runnable, the configuration is noiseless and not the uncompressed
// baseline, and the circuit's structural bond estimate fits χ;
// compressed otherwise. It also returns the two facts it decided on.
func autoRoute(c *circuit.Circuit, cfg core.Config, chi int) (name string, runnable bool, bond int) {
	ok, _ := quantum.MPSCompatible(c)
	runnable = ok && cfg.Noise == 0 && !cfg.Uncompressed
	bond = quantum.EstimateBondDim(c)
	if runnable && bond <= chi {
		return BackendMPS, runnable, bond
	}
	return BackendCompressed, runnable, bond
}

// build constructs the chosen backend in the recorded basis state.
// Errors wrap ErrBadConfig.
func (p *pendingAuto) build(name string) (backend, error) {
	var be backend
	if name == BackendMPS {
		mb, err := newMPSBackend(p.qubits, p.bondDim, p.cfg.Seed)
		if err != nil {
			return nil, err
		}
		be = mb
	} else {
		eng, err := core.New(p.cfg)
		if err != nil {
			if errors.Is(err, ErrSpill) {
				// A spill-tier I/O failure (unwritable spill dir, disk
				// full during Reset) is not a configuration mistake;
				// keep the ErrSpill identity for errors.Is.
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		be = compressedBackend{eng}
	}
	if p.basis != 0 {
		if err := be.SetBasisState(p.basis); err != nil {
			return nil, err
		}
	}
	return be, nil
}
