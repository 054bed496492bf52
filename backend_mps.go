package qcsim

import (
	"fmt"
	"math/rand"
	"time"

	"qcsim/circuit"
	"qcsim/internal/core"
	"qcsim/internal/mps"
	"qcsim/internal/quantum"
)

// mpsBackend adapts internal/mps to the facade's backend contract. The
// MPS stores one 3-index tensor per qubit, capped at bond dimension χ,
// so low-entanglement circuits run in polynomial memory at register
// widths the full-state engine cannot touch; the truncated
// singular-value weight feeds the same fidelity-ledger surface as the
// compressed engine's Eq. 11 bound. A measurement or multi-controlled
// gate stops a run with internal/mps's typed rejection; the
// compressed-only operations (assertions, checkpointing, batches) never
// reach this type — see Simulator.compressedOnly.
type mpsBackend struct {
	st  *mps.State
	chi int

	gatesRun     int
	maxFootprint int64
	computeTime  time.Duration
	// version invalidates samplers across mutations, mirroring the
	// core engine's counter.
	version uint64
	// sampleRng is the dedicated seeded sampling stream (same
	// derivation as the core engine's).
	sampleRng *rand.Rand
}

func newMPSBackend(qubits, chi int, seed int64) (*mpsBackend, error) {
	if qubits > 62 {
		// Amplitude indices and sample outcomes are uint64s, so the
		// facade's register cap is 62 qubits on every backend — the
		// MPS could represent more, but could not report on them.
		return nil, fmt.Errorf("%w: %d qubits exceeds the 62-qubit register cap", ErrBadConfig, qubits)
	}
	st, err := mps.New(qubits, chi)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	b := &mpsBackend{st: st, chi: chi, sampleRng: core.SampleStream(seed)}
	b.maxFootprint = st.MemoryBytes()
	return b, nil
}

func (b *mpsBackend) Name() string { return BackendMPS }

// RunControlled applies the circuit gate-at-a-time, honoring the same
// control contract as the compressed engine: PollAbort checked before
// every gate (an abort keeps the completed prefix and wraps the hook's
// error), OnGate after every completed gate.
func (b *mpsBackend) RunControlled(c *circuit.Circuit, ctl core.RunControl) error {
	if c.N != b.st.Qubits() {
		return fmt.Errorf("%w: mps backend: circuit has %d qubits, simulator %d", ErrCircuitMismatch, c.N, b.st.Qubits())
	}
	if len(c.Gates) > 0 {
		b.version++
	}
	start := time.Now()
	defer func() {
		b.computeTime += time.Since(start)
		if fp := b.st.MemoryBytes(); fp > b.maxFootprint {
			b.maxFootprint = fp
		}
	}()
	executed := 0
	for gi, g := range c.Gates {
		if ctl.PollAbort != nil {
			if aerr := ctl.PollAbort(); aerr != nil {
				b.gatesRun += executed
				return fmt.Errorf("mps backend: run aborted after %d of %d gates: %w",
					executed, len(c.Gates), aerr)
			}
		}
		if err := b.st.ApplyGate(g); err != nil {
			b.gatesRun += executed
			return fmt.Errorf("mps backend: run failed after %d of %d gates: %w",
				executed, len(c.Gates), err)
		}
		executed++
		if ctl.OnGate != nil {
			ctl.OnGate(gi, len(c.Gates), g)
		}
	}
	b.gatesRun += executed
	return nil
}

func (b *mpsBackend) Reset() error {
	b.st.Reset()
	b.version++
	return nil
}

func (b *mpsBackend) SetBasisState(idx uint64) error {
	b.st.SetBasisState(idx)
	b.version++
	return nil
}

// Accounting. Footprint is the live tensor storage; MaxBond and the
// truncation count surface through Stats (Escalations carries the
// number of truncating SVDs — the MPS analog of lossy-bound
// escalations, each one a recorded fidelity loss).
func (b *mpsBackend) GatesRun() int               { return b.gatesRun }
func (b *mpsBackend) Measurements() []int         { return nil }
func (b *mpsBackend) MeasurementCount() int       { return 0 }
func (b *mpsBackend) FidelityLowerBound() float64 { return b.st.FidelityLowerBound() }
func (b *mpsBackend) CompressedFootprint() int64  { return b.st.MemoryBytes() }
func (b *mpsBackend) BytesMoved() int64           { return 0 }
func (b *mpsBackend) OverBudget() bool            { return false }

func (b *mpsBackend) Stats() Stats {
	return Stats{
		ComputeTime:      b.computeTime,
		Gates:            b.gatesRun,
		CurrentFootprint: b.st.MemoryBytes(),
		MaxFootprint:     b.maxFootprint,
		Escalations:      b.st.Truncations,
	}
}

// Inspection by contraction.

func (b *mpsBackend) Amplitude(idx uint64) (complex128, error) { return b.st.Amplitude(idx), nil }
func (b *mpsBackend) Norm() (float64, error)                   { return b.st.Norm(), nil }

func (b *mpsBackend) FullState() ([]complex128, error) { return b.st.Dense() }

func (b *mpsBackend) ProbabilityOne(q int) (float64, error) { return b.st.ProbabilityOne(q) }

func (b *mpsBackend) DiagonalExpectation(zs []quantum.ZTerm, zzs []quantum.ZZTerm) (float64, error) {
	return b.st.DiagonalExpectation(zs, zzs)
}

// Close: the MPS engine holds no resources beyond RAM.
func (b *mpsBackend) Close() error { return nil }

// mpsSampler adapts mps.Sampler to the facade contract: drawn from the
// backend's dedicated seeded stream and invalidated by any state
// mutation since construction.
type mpsSampler struct {
	b       *mpsBackend
	sp      *mps.Sampler
	version uint64
}

// NewSampler builds the right-environment tables in one O(n·χ³) sweep.
func (b *mpsBackend) NewSampler() (backendSampler, error) {
	sp, err := b.st.NewSampler()
	if err != nil {
		return nil, err
	}
	return &mpsSampler{b: b, sp: sp, version: b.version}, nil
}

func (s *mpsSampler) Sample(shots int) ([]uint64, error) {
	if s.version != s.b.version {
		return nil, fmt.Errorf("%w (mps backend)", ErrStaleSampler)
	}
	return s.sp.Sample(s.b.sampleRng, shots)
}

func (s *mpsSampler) TotalMass() float64 { return s.sp.TotalMass() }
