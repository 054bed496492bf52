package qcsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"qcsim/circuit"
	"qcsim/internal/core"
	"qcsim/internal/quantum"
)

// Variational workloads: one parametric circuit shape, executed at K
// parameter bindings in a single batched run. RunBatch drives all K
// state variants in lockstep through the compressed engine — work the
// variants have in common, up to the gate where they part, is done once
// rather than once per variant — and Gradient builds the
// parameter-shift batch for a diagonal observable on top of it.

// ZTerm is one weighted single-qubit Pauli-Z term W·Z_Q of a diagonal
// observable.
type ZTerm = quantum.ZTerm

// ZZTerm is one weighted two-qubit correlator term W·Z_A·Z_B.
type ZZTerm = quantum.ZZTerm

// Observable is a diagonal (computational-basis) observable
// Const + Σ W·Z_Q + Σ W·Z_A·Z_B — the energy functional variational
// workloads optimize, and what ExpectationZ, ExpectationZZ and
// MaxCutEnergy read. Evaluation is a single pass over the compressed
// state regardless of the number of terms.
type Observable struct {
	Const float64
	Z     []ZTerm
	ZZ    []ZZTerm
}

// MaxCutObservable is the MAXCUT objective Σ_edges (1 - Z_u Z_v)/2 as
// an Observable, so Gradient(…, MaxCutObservable(edges)) optimizes the
// same quantity MaxCutEnergy reports.
func MaxCutObservable(edges []circuit.Edge) Observable {
	obs := Observable{Const: float64(len(edges)) / 2}
	for _, e := range edges {
		obs.ZZ = append(obs.ZZ, ZZTerm{A: e.U, B: e.V, W: -0.5})
	}
	return obs
}

// RunBatch executes the parametric circuit c at every binding in one
// batched run and returns one Result per binding, in order.
//
// Each variant starts from a clone of the simulator's CURRENT state —
// the simulator's own state is never mutated — and runs with the seed
// core.VariantSeed(seed, v): variant 0 keeps the simulator's seed, so
// its outcome is bit-identical to what Run(c.Bind(bindings[0])) would
// have produced on a fresh simulator with the same history.
//
// What the variants share, pass by pass: a variant whose gates equal
// variant 0's and whose blocks have not diverged gets the pass's output
// blobs from a content-addressed memo (Stats.CodecPassesShared). A
// variant that parts from variant 0 inside a pass — a binding that
// changes one angle — runs as a fork of variant 0's walk: the blocks'
// decode and the gates before the one that differs run once for a chunk
// of such variants, and only the variant's remaining gates and its
// recompression are its own. Stats reports VariantCount, and
// DecompressCalls shows the shared decodes. Measurement gates run in the
// same lockstep loop, variant by variant from each variant's own random
// stream. A live noise channel draws each variant's Paulis from its own
// stream before the run plans, and each variant runs the sweeps its solo
// Run would, so every variant — not only variant 0 — ends bit-identical
// to its solo Run under every codec and budget. ctx cancellation stops
// every variant at the same sweep boundary.
//
// The variant simulators stay alive for inspection through
// BatchVariants until the next RunBatch/Gradient call or Close.
// Compressed backend only: the mps backend reports ErrUnsupportedOp;
// on an undecided auto simulator a batch closes the decision on the
// compressed engine.
func (s *Simulator) RunBatch(ctx context.Context, c *circuit.Circuit, bindings [][]float64) ([]Result, error) {
	if err := s.runnable(c); err != nil {
		return nil, err
	}
	if len(bindings) == 0 {
		return nil, fmt.Errorf("%w: empty binding list", ErrBadConfig)
	}
	circuits := make([]*circuit.Circuit, len(bindings))
	for v, vals := range bindings {
		bound, err := c.Bind(vals)
		if err != nil {
			return nil, fmt.Errorf("%w: binding %d: %v", ErrBadConfig, v, err)
		}
		circuits[v] = bound
	}
	sims, results, runErr := s.runBatchCircuits(ctx, circuits)
	s.retainBatch(sims)
	if runErr != nil {
		return results, runErr
	}
	for v, cs := range sims {
		if cs.OverBudget() {
			return results, fmt.Errorf("%w: variant %d footprint %s after %d escalations", ErrBudgetExceeded,
				v, FormatBytes(float64(results[v].Footprint)), results[v].Stats.Escalations)
		}
	}
	return results, nil
}

// BatchVariants returns handles on the K variant states of the most
// recent RunBatch call, in binding order — each a read-only-by-
// convention Simulator for inspection (Amplitude, ExpectationZZ,
// Sample, ...). The handles are owned by the parent: they are closed by
// the next RunBatch/Gradient call and by Close. Nil before any batch.
func (s *Simulator) BatchVariants() []*Simulator {
	return s.batch
}

// retainBatch wraps the variant engines as facade handles, replacing
// (and closing) the previous batch.
func (s *Simulator) retainBatch(sims []*core.Simulator) {
	s.closeBatch()
	if sims == nil {
		return
	}
	s.batch = make([]*Simulator, len(sims))
	for v, cs := range sims {
		s.batch[v] = &Simulator{qubits: s.qubits, be: compressedBackend{cs}}
	}
}

// closeBatch tears down the retained variants of the previous batch.
func (s *Simulator) closeBatch() {
	for _, v := range s.batch {
		v.Close()
	}
	s.batch = nil
}

// GradientResult is the outcome of one parameter-shift gradient
// evaluation.
type GradientResult struct {
	// Energy is ⟨ψ(values)|O|ψ(values)⟩ at the unshifted binding.
	Energy float64
	// Grad is ∂Energy/∂values[i] per parameter, by the parameter-shift
	// rule (exact for the RX/RY/RZ/Phase rotation gates the parametric
	// builders emit, not a finite difference).
	Grad []float64
	// Evaluations is the batch width the gradient cost: 1 + 2 per
	// parameter occurrence in the circuit.
	Evaluations int
}

// Gradient evaluates the energy of the diagonal observable obs at
// `values` and its gradient with respect to every parameter, via the
// parameter-shift rule: for each occurrence o of a parameter in the
// circuit, grad += Scale·(E(θ_o+π/2) − E(θ_o−π/2))/2. All 1+2·#occ
// circuit variants execute as ONE RunBatch, and each shifted variant
// differs from the base in a single gate, so it runs as a fork of the
// base's walk (see RunBatch). On a 13-qubit one-round QAOA ansatz — one
// pass of 52 gates once each ZZ triple is one, 79 variants — the batch
// decodes 18 blocks instead of 158 and applies 1 847 gates to a block
// pair instead of 4 108; every variant still recompresses its own 2
// blocks.
//
// The simulator's own state is the batch's common starting point and is
// not mutated. Variant states are torn down before returning (a
// gradient's K can reach hundreds); use RunBatch directly to keep
// variants for inspection.
func (s *Simulator) Gradient(ctx context.Context, c *circuit.Circuit, values []float64, obs Observable) (*GradientResult, error) {
	if err := s.runnable(c); err != nil {
		return nil, err
	}
	// Before the batch is cloned and run: a bad term costs nothing, and
	// whatever the readout reports afterwards is a store or codec failure.
	if err := s.checkObservable(obs); err != nil {
		return nil, err
	}
	occs := c.ParamOccurrences()
	if len(occs) == 0 {
		return nil, fmt.Errorf("%w: circuit has no parameters to differentiate", ErrBadConfig)
	}
	circuits := make([]*circuit.Circuit, 0, 1+2*len(occs))
	base, err := c.Bind(values)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	circuits = append(circuits, base)
	for _, occ := range occs {
		plus, err := c.BindShift(values, occ.Gate, math.Pi/2)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		minus, err := c.BindShift(values, occ.Gate, -math.Pi/2)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		circuits = append(circuits, plus, minus)
	}
	sims, _, runErr := s.runBatchCircuits(ctx, circuits)
	defer func() {
		for _, cs := range sims {
			if cs != nil {
				cs.Close()
			}
		}
	}()
	if runErr != nil {
		return nil, runErr
	}
	energies, err := core.DiagonalExpectations(sims, obs.Z, obs.ZZ)
	if err != nil {
		return nil, fmt.Errorf("qcsim: gradient readout: %w", err)
	}
	for v := range energies {
		energies[v] += obs.Const
	}
	grad := make([]float64, c.NumParams())
	for i, occ := range occs {
		grad[occ.Index] += float64(occ.Scale * (energies[1+2*i] - energies[2+2*i]) / 2)
	}
	return &GradientResult{Energy: energies[0], Grad: grad, Evaluations: len(circuits)}, nil
}

// runBatchCircuits clones one variant engine per (already bound)
// circuit off the current state, seeds them with core.VariantSeed, and
// executes the batch. The returned engines are live (also on error —
// the completed prefix stays inspectable); the caller owns them.
func (s *Simulator) runBatchCircuits(ctx context.Context, circuits []*circuit.Circuit) ([]*core.Simulator, []Result, error) {
	eng, err := s.compressedOnly("batch", true)
	if err != nil {
		return nil, nil, err
	}
	sims := make([]*core.Simulator, len(circuits))
	for v := range circuits {
		clone, err := eng.Clone(core.VariantSeed(eng.Config().Seed, v))
		if err != nil {
			for _, cs := range sims[:v] {
				cs.Close()
			}
			return nil, nil, fmt.Errorf("%w: cloning variant %d: %v", ErrBadConfig, v, err)
		}
		sims[v] = clone
	}
	// Every clone carries the parent's gate count and measurement log.
	results, runErr := runVariants(ctx, sims, circuits, eng.GatesRun(), eng.MeasurementCount())
	return sims, results, runErr
}

// runVariants executes circuits[v] on sims[v] as one lockstep batch and
// reports one Result per variant, each covering the run since the
// given cumulative gate and measurement counts.
func runVariants(ctx context.Context, sims []*core.Simulator, circuits []*circuit.Circuit, gatesBefore, measBefore int) ([]Result, error) {
	runErr := core.RunBatch(sims, circuits, runControl(ctx, nil))
	if errors.Is(runErr, core.ErrBatchMismatch) {
		// Batch validation failures are configuration errors at the
		// public surface, same as their single-variant analogues.
		runErr = fmt.Errorf("%w: %v", ErrBadConfig, runErr)
	}
	results := make([]Result, len(sims))
	for v, cs := range sims {
		results[v] = resultSince(compressedBackend{cs}, cs.Qubits(), gatesBefore, measBefore)
	}
	return results, runErr
}
