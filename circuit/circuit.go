// Package circuit is the public circuit-construction surface of the
// qcsim module: gate-list circuits with chainable builder methods, the
// benchmark circuit generators the paper evaluates (Grover, random
// circuit sampling, QAOA, QFT), textbook algorithms, and a text
// serialization format.
//
// The types are aliases of the engine's internal representation, so a
// *circuit.Circuit feeds qcsim.Simulator.Run directly with no
// conversion. Build circuits either with the chainable methods:
//
//	c := circuit.New(3).H(0).CNOT(0, 1).CNOT(1, 2).Measure(2)
//
// or with a generator:
//
//	c := circuit.Grover(8, 0xA7, circuit.GroverOptimalIterations(8))
package circuit

import (
	"io"

	"qcsim/internal/quantum"
)

// Circuit is an ordered gate list over N qubits. Builder methods (H, X,
// CNOT, Toffoli, Measure, ...) append gates and return the circuit for
// chaining.
type Circuit = quantum.Circuit

// Gate is one element of a Circuit: a named 2×2 unitary with a target
// and optional control qubits, or a computational-basis measurement.
type Gate = quantum.Gate

// GateKind discriminates unitary gates from measurements.
type GateKind = quantum.GateKind

// KindUnitary and KindMeasure are the Gate.Kind values.
const (
	KindUnitary = quantum.KindUnitary
	KindMeasure = quantum.KindMeasure
)

// Matrix2 is a 2×2 complex matrix in row-major order — the single-qubit
// unitary applied by Circuit.Apply.
type Matrix2 = quantum.Matrix2

// Edge is an undirected graph edge, used by the QAOA/MAXCUT helpers.
type Edge = quantum.Edge

// Standard single-qubit gate matrices for Circuit.Apply and
// Circuit.ApplyControlled.
var (
	MatI     = quantum.MatI
	MatX     = quantum.MatX
	MatY     = quantum.MatY
	MatZ     = quantum.MatZ
	MatH     = quantum.MatH
	MatS     = quantum.MatS
	MatSdg   = quantum.MatSdg
	MatT     = quantum.MatT
	MatTdg   = quantum.MatTdg
	MatSqrtX = quantum.MatSqrtX
	MatSqrtY = quantum.MatSqrtY
)

// New returns an empty circuit on n qubits. It panics if n < 1.
func New(n int) *Circuit { return quantum.NewCircuit(n) }

// Parameterized single-qubit matrices.

// RX returns the rotation matrix exp(-iθX/2).
func RX(theta float64) Matrix2 { return quantum.RX(theta) }

// RY returns the rotation matrix exp(-iθY/2).
func RY(theta float64) Matrix2 { return quantum.RY(theta) }

// RZ returns the rotation matrix exp(-iθZ/2).
func RZ(theta float64) Matrix2 { return quantum.RZ(theta) }

// Phase returns diag(1, e^{iθ}).
func Phase(theta float64) Matrix2 { return quantum.Phase(theta) }

// Benchmark circuit generators (the paper's §5 workloads).

// GHZ builds the n-qubit GHZ preparation circuit.
func GHZ(n int) *Circuit { return quantum.GHZ(n) }

// HadamardAll applies H to every one of n qubits — the maximum-entropy
// worst case for the compressor.
func HadamardAll(n int) *Circuit { return quantum.HadamardAll(n) }

// QFT builds the n-qubit quantum Fourier transform over a seeded random
// input-preparation layer.
func QFT(n int, seed int64) *Circuit { return quantum.QFT(n, seed) }

// Grover builds a Grover search over an s-qubit register for the marked
// element, with the given number of amplification iterations. The
// Toffoli-ladder oracle uses s-3 ancillas: the circuit spans
// GroverQubits(s) = 2s-3 qubits.
func Grover(s int, marked uint64, iters int) *Circuit {
	return quantum.Grover(s, marked, iters)
}

// GroverQubits returns the total width 2s-3 of a Grover circuit with an
// s-qubit search register.
func GroverQubits(s int) int { return quantum.GroverQubits(s) }

// GroverSearchQubits inverts GroverQubits: the search-register width
// for a total qubit budget, or an error if no width fits.
func GroverSearchQubits(total int) (int, error) { return quantum.GroverSearchQubits(total) }

// GroverOptimalIterations returns the iteration count that maximizes
// the success probability, ⌊π/4·√(2^s)⌋.
func GroverOptimalIterations(s int) int { return quantum.GroverOptimalIterations(s) }

// Supremacy builds a random-circuit-sampling benchmark on a rows×cols
// grid with the given number of cycles (Boixo et al. 2018, the paper's
// RCS workload).
func Supremacy(rows, cols, cycles int, seed int64) *Circuit {
	return quantum.Supremacy(rows, cols, cycles, seed)
}

// QAOA builds a p-round MAXCUT QAOA circuit on n qubits over a seeded
// random 4-regular graph.
func QAOA(n, p int, seed int64) *Circuit { return quantum.QAOA(n, p, seed) }

// RandomCircuit builds a seeded circuit of `gates` uniformly random
// gates on n qubits.
func RandomCircuit(n, gates int, seed int64) *Circuit {
	return quantum.RandomCircuit(n, gates, seed)
}

// Brickwork builds a 1D brickwork entangling circuit of the given
// depth: per layer, seeded RY rotations on every qubit, then
// nearest-neighbor CNOTs on alternating pairs. Entanglement across any
// chain cut grows by one two-qubit gate every other layer — the
// controllable dial of the backend-crossover experiment, and the
// canonical workload for exploring WithBondDim.
func Brickwork(n, depth int, seed int64) *Circuit {
	return quantum.Brickwork(n, depth, seed)
}

// RandomRegularGraph returns a seeded random d-regular graph on n
// vertices — the QAOA problem instances.
func RandomRegularGraph(n, d int, seed int64) []Edge {
	return quantum.RandomRegularGraph(n, d, seed)
}

// Parameterized circuits (variational workloads).

// Param is a symbolic gate angle θ = Scale·values[Index] + Shift,
// resolved by Circuit.Bind. Build one with P and the Times/Plus
// combinators, attach it with the PRX/PRY/PRZ/PPhase builder methods.
type Param = quantum.Param

// ParamOccurrence locates one parametric gate in a circuit — the unit
// the parameter-shift rule differentiates (a parameter reused by many
// gates has many occurrences).
type ParamOccurrence = quantum.ParamOccurrence

// P returns the parameter reference θ = values[i].
func P(i int) Param { return quantum.P(i) }

// QAOAAnsatz builds the p-round MAXCUT QAOA ansatz on the same seeded
// random 4-regular graph as QAOA(n, p, seed) with symbolic angles:
// parameter 2r is round r's γ, parameter 2r+1 its β. Binding it at
// QAOAAngles(p, seed) reproduces QAOA(n, p, seed) gate for gate.
func QAOAAnsatz(n, p int, seed int64) *Circuit { return quantum.QAOAAnsatz(n, p, seed) }

// QAOAAnsatzGraph builds the p-round MAXCUT QAOA ansatz over an
// explicit edge list.
func QAOAAnsatzGraph(n, p int, edges []Edge) *Circuit {
	return quantum.QAOAAnsatzGraph(n, p, edges)
}

// QAOAAngles returns the angle vector [γ_0, β_0, γ_1, β_1, ...] the
// fixed QAOA generator draws from seed.
func QAOAAngles(p int, seed int64) []float64 { return quantum.QAOAAngles(p, seed) }

// VQEAnsatz builds a hardware-efficient VQE ansatz: `layers` rounds of
// parametric RY rotations plus CZ entangler chains, closed by a final
// RY layer ((layers+1)·n parameters).
func VQEAnsatz(n, layers int) *Circuit { return quantum.VQEAnsatz(n, layers) }

// ShapeSignature fingerprints a circuit's structure — gate kinds,
// targets, and controls, ignoring angles and matrix entries — so all
// bindings of one ansatz share one signature. qcsim.RunBatch requires
// every binding in a batch to share the base circuit's shape.
func ShapeSignature(c *Circuit) string { return quantum.ShapeSignature(c) }

// SameShape reports whether two circuits share a shape signature.
func SameShape(a, b *Circuit) bool { return quantum.SameShape(a, b) }

// Textbook algorithms.

// PhaseEstimation builds phase estimation of U = diag(1, e^{2πiφ}) with
// t counting qubits (t+1 qubits total).
func PhaseEstimation(t int, phi float64) *Circuit { return quantum.PhaseEstimation(t, phi) }

// BernsteinVazirani builds the Bernstein–Vazirani circuit recovering an
// n-bit secret (n+1 qubits total).
func BernsteinVazirani(n int, secret uint64) *Circuit {
	return quantum.BernsteinVazirani(n, secret)
}

// DeutschJozsa builds the Deutsch–Jozsa circuit for a constant or
// balanced oracle on n input qubits.
func DeutschJozsa(n int, constant bool) *Circuit { return quantum.DeutschJozsa(n, constant) }

// Transformations.

// FuseSingleQubitGates folds runs of adjacent single-qubit gates on the
// same target into one unitary. Run the result to cut the per-gate codec
// passes (and, under a lossy budget, the Eq. 11 ledger charges) in
// proportion.
func FuseSingleQubitGates(c *Circuit) *Circuit { return quantum.FuseSingleQubitGates(c) }

// Serialization: a line-oriented text format (one gate per line).

// Serialize writes c to w in the .qc text format.
func Serialize(w io.Writer, c *Circuit) error { return quantum.Serialize(w, c) }

// Parse reads a .qc text circuit from r.
func Parse(r io.Reader) (*Circuit, error) { return quantum.Parse(r) }
