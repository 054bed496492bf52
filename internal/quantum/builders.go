package quantum

import (
	"fmt"
	"math"
	"math/rand"
)

// --- Grover (paper §5.3: oracle of X and Toffoli gates) ---

// GroverQubits returns the total qubit count of a Grover circuit with an
// s-qubit search register: s search qubits plus s-3 ancillas for the
// Toffoli ladder. The paper's 61/59/47-qubit runs correspond to
// s = 32/31/25.
func GroverQubits(s int) int {
	if s < 3 {
		return s
	}
	return 2*s - 3
}

// GroverSearchQubits inverts GroverQubits for totals of the 2s-3 form.
func GroverSearchQubits(total int) (int, error) {
	if (total+3)%2 != 0 {
		return 0, fmt.Errorf("quantum: no search register gives %d total qubits (need 2s-3)", total)
	}
	s := (total + 3) / 2
	if s < 3 {
		return 0, fmt.Errorf("quantum: total %d too small for the ladder construction", total)
	}
	return s, nil
}

// Grover builds Grover's search over an s-qubit register (s ≥ 3) marking
// the basis state `marked`, running `iters` amplification iterations.
// The oracle is a phase flip on `marked` built from X gates and a
// Toffoli ladder over s-3 ancilla qubits plus one CCZ — the X+Toffoli
// oracle of the paper's benchmark. Ancillas occupy qubits s..2s-4.
func Grover(s int, marked uint64, iters int) *Circuit {
	if s < 3 {
		panic(fmt.Sprintf("quantum: Grover needs s ≥ 3, got %d", s))
	}
	if marked >= 1<<uint(s) {
		panic(fmt.Sprintf("quantum: marked state %d out of range for %d qubits", marked, s))
	}
	c := NewCircuit(GroverQubits(s))
	for q := 0; q < s; q++ {
		c.H(q)
	}
	for it := 0; it < iters; it++ {
		// Oracle: flip phase of |marked⟩.
		flipZeros(c, s, marked)
		ladderZ(c, s)
		flipZeros(c, s, marked)
		// Diffusion: 2|ψ₀⟩⟨ψ₀| - I.
		for q := 0; q < s; q++ {
			c.H(q)
		}
		for q := 0; q < s; q++ {
			c.X(q)
		}
		ladderZ(c, s)
		for q := 0; q < s; q++ {
			c.X(q)
		}
		for q := 0; q < s; q++ {
			c.H(q)
		}
	}
	return c
}

// flipZeros applies X to every search qubit whose bit in pattern is 0,
// mapping |pattern⟩ to |1...1⟩.
func flipZeros(c *Circuit, s int, pattern uint64) {
	for q := 0; q < s; q++ {
		if pattern>>uint(q)&1 == 0 {
			c.X(q)
		}
	}
}

// ladderZ applies a phase flip on |1...1⟩ of the s search qubits using a
// Toffoli ladder over ancillas s..2s-4 and a final CCZ, then uncomputes.
func ladderZ(c *Circuit, s int) {
	if s == 3 {
		c.CCZ(0, 1, 2)
		return
	}
	anc := func(i int) int { return s + i }
	// a0 = q0 AND q1; a_i = a_{i-1} AND q_{i+1}.
	c.Toffoli(0, 1, anc(0))
	for i := 1; i <= s-4; i++ {
		c.Toffoli(anc(i-1), i+1, anc(i))
	}
	c.CCZ(anc(s-4), s-2, s-1)
	for i := s - 4; i >= 1; i-- {
		c.Toffoli(anc(i-1), i+1, anc(i))
	}
	c.Toffoli(0, 1, anc(0))
}

// GroverOptimalIterations returns the amplification count that maximizes
// the success probability, ⌊π/4·√(2^s)⌋ (≥ 1).
func GroverOptimalIterations(s int) int {
	it := int(math.Floor(math.Pi / 4 * math.Sqrt(math.Exp2(float64(s)))))
	if it < 1 {
		it = 1
	}
	return it
}

// --- Google random circuit sampling (Boixo et al. 2018) ---

// Supremacy builds a rows×cols-grid random circuit with `cycles` clock
// cycles following the construction rules of the quantum-supremacy
// proposal the paper benchmarks (§5.3, depth 11 in Table 2):
//
//  1. Hadamard on every qubit.
//  2. Eight alternating CZ patterns tile the grid, one per cycle.
//  3. A qubit idle in this cycle's CZ pattern but active in the previous
//     one receives a single-qubit gate: T if it has had none yet,
//     otherwise a uniform choice of {X^1/2, Y^1/2, T} that never repeats
//     the qubit's previous single-qubit gate.
func Supremacy(rows, cols, cycles int, seed int64) *Circuit {
	n := rows * cols
	c := NewCircuit(n)
	rng := rand.New(rand.NewSource(seed))
	at := func(r, co int) int { return r*cols + co }

	for q := 0; q < n; q++ {
		c.H(q)
	}
	hadT := make([]bool, n)     // qubit already received its first T
	lastGate := make([]int, n)  // 0 none, 1 sx, 2 sy, 3 t
	inPrevCZ := make([]bool, n) // qubit took part in the previous cycle's CZ layer

	for cy := 0; cy < cycles; cy++ {
		inCZ := make([]bool, n)
		// CZ pattern for this cycle: alternate horizontal/vertical
		// neighbor pairings with shifting offsets (8-pattern tiling).
		pat := cy % 8
		horizontal := pat%2 == 0
		offset := (pat / 2) % 4
		if horizontal {
			for r := 0; r < rows; r++ {
				start := (r + offset) % 2
				for co := start; co+1 < cols; co += 2 {
					a, b := at(r, co), at(r, co+1)
					c.CZ(a, b)
					inCZ[a], inCZ[b] = true, true
				}
			}
		} else {
			for co := 0; co < cols; co++ {
				start := (co + offset) % 2
				for r := start; r+1 < rows; r += 2 {
					a, b := at(r, co), at(r+1, co)
					c.CZ(a, b)
					inCZ[a], inCZ[b] = true, true
				}
			}
		}
		// Single-qubit gates on qubits resting this cycle.
		for q := 0; q < n; q++ {
			if inCZ[q] || !inPrevCZ[q] {
				continue
			}
			if !hadT[q] {
				c.T(q)
				hadT[q] = true
				lastGate[q] = 3
				continue
			}
			for {
				pick := rng.Intn(3) + 1
				if pick == lastGate[q] {
					continue
				}
				switch pick {
				case 1:
					c.SqrtX(q)
				case 2:
					c.SqrtY(q)
				case 3:
					c.T(q)
				}
				lastGate[q] = pick
				break
			}
		}
		inPrevCZ = inCZ
	}
	return c
}

// --- QAOA MAXCUT on a random 4-regular graph (Farhi et al.; §5.3) ---

// Edge is an undirected graph edge.
type Edge struct{ U, V int }

// RandomRegularGraph returns a random d-regular simple graph on n
// vertices via the pairing model with restarts; n·d must be even and
// d < n.
func RandomRegularGraph(n, d int, seed int64) []Edge {
	if n*d%2 != 0 || d >= n || d < 1 {
		panic(fmt.Sprintf("quantum: no %d-regular graph on %d vertices", d, n))
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; ; attempt++ {
		stubs := make([]int, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		edges := make([]Edge, 0, n*d/2)
		used := map[[2]int]bool{}
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			if u > v {
				u, v = v, u
			}
			if used[[2]int{u, v}] {
				ok = false
				break
			}
			used[[2]int{u, v}] = true
			edges = append(edges, Edge{u, v})
		}
		if ok {
			return edges
		}
		if attempt > 10000 {
			panic("quantum: failed to sample a regular graph")
		}
	}
}

// QAOA builds a p-round QAOA MAXCUT circuit on a random 4-regular graph
// over n qubits: QAOAAnsatz(n, p, seed) bound at QAOAAngles(p, seed).
// Angles are drawn deterministically from seed (a real run would
// optimize them classically; the simulation cost is identical).
func QAOA(n, p int, seed int64) *Circuit {
	c, err := QAOAAnsatz(n, p, seed).Bind(QAOAAngles(p, seed))
	if err != nil {
		panic(err) // unreachable: QAOAAngles supplies all 2p parameters
	}
	return c
}

// --- Quantum Fourier transform (§5.3: the deep circuit) ---

// QFT builds the quantum Fourier transform on n qubits. Random X gates
// (from seed) prepare the input state, as in the paper's experiments;
// pass seed < 0 to skip preparation.
func QFT(n int, seed int64) *Circuit {
	c := NewCircuit(n)
	if seed >= 0 {
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < n; q++ {
			if rng.Intn(2) == 1 {
				c.X(q)
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			c.CPhase(j, i, math.Pi/math.Exp2(float64(i-j)))
		}
	}
	for i := 0; i < n/2; i++ {
		c.SWAP(i, n-1-i)
	}
	return c
}

// --- Utility workloads ---

// HadamardAll is the scaling workload of Figs. 15/16: one Hadamard per
// qubit.
func HadamardAll(n int) *Circuit {
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	return c
}

// RandomCircuit builds an unstructured random circuit of `gates` gates
// (the Fig. 5 workload): uniform mix of H/T/X/SqrtX/SqrtY and
// CZ/CNOT on random qubits.
func RandomCircuit(n, gates int, seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for len(c.Gates) < gates {
		q := rng.Intn(n)
		switch rng.Intn(7) {
		case 0:
			c.H(q)
		case 1:
			c.T(q)
		case 2:
			c.X(q)
		case 3:
			c.SqrtX(q)
		case 4:
			c.SqrtY(q)
		case 5, 6:
			p := rng.Intn(n)
			if p == q {
				p = (p + 1) % n
			}
			if rng.Intn(2) == 0 {
				c.CZ(q, p)
			} else {
				c.CNOT(q, p)
			}
		}
	}
	return c
}

// GHZ prepares the n-qubit GHZ state (test and example workload).
func GHZ(n int) *Circuit {
	c := NewCircuit(n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CNOT(q-1, q)
	}
	return c
}

// Brickwork builds a 1D brickwork entangling circuit of the given
// depth: each layer applies seeded RY rotations to every qubit, then
// nearest-neighbor CNOTs on alternating pairs. Entanglement across any
// chain cut grows by one two-qubit gate every other layer, so the
// Schmidt rank needed for exact tensor-network simulation doubles
// roughly every two layers until it saturates at 2^(n/2) — the
// controllable dial the backend-crossover experiment sweeps.
func Brickwork(n, depth int, seed int64) *Circuit {
	c := NewCircuit(n)
	rng := rand.New(rand.NewSource(seed))
	for layer := 0; layer < depth; layer++ {
		for q := 0; q < n; q++ {
			c.RY(q, rng.Float64()*math.Pi)
		}
		for q := layer % 2; q+1 < n; q += 2 {
			c.CNOT(q, q+1)
		}
	}
	return c
}
