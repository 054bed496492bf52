package core

import (
	"math"
	"math/rand"

	"qcsim/internal/quantum"
)

// The depolarizing channel (Config.Noise) reads no amplitude, so a run
// draws it first, before planning and before Launch, and executes each
// variant's circuit with the Paulis that fired spliced in right after
// their gates (trajectory). From there a Pauli is an ordinary gate on its
// gate's target: it rides that gate's sweep, X runs as a swap, Y as
// real-imaginary, Z as diagonal, and it has a ledger slot of its own.
// Every rank executes the one trajectory, so a cross-rank Pauli pairs
// like any rank-target gate.

// trajectory is what one run executes. gates[v] is variant v's circuit
// with its own Paulis spliced in, and at[v] has one entry per boundary
// of that list: at[v][j] is how many circuit gates are complete, their
// Paulis included, once gates[v][:j] have run.
type trajectory struct {
	gates [][]quantum.Gate
	at    [][]int
}

// splice draws every variant's Paulis for its circuit, in gate order, and
// lays out the trajectory. With Noise 0 nothing is drawn.
func splice(sims []*Simulator, cs []*quantum.Circuit) trajectory {
	n := len(cs[0].Gates)
	t := trajectory{gates: make([][]quantum.Gate, len(sims)), at: make([][]int, len(sims))}
	plain := make([]int, n+1)
	for i := range plain {
		plain[i] = i
	}
	for v, s := range sims {
		t.gates[v], t.at[v] = cs[v].Gates, plain
		if s.cfg.Noise == 0 {
			continue
		}
		picks := make([]int, n) // 1 + the index in paulis of the Pauli that fired, 0 for none
		fired := 0
		for i, g := range cs[v].Gates {
			if g.Kind == quantum.KindUnitary {
				if picks[i] = s.drawPauli(); picks[i] > 0 {
					fired++
				}
			}
		}
		if fired == 0 {
			continue
		}
		gates, at := make([]quantum.Gate, 0, n+fired), make([]int, 1, n+fired+1)
		for i, g := range cs[v].Gates {
			gates = append(gates, g)
			if picks[i] > 0 {
				p := paulis[picks[i]-1]
				p.Target = g.Target
				gates, at = append(gates, p), append(at, i)
			}
			at = append(at, i+1)
		}
		t.gates[v], t.at[v] = gates, at
	}
	return t
}

// plans is every variant's solo plan of its own trajectory, which is what
// keeps a variant's sweeps, hence its truncations, its solo run's: a
// noisy variant's Paulis and a ZZ unit whose middle gate is diagonal in
// one variant alone part the plans, and step runs them apart there.
func (t *trajectory) plans(sims []*Simulator) [][]quantum.GroupSweep {
	plans := make([][]quantum.GroupSweep, len(sims))
	for v, s := range sims {
		plans[v] = s.planSweeps(t.gates[v])
	}
	return plans
}

// paulis is what a pick puts after its gate, on the gate's target.
var paulis = [3]quantum.Gate{
	{Name: "noise-x", U: quantum.MatX},
	{Name: "noise-y", U: quantum.MatY},
	{Name: "noise-z", U: quantum.MatZ},
}

// gateStart reports whether gate j of variant v's list is a circuit gate,
// not a Pauli: a boundary where a run may stop.
func (t *trajectory) gateStart(v, j int) bool { return j == 0 || t.at[v][j] > t.at[v][j-1] }

// place is where boundary j of variant v's list lies on the circuit's
// line, on which 2g+1 is right after circuit gate g and 2g+2 after its
// Pauli: one point, or both (lo < hi) where g has no Pauli in v.
func (t *trajectory) place(v, j int) (lo, hi int) {
	at := t.at[v]
	switch {
	case !t.gateStart(v, j): // between a gate and its Pauli
		return 2*at[j] + 1, 2*at[j] + 1
	case j > 0 && t.gateStart(v, j-1): // right after a gate with none
		return 2*at[j] - 1, 2 * at[j]
	}
	return 2 * at[j], 2 * at[j]
}

// step appends to into the variants whose next sweep runs now: each
// variant v is at sweep next[v] of plans[v], and the step runs every
// variant whose sweep can end where the earliest-ending one must, so
// variants whose plans agree go together and share their pass.
func (t *trajectory) step(plans [][]quantum.GroupSweep, next, into []int) []int {
	end := math.MaxInt
	for v, k := range next {
		if k < len(plans[v]) {
			_, hi := t.place(v, plans[v][k].End)
			end = min(end, hi)
		}
	}
	for v, k := range next {
		if k < len(plans[v]) {
			if lo, _ := t.place(v, plans[v][k].End); lo <= end {
				into = append(into, v)
			}
		}
	}
	return into
}

// aligned reports whether every variant stands at a circuit gate, the
// same one, having run gates[v][:bound[v]]: a boundary where the run
// may stop.
func (t *trajectory) aligned(bound []int) bool {
	for v, j := range bound {
		if !t.gateStart(v, j) || t.at[v][j] != t.at[0][bound[0]] {
			return false
		}
	}
	return true
}

// drawPauli is one unitary gate's draw, (u, pick), from the noise
// stream, seeded on first use: 1 + the index in paulis of the Pauli that
// fired, or 0 for none. It costs two draws whether or not the Pauli
// fires, so the stream's position counts the gates drawn for.
func (s *Simulator) drawPauli() int {
	if s.noise == nil {
		s.noise = rand.New(rand.NewSource(s.cfg.Seed ^ 0x9E3779B9))
	}
	s.noiseDraws++
	if u, pick := s.noise.Float64(), s.noise.Intn(3); u < s.cfg.Noise {
		return 1 + pick
	}
	return 0
}

// rewindNoise takes back the draws for undone, the circuit gates a run
// drew for and did not complete: the stream is reseeded and the draws it
// keeps are replayed, so the next Run draws what an uninterrupted run
// would have.
func (s *Simulator) rewindNoise(undone []quantum.Gate) {
	keep := s.noiseDraws
	for _, g := range undone {
		if g.Kind == quantum.KindUnitary {
			keep--
		}
	}
	if s.noise == nil || keep == s.noiseDraws {
		return
	}
	s.noise, s.noiseDraws = nil, 0
	for range keep {
		s.drawPauli()
	}
}
