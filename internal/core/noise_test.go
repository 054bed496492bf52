package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qcsim/internal/quantum"
)

// noisyCircuit is a 6-qubit circuit with targets in every segment of the
// 8-amplitude test geometry (offset 0–2; on 2 ranks qubit 5 is the rank
// qubit), two ZZ units (v a block qubit, then the rank qubit) and two
// measurements, one of the rank qubit.
func noisyCircuit() *quantum.Circuit {
	c := quantum.NewCircuit(6).H(0).H(3).H(5).CNOT(3, 4).RZ(4, 0.7).CNOT(3, 4).CNOT(0, 5).RZ(5, -0.4).CNOT(0, 5)
	return c.Measure(2).RX(1, 0.9).CNOT(5, 1).H(5).T(0).Measure(5).RY(4, 0.3).CZ(1, 3)
}

// assertSameRun holds b to a under a ZZ unit's ±0 rule (sweep.go): state,
// measurement log and ledger.
func assertSameRun(t *testing.T, a, b *Simulator, label string) {
	t.Helper()
	if _, err := zeroSignFlips(a, b); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(a.Measurements(), b.Measurements()) {
		t.Fatalf("%s: measurements %v vs %v", label, a.Measurements(), b.Measurements())
	}
	if a.FidelityLowerBound() != b.FidelityLowerBound() {
		t.Fatalf("%s: ledger %v vs %v", label, a.FidelityLowerBound(), b.FidelityLowerBound())
	}
}

// firedPaulis is how many Paulis a run of c on fresh simulators of cfg
// would splice in, over all k variants: drawn on twins, so the
// simulators under test keep their streams.
func firedPaulis(t *testing.T, ranks, k int, cfg func(*Config), c *quantum.Circuit) (n int) {
	traj := splice(batchSims(t, c.N, ranks, 8, k, cfg), repeatCircuit(c, k))
	for _, gates := range traj.gates {
		n += len(gates) - len(c.Gates)
	}
	return n
}

// TestNoiseKeepsSweeps: a noise channel keeps the group sweeps.
// A noisy run reports group sweeps, and when no Pauli fires it runs the
// noise-free run's plan, codec calls and bits, having drawn for every
// unitary gate.
func TestNoiseKeepsSweeps(t *testing.T) {
	cir := noisyCircuit()
	noisy := newSim(t, 6, 2, 8, func(c *Config) { c.Noise = 0.1 })
	if err := noisy.Run(cir); err != nil {
		t.Fatal(err)
	}
	if st := noisy.Stats(); st.Sweeps == 0 {
		t.Fatalf("a noisy run fell back to one-gate sweeps: %+v", st)
	}
	quiet := func(c *Config) { c.Noise = 1e-300 } // live, and never fires
	if n := firedPaulis(t, 2, 1, quiet, cir); n != 0 {
		t.Fatalf("%d Paulis fired at p = 1e-300; test is vacuous", n)
	}
	a := newSim(t, 6, 2, 8, quiet)
	b := newSim(t, 6, 2, 8, nil)
	for _, s := range []*Simulator{a, b} {
		if err := s.Run(cir); err != nil {
			t.Fatal(err)
		}
	}
	assertBitIdentical(t, a, b, "no Pauli fired vs noise-free")
	sa, sb := a.Stats(), b.Stats()
	if sa.Sweeps != sb.Sweeps || sa.SweepGates != sb.SweepGates || sa.CompressCalls != sb.CompressCalls || sa.DecompressCalls != sb.DecompressCalls {
		t.Fatalf("the quiet noisy run's plan differs from the noise-free one: %+v vs %+v", sa, sb)
	}
	if want := len(cir.Gates) - 2; a.noiseDraws != want {
		t.Fatalf("the noise stream drew for %d gates, want %d (every unitary)", a.noiseDraws, want)
	}
}

// TestNoisePauliSharesItsGatesSweep: a Pauli the channel fires is a gate
// of its gate's sweep, so it shares that sweep's recompression and its
// ledger charge — for a target in each index segment (offset, block,
// rank). The expected ledger is one (1−δ) factor per sweep of the plan
// over the trajectory, Paulis included.
func TestNoisePauliSharesItsGatesSweep(t *testing.T) {
	// Noise one ulp below 1: every Pauli fires.
	s := newSim(t, 8, 2, 8, func(c *Config) { c.MemoryBudget, c.Noise = 1, math.Nextafter(1, 0) })
	// A budget nothing fits exhausts the ladder: every later boundary
	// runs at the loosest level and settles no requantize round.
	if err := s.Run(quantum.QFT(8, 1)); err != nil {
		t.Fatal(err)
	}
	if !s.OverBudget() {
		t.Fatal("the ladder is not exhausted; test is vacuous")
	}
	cir := quantum.NewCircuit(8).H(0).H(4).H(7)
	// The trajectory: each gate, then a Pauli on its target. Which Pauli
	// fires moves no sweep boundary (the planner reads targets).
	var traj []quantum.Gate
	for _, g := range cir.Gates {
		z := paulis[2]
		z.Target = g.Target
		traj = append(traj, g, z)
	}
	plan := s.planSweeps(traj)
	for _, sw := range plan {
		if sw.Start%2 != 0 {
			t.Fatalf("plan %v starts a sweep at a Pauli: it does not ride its gate's sweep", plan)
		}
	}
	want := s.FidelityLowerBound()
	keep := 1 - s.cfg.ErrorLevels[len(s.cfg.ErrorLevels)-1]
	for range plan {
		want *= keep
	}
	sweeps, gates := s.Stats().Sweeps, s.GatesRun()
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	if got := s.FidelityLowerBound(); got != want {
		t.Fatalf("ledger %v after %d noisy gates in %d sweeps at the loosest level, want %v (one charge a sweep)",
			got, len(cir.Gates), len(plan), want)
	}
	if st := s.Stats(); st.Sweeps-sweeps != len(plan) || s.GatesRun()-gates != len(cir.Gates) {
		t.Fatalf("%d sweeps and %d gates run, want %d and %d", st.Sweeps-sweeps, s.GatesRun()-gates, len(plan), len(cir.Gates))
	}
}

// TestNoiseSweepsMatchGateAtATime: a seeded noisy lossless run with the
// sweep scheduler equals the same run with DisableSweeps under the ±0
// rule — state, measurements and ledger — solo and K = 3, on 1 and 2
// ranks: the Paulis are drawn before planning, so both schedules execute
// the one trajectory.
func TestNoiseSweepsMatchGateAtATime(t *testing.T) {
	cir := noisyCircuit()
	fired := 0
	for seed := int64(1); seed <= 10; seed++ {
		for _, ranks := range []int{1, 2} {
			for _, k := range []int{1, 3} {
				cfg := func(disable bool) func(*Config) {
					return func(c *Config) { c.Seed, c.Noise, c.Workers, c.DisableSweeps = seed, 0.2, 2, disable }
				}
				fired += firedPaulis(t, ranks, k, cfg(false), cir)
				on, off := batchSims(t, 6, ranks, 8, k, cfg(false)), batchSims(t, 6, ranks, 8, k, cfg(true))
				for _, sims := range [][]*Simulator{on, off} {
					var err error
					if k == 1 {
						err = sims[0].Run(cir)
					} else {
						err = RunBatch(sims, repeatCircuit(cir, k), RunControl{})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if on[0].Stats().Sweeps == 0 {
					t.Fatalf("seed %d ranks %d K=%d: the scheduler ran no group sweep", seed, ranks, k)
				}
				for v := range on {
					assertSameRun(t, on[v], off[v], fmt.Sprintf("seed %d ranks %d K=%d variant %d, sweeps on vs off", seed, ranks, k, v))
				}
			}
		}
	}
	if fired < 40 {
		t.Fatalf("%d Pauli slots over 40 runs; test is close to vacuous", fired)
	}
}

// TestNoiseHooksAndAbort: under noise the hooks report the user's
// circuit. OnGate fires once per circuit gate, in order, with total
// len(c.Gates), never for a Pauli; and a run aborted at any boundary,
// then given the rest of the circuit, equals the uninterrupted run — in
// amplitudes, measurements and the Paulis a further Run fires, which
// holds the stream's rewind to the completed prefix. Solo and K = 3, with
// the scheduler on and off (then every Pauli is a sweep of its own, and
// no abort may fall between it and its gate).
func TestNoiseHooksAndAbort(t *testing.T) {
	cir := noisyCircuit()
	next := quantum.NewCircuit(6).H(5).CNOT(5, 0).RX(3, 0.7).H(1)
	errStop := errors.New("stop")
	for _, disable := range []bool{false, true} {
		for _, k := range []int{1, 3} {
			cfg := func(c *Config) { c.Seed, c.Noise, c.DisableSweeps = 7, 0.2, disable }
			if firedPaulis(t, 2, k, cfg, cir) == 0 {
				t.Fatal("no Pauli fired; test is vacuous")
			}
			run := func(sims []*Simulator, c *quantum.Circuit, ctl RunControl) error {
				return RunBatch(sims, repeatCircuit(c, k), ctl)
			}
			ref := batchSims(t, 6, 2, 8, k, cfg)
			var seen []int
			err := run(ref, cir, RunControl{OnGate: func(gi, total int, g quantum.Gate) {
				if total != len(cir.Gates) || !reflect.DeepEqual(g, cir.Gates[gi]) {
					t.Errorf("OnGate(%d, %d, %v): not circuit gate %d of %d", gi, total, g, gi, len(cir.Gates))
				}
				seen = append(seen, gi)
			}})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, len(cir.Gates))
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(seen, want) {
				t.Fatalf("sweeps off=%v K=%d: OnGate saw gates %v, want %v", disable, k, seen, want)
			}
			if err := run(ref, next, RunControl{}); err != nil {
				t.Fatal(err)
			}
			stops := 0
			for ; ; stops++ {
				sims := batchSims(t, 6, 2, 8, k, cfg)
				polls := 0
				err := run(sims, cir, RunControl{PollAbort: func() error {
					if polls == stops {
						return errStop
					}
					polls++
					return nil
				}})
				if err == nil {
					break // past the last boundary
				}
				if !errors.Is(err, errStop) {
					t.Fatal(err)
				}
				done := sims[0].GatesRun()
				if err := run(sims, &quantum.Circuit{N: cir.N, Gates: cir.Gates[done:]}, RunControl{}); err != nil {
					t.Fatal(err)
				}
				if err := run(sims, next, RunControl{}); err != nil {
					t.Fatal(err)
				}
				for v, s := range sims {
					label := fmt.Sprintf("sweeps off=%v K=%d variant %d, abort after %d gates", disable, k, v, done)
					assertSameRun(t, ref[v], s, label)
					if s.noiseDraws != ref[v].noiseDraws || s.GatesRun() != ref[v].GatesRun() {
						t.Fatalf("%s: %d draws and %d gates, want %d and %d", label, s.noiseDraws, s.GatesRun(), ref[v].noiseDraws, ref[v].GatesRun())
					}
				}
			}
			if stops < 3 {
				t.Fatalf("sweeps off=%v K=%d: only %d abort boundaries; test is vacuous", disable, k, stops)
			}
		}
	}
}

// TestNoiseStreamPosition: the channel's contract — per unitary gate,
// (u, pick) from one stream seeded Seed ^ 0x9E3779B9, the Pauli after
// its gate where u < p, a measurement drawing nothing. Two
// Runs on one simulator fire exactly the Paulis a dense reference
// applying that rule gate by gate fires, and after each the stream sits
// two draws per executed unitary gate in.
func TestNoiseStreamPosition(t *testing.T) {
	const seed, p = 11, 0.3
	cir := quantum.NewCircuit(6).H(0).H(3).CNOT(3, 5).Measure(1).RX(5, 0.4).H(2).CZ(0, 4)
	s := newSim(t, 6, 2, 8, func(c *Config) { c.Seed, c.Noise = seed, p })
	rng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	ref := quantum.NewState(6)
	fired, measured := 0, 0
	for round := range 2 {
		if err := s.Run(cir); err != nil {
			t.Fatal(err)
		}
		for _, g := range cir.Gates {
			if g.Kind == quantum.KindMeasure {
				ref.Collapse(g.Target, s.Measurements()[measured], ref.ProbabilityOne(g.Target))
				measured++
				continue
			}
			ref.ApplyGate(g)
			if u, pick := rng.Float64(), rng.Intn(3); u < p {
				pauli := paulis[pick]
				pauli.Target = g.Target
				ref.ApplyGate(pauli)
				fired++
			}
		}
		got, err := s.FullState()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range got {
			if cmplx.Abs(a-ref.Amps[i]) > 1e-12 {
				t.Fatalf("run %d: amplitude %d = %v, the reference channel gives %v", round, i, a, ref.Amps[i])
			}
		}
	}
	if fired == 0 {
		t.Fatal("no Pauli fired; test is vacuous")
	}
	if want := 2 * (len(cir.Gates) - 1); s.noiseDraws != want {
		t.Fatalf("the stream drew for %d gates, want %d", s.noiseDraws, want)
	}
	if got, want := s.noise.Int63(), rng.Int63(); got != want {
		t.Fatalf("the stream's next draw is %d, the reference's %d", got, want)
	}
}

// TestTrajectoryStepsKeepVariantsTogether: the run loop's steps put
// together the variants whose sweeps end at one place in the circuit. A
// gate ends where its Pauli would in a variant that has none, so under
// one-gate sweeps both variants run the gate together and the Pauli
// goes alone, and under group sweeps the one pass holds both variants;
// the loop may stop only where both stand at the same circuit gate.
func TestTrajectoryStepsKeepVariantsTogether(t *testing.T) {
	cir := quantum.NewCircuit(3).H(0).H(1).H(2).Gates
	z := paulis[2]
	z.Target = 1
	traj := trajectory{
		gates: [][]quantum.Gate{cir, {cir[0], cir[1], z, cir[2]}},
		at:    [][]int{{0, 1, 2, 3}, {0, 1, 1, 2, 3}},
	}
	for _, tc := range []struct {
		plans [][]quantum.GroupSweep
		steps [][]int
		stops []bool
	}{
		{
			[][]quantum.GroupSweep{quantum.SingletonSweeps(traj.gates[0]), quantum.SingletonSweeps(traj.gates[1])},
			[][]int{{0, 1}, {0, 1}, {1}, {0, 1}},
			[]bool{true, true, false, true},
		},
		{
			[][]quantum.GroupSweep{{{Start: 0, End: 3, Pass: true}}, {{Start: 0, End: 4, Pass: true}}},
			[][]int{{0, 1}},
			[]bool{true},
		},
	} {
		next, bound := make([]int, 2), make([]int, 2)
		var steps [][]int
		var stops []bool
		for {
			step := traj.step(tc.plans, next, nil)
			if len(step) == 0 {
				break
			}
			steps, stops = append(steps, step), append(stops, traj.aligned(bound))
			for _, v := range step {
				next[v], bound[v] = next[v]+1, tc.plans[v][next[v]].End
			}
		}
		if !reflect.DeepEqual(steps, tc.steps) || !slices.Equal(stops, tc.stops) {
			t.Fatalf("plans %v: steps %v stopping at %v, want %v at %v", tc.plans, steps, stops, tc.steps, tc.stops)
		}
	}
}
