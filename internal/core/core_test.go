package core

import (
	"math"
	"math/cmplx"
	"testing"

	"qcsim/internal/quantum"
)

// geometries covers all three target-segment cases (offset, block,
// rank) for an 8-qubit register.
var geometries = []struct {
	name      string
	ranks     int
	blockAmps int
}{
	{"1rank-1block", 1, 256},
	{"1rank-4blocks", 1, 64},
	{"1rank-32blocks", 1, 8},
	{"4ranks-4blocks", 4, 16},
	{"8ranks-8blocks", 8, 4},
	{"16ranks-2blocks", 16, 8},
}

func newSim(t testing.TB, qubits, ranks, blockAmps int, extra func(*Config)) *Simulator {
	t.Helper()
	cfg := Config{Qubits: qubits, Ranks: ranks, BlockAmps: blockAmps, Seed: 1}
	if extra != nil {
		extra(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// compareToReference runs c on both engines and checks amplitudes agree
// within tol.
func compareToReference(t *testing.T, s *Simulator, c *quantum.Circuit, tol float64) {
	t.Helper()
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	ref := quantum.NewState(c.N)
	ref.ApplyCircuit(c)
	got, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-ref.Amps[i]) > tol {
			t.Fatalf("amp[%d] = %v, want %v (|Δ| = %g)", i, got[i], ref.Amps[i], cmplx.Abs(got[i]-ref.Amps[i]))
		}
	}
}

func TestLosslessMatchesReferenceAllGeometries(t *testing.T) {
	for _, g := range geometries {
		g := g
		t.Run(g.name, func(t *testing.T) {
			s := newSim(t, 8, g.ranks, g.blockAmps, nil)
			compareToReference(t, s, quantum.RandomCircuit(8, 120, 77), 1e-12)
		})
	}
}

func TestLosslessGHZAllGeometries(t *testing.T) {
	for _, g := range geometries {
		g := g
		t.Run(g.name, func(t *testing.T) {
			s := newSim(t, 8, g.ranks, g.blockAmps, nil)
			compareToReference(t, s, quantum.GHZ(8), 1e-13)
		})
	}
}

func TestEveryTargetSegment(t *testing.T) {
	// One Hadamard per qubit walks the target through offset, block,
	// and rank segments; then X on each; compare exactly.
	s := newSim(t, 8, 4, 16, nil)
	c := quantum.NewCircuit(8)
	for q := 0; q < 8; q++ {
		c.H(q)
	}
	for q := 0; q < 8; q++ {
		c.X(q)
	}
	compareToReference(t, s, c, 1e-12)
}

func TestControlsInEverySegment(t *testing.T) {
	// 9 qubits, 8 ranks (3 rank bits), 2 block bits, 4 offset bits:
	// CNOTs with controls and targets in all segment combinations.
	c := quantum.NewCircuit(9)
	for q := 0; q < 9; q++ {
		c.H(q)
	}
	pairs := [][2]int{
		{0, 1}, {0, 5}, {0, 8}, // control in offset
		{4, 0}, {4, 5}, {4, 8}, // control in block
		{7, 0}, {7, 4}, {7, 8}, // control in rank
		{8, 0}, {5, 7},
	}
	for _, p := range pairs {
		c.CNOT(p[0], p[1])
	}
	c.Toffoli(0, 4, 8) // controls spanning offset+block, target in rank
	c.Toffoli(7, 8, 0) // controls in rank segment, target in offset
	s := newSim(t, 9, 8, 16, nil)
	compareToReference(t, s, c, 1e-12)
}

func TestQFTMatchesReference(t *testing.T) {
	s := newSim(t, 7, 4, 8, nil)
	compareToReference(t, s, quantum.QFT(7, 3), 1e-11)
}

func TestGroverMatchesReference(t *testing.T) {
	cir := quantum.Grover(5, 19, quantum.GroverOptimalIterations(5))
	s := newSim(t, cir.N, 2, 16, nil)
	compareToReference(t, s, cir, 1e-10)
}

func TestSupremacyMatchesReference(t *testing.T) {
	cir := quantum.Supremacy(3, 3, 8, 4)
	s := newSim(t, cir.N, 4, 16, nil)
	compareToReference(t, s, cir, 1e-11)
}

func TestQAOAMatchesReference(t *testing.T) {
	cir := quantum.QAOA(8, 2, 5)
	s := newSim(t, 8, 2, 32, nil)
	compareToReference(t, s, cir, 1e-11)
}

func TestUncompressedBaselineMatches(t *testing.T) {
	s := newSim(t, 8, 4, 16, func(c *Config) { c.Uncompressed = true })
	compareToReference(t, s, quantum.RandomCircuit(8, 100, 9), 1e-12)
	if s.Stats().CurrentFootprint < int64(MemoryRequirement(8)) {
		t.Fatalf("uncompressed footprint %d below state size", s.Stats().CurrentFootprint)
	}
}

func TestLossyFidelityWithinLedgerBound(t *testing.T) {
	// Force lossy compression with a tight budget; the measured
	// fidelity against the dense reference must respect the ledger.
	cir := quantum.QAOA(8, 2, 6)
	s := newSim(t, 8, 2, 32, func(c *Config) {
		c.MemoryBudget = 1024 // bytes per rank — forces escalation
	})
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	if s.Stats().FinalLevel == 0 {
		t.Fatal("budget did not force lossy compression")
	}
	bound := s.FidelityLowerBound()
	if bound >= 1 {
		t.Fatal("ledger did not move despite lossy compression")
	}
	ref := quantum.NewState(8)
	ref.ApplyCircuit(cir)
	got, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	f := quantum.FidelityVec(ref.Amps, got)
	// Normalize: lossy compression shrinks the norm slightly.
	n, err := s.Norm()
	if err != nil {
		t.Fatal(err)
	}
	f /= math.Sqrt(n)
	if f < bound-1e-9 {
		t.Fatalf("measured fidelity %v below ledger bound %v", f, bound)
	}
	if f > 1+1e-9 {
		t.Fatalf("fidelity %v > 1", f)
	}
}

func TestAdaptiveEscalationProgresses(t *testing.T) {
	s := newSim(t, 10, 1, 64, func(c *Config) { c.MemoryBudget = 512 })
	if err := s.Run(quantum.RandomCircuit(10, 150, 11)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Escalations == 0 || st.FinalLevel == 0 {
		t.Fatalf("no escalation under 512-byte budget: %+v", st)
	}
	if st.FinalLevel > len(DefaultErrorLevels) {
		t.Fatalf("level %d beyond configured levels", st.FinalLevel)
	}
}

func TestLedgerMatchesEq11(t *testing.T) {
	// With budget forcing level L for all gates, the ledger should be
	// close to (1-δ_L)^gates — and never above 1 or below the
	// all-gates-at-max-level worst case.
	s := newSim(t, 8, 1, 16, func(c *Config) { c.MemoryBudget = 1 }) // escalate immediately
	cir := quantum.RandomCircuit(8, 40, 13)
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	led := s.FidelityLowerBound()
	worst := FidelityBound(constantBounds(1e-1, len(cir.Gates)))
	if led < worst-1e-12 {
		t.Fatalf("ledger %v below worst case %v", led, worst)
	}
	if led >= 1 {
		t.Fatalf("ledger %v did not decrease", led)
	}
}

func constantBounds(d float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = d
	}
	return b
}

func TestFidelityCurveMatchesClosedForm(t *testing.T) {
	for _, d := range DefaultErrorLevels {
		curve := FidelityCurve(d, 100)
		for i, f := range curve {
			want := math.Pow(1-d, float64(i+1))
			if math.Abs(f-want) > 1e-12 {
				t.Fatalf("curve(%g)[%d] = %v, want %v", d, i, f, want)
			}
		}
	}
}

func TestStateNormPreservedLossless(t *testing.T) {
	s := newSim(t, 8, 4, 16, nil)
	if err := s.Run(quantum.RandomCircuit(8, 60, 15)); err != nil {
		t.Fatal(err)
	}
	n, err := s.Norm()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n-1) > 1e-12 {
		t.Fatalf("norm = %v", n)
	}
}

func TestAmplitudeAccess(t *testing.T) {
	s := newSim(t, 6, 2, 8, nil)
	if err := s.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	a0, err := s.Amplitude(0)
	if err != nil {
		t.Fatal(err)
	}
	a63, err := s.Amplitude(63)
	if err != nil {
		t.Fatal(err)
	}
	w := 1 / math.Sqrt2
	if cmplx.Abs(a0-complex(w, 0)) > 1e-12 || cmplx.Abs(a63-complex(w, 0)) > 1e-12 {
		t.Fatalf("GHZ amplitudes: %v %v", a0, a63)
	}
	if _, err := s.Amplitude(64); err == nil {
		t.Fatal("out-of-range amplitude accepted")
	}
}

func TestSetBasisState(t *testing.T) {
	s := newSim(t, 6, 2, 8, nil)
	if err := s.SetBasisState(37); err != nil {
		t.Fatal(err)
	}
	a, err := s.Amplitude(37)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(a-1) > 1e-12 {
		t.Fatalf("amp(37) = %v", a)
	}
	n, _ := s.Norm()
	if math.Abs(n-1) > 1e-12 {
		t.Fatalf("norm = %v", n)
	}
	if err := s.SetBasisState(64); err == nil {
		t.Fatal("out-of-range basis state accepted")
	}
}

// TestSetBasisStateIsResetsInstall: SetBasisState is Reset at an index,
// one install that compresses the all-zero block once per rank and the
// block holding |idx⟩ once, R+1 calls wherever idx lies — here on rank 1,
// block 2 — and leaves the footprint of a fresh Reset.
func TestSetBasisStateIsResetsInstall(t *testing.T) {
	s := newSim(t, 6, 2, 8, nil) // offset bits 0-2, block bits 3-4, rank bit 5
	const idx = 1<<5 | 2<<3 | 5
	if r, b, _ := s.locate(idx); r != 1 || b != 2 {
		t.Fatalf("index %d is at rank %d block %d", idx, r, b)
	}
	if err := s.SetBasisState(idx); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().CompressCalls, int64(s.cfg.Ranks+1); got != want {
		t.Fatalf("SetBasisState made %d compress calls, want %d", got, want)
	}
	state, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range state {
		want := complex128(0)
		if i == idx {
			want = 1
		}
		if !sameBits(a, want) {
			t.Fatalf("amplitude %d = %v, want %v", i, a, want)
		}
	}
	fresh := newSim(t, 6, 2, 8, nil)
	if got, want := s.Stats().CurrentFootprint, fresh.Stats().CurrentFootprint; got != want {
		t.Fatalf("footprint %d, a fresh Reset's %d", got, want)
	}
}

func TestRunAccumulatesAcrossCalls(t *testing.T) {
	s := newSim(t, 4, 2, 4, nil)
	if err := s.Run(quantum.NewCircuit(4).H(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(quantum.NewCircuit(4).CNOT(0, 1)); err != nil {
		t.Fatal(err)
	}
	ref := quantum.NewState(4)
	ref.ApplyCircuit(quantum.NewCircuit(4).H(0).CNOT(0, 1))
	got, _ := s.FullState()
	for i := range got {
		if cmplx.Abs(got[i]-ref.Amps[i]) > 1e-12 {
			t.Fatalf("accumulated state wrong at %d", i)
		}
	}
	if s.GatesRun() != 2 {
		t.Fatalf("GatesRun = %d", s.GatesRun())
	}
}

func TestQubitMismatchRejected(t *testing.T) {
	s := newSim(t, 4, 1, 4, nil)
	if err := s.Run(quantum.NewCircuit(5).H(0)); err == nil {
		t.Fatal("mismatched circuit accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Qubits: 0},
		{Qubits: 70},
		{Qubits: 4, Ranks: 3},
		{Qubits: 4, Ranks: 32},      // no amplitudes per rank
		{Qubits: 4, BlockAmps: 3},   // not a power of two
		{Qubits: 4, CacheLines: -1}, // negative cache
		{Qubits: 4, ErrorLevels: []float64{1e-2, 1e-3}}, // not increasing
		// Bounds outside (0,1) used to construct and then fail at the
		// first escalation (or, at 2, drive the ledger negative).
		{Qubits: 4, ErrorLevels: []float64{0, 1e-3}},
		{Qubits: 4, ErrorLevels: []float64{-1e-3, 1e-2}},
		{Qubits: 4, ErrorLevels: []float64{math.NaN()}},
		{Qubits: 4, ErrorLevels: []float64{1e-3, math.Inf(1)}},
		{Qubits: 4, ErrorLevels: []float64{0.5, 2}},
		// The depolarizing probability lies in [0,1); NaN used to pass
		// the range check and leave the channel silently inert.
		{Qubits: 4, Noise: -0.1},
		{Qubits: 4, Noise: 1},
		{Qubits: 4, Noise: 1.5},
		{Qubits: 4, Noise: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestMemoryRequirementTable1(t *testing.T) {
	// Table 1: Theta's 0.8 PB → 45 qubits; Summit's 2.8 PB → 47.
	pb := math.Pow(2, 50)
	cases := []struct {
		mem  float64
		want int
	}{
		{2.8 * pb, 47},
		{1.38 * pb, 46},
		{1.31 * pb, 46},
		{0.8 * pb, 45},
	}
	for _, c := range cases {
		if got := MaxQubitsForMemory(c.mem); got != c.want {
			t.Fatalf("MaxQubitsForMemory(%g) = %d, want %d", c.mem, got, c.want)
		}
	}
	if MemoryRequirement(61) != math.Pow(2, 65) {
		t.Fatal("61-qubit requirement should be 32 EB = 2^65")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := newSim(t, 8, 2, 16, nil)
	if err := s.Run(quantum.RandomCircuit(8, 80, 17)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CompressTime == 0 || st.DecompressTime == 0 {
		t.Fatalf("compression time not tracked: %+v", st)
	}
	if st.CurrentFootprint <= 0 || st.MaxFootprint < st.CurrentFootprint {
		t.Fatalf("footprint accounting wrong: %+v", st)
	}
	if st.Gates != 80 {
		t.Fatalf("gates = %d", st.Gates)
	}
	if fp := s.CompressedFootprint(); fp <= 0 || fp != st.CurrentFootprint {
		t.Fatalf("compressed footprint %d, Stats.CurrentFootprint %d", fp, st.CurrentFootprint)
	}
}

func TestCommTimeOnlyWithCrossRankGates(t *testing.T) {
	// All gates on offset-segment qubits: no communication.
	s := newSim(t, 8, 4, 16, nil) // offset bits = 4
	c := quantum.NewCircuit(8)
	for i := 0; i < 10; i++ {
		c.H(i % 4).X((i + 1) % 4)
	}
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	if moved := s.BytesMoved(); moved != 0 {
		t.Fatalf("local gates moved %d bytes across ranks", moved)
	}
	// A gate on the top qubit must communicate.
	s2 := newSim(t, 8, 4, 16, nil)
	if err := s2.Run(quantum.NewCircuit(8).H(7)); err != nil {
		t.Fatal(err)
	}
	if moved := s2.BytesMoved(); moved == 0 {
		t.Fatal("cross-rank gate moved no bytes")
	}

	// H(7) and a CPhase ladder onto it: one sweep, one exchange of every
	// block. Gate at a time, each gate exchanges the blocks it fires on:
	// all of them, except that CPhase(4) and CPhase(5) fire on the blocks
	// whose block bit is set and CPhase(6) on the ranks whose bit 6 is.
	const qubits, ranks, blockAmps = 8, 4, 16
	ladder := quantum.NewCircuit(qubits).H(7)
	for j := 0; j < 7; j++ {
		ladder.CPhase(j, 7, 0.1*float64(j+1))
	}
	blocks := int64(1) << qubits / blockAmps // over all ranks
	every := blocks * blockAmps * 16         // one complex128 per amplitude
	for _, tc := range []struct {
		disable bool
		want    int64
	}{
		{false, every},
		{true, 5*every + 3*every/2},
	} {
		s := newSim(t, qubits, ranks, blockAmps, func(c *Config) { c.DisableSweeps = tc.disable })
		if err := s.Run(ladder); err != nil {
			t.Fatal(err)
		}
		if moved := s.BytesMoved(); moved != tc.want {
			t.Fatalf("sweeps off=%v: the ladder moved %d bytes, want %d (%d a full exchange)", tc.disable, moved, tc.want, every)
		}
	}
}
