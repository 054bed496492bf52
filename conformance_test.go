package qcsim

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"qcsim/circuit"
	"qcsim/internal/quantum"
)

// TestMain doubles as the TCP-transport worker binary: the transport
// conformance tests spawn copies of this test binary as rank workers,
// and the env marker routes those copies into RankWorker before any
// test runs.
func TestMain(m *testing.M) {
	if os.Getenv("QCSIM_TCP_WORKER") == "1" {
		if err := RankWorker(os.Getenv("QCSIM_COORD_ADDR")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Cross-backend conformance: the compressed engine, the MPS engine,
// and the dense quantum.State reference are three independent
// implementations of the same semantics. Over a circuit-family ×
// geometry table they must agree on amplitudes, expectation values,
// and sample distributions — the strongest correctness oracle the
// codebase has. Run under -race in CI.

type conformanceCase struct {
	name   string
	qubits int
	build  func() *circuit.Circuit
	// compressed geometries to sweep (ranks, blockAmps).
	geoms [][2]int
	// bondDim is the MPS χ — chosen ≥ 2^(n/2) so the MPS run is exact.
	bondDim int
	// noise is the WithNoise probability. Only the transport suite sets
	// it; the others compare against the noiseless dense reference.
	noise float64
}

func conformanceTable() []conformanceCase {
	return []conformanceCase{
		{
			name: "ghz10", qubits: 10,
			build:   func() *circuit.Circuit { return circuit.GHZ(10) },
			geoms:   [][2]int{{1, 64}, {2, 32}},
			bondDim: 64,
		},
		{
			name: "qft8", qubits: 8,
			build:   func() *circuit.Circuit { return circuit.QFT(8, 3) },
			geoms:   [][2]int{{1, 32}, {2, 16}},
			bondDim: 64,
		},
		{
			name: "qaoa10-shallow", qubits: 10,
			build:   func() *circuit.Circuit { return circuit.QAOA(10, 1, 5) },
			geoms:   [][2]int{{1, 64}, {4, 16}},
			bondDim: 64,
		},
	}
}

// denseReference runs the circuit on the dense reference state.
func denseReference(t *testing.T, c *circuit.Circuit) []complex128 {
	t.Helper()
	st := quantum.NewState(c.N)
	st.ApplyCircuit(c)
	return st.Amps
}

func denseExpectationZ(amps []complex128, q int) float64 {
	var z float64
	for i, a := range amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if i>>uint(q)&1 == 0 {
			z += p
		} else {
			z -= p
		}
	}
	return z
}

func denseExpectationZZ(amps []complex128, a, b int) float64 {
	var z float64
	for i, amp := range amps {
		p := real(amp)*real(amp) + imag(amp)*imag(amp)
		if (i>>uint(a)&1)^(i>>uint(b)&1) == 0 {
			z += p
		} else {
			z -= p
		}
	}
	return z
}

// backendsUnderTest builds one simulator per engine for the case.
func backendsUnderTest(t *testing.T, tc conformanceCase, seed int64) map[string]*Simulator {
	t.Helper()
	sims := make(map[string]*Simulator)
	for _, g := range tc.geoms {
		sim, err := New(tc.qubits,
			WithBackend(BackendCompressed),
			WithRanks(g[0]), WithBlockAmps(g[1]), WithSeed(seed))
		if err != nil {
			t.Fatalf("compressed r%d b%d: %v", g[0], g[1], err)
		}
		sims[fmt.Sprintf("compressed-r%db%d", g[0], g[1])] = sim
	}
	sim, err := New(tc.qubits, WithBackend(BackendMPS), WithBondDim(tc.bondDim), WithSeed(seed))
	if err != nil {
		t.Fatalf("mps: %v", err)
	}
	sims["mps"] = sim
	return sims
}

// TestConformanceAmplitudesAndExpectations checks every engine against
// the dense reference on the full amplitude vector, single- and
// two-point Z expectations, and the MAXCUT objective.
func TestConformanceAmplitudesAndExpectations(t *testing.T) {
	const tol = 1e-9
	for _, tc := range conformanceTable() {
		t.Run(tc.name, func(t *testing.T) {
			cir := tc.build()
			ref := denseReference(t, cir)
			ring := make([]circuit.Edge, tc.qubits)
			for i := range ring {
				ring[i] = circuit.Edge{U: i, V: (i + 1) % tc.qubits}
			}
			var refCut float64
			for _, e := range ring {
				refCut += (1 - denseExpectationZZ(ref, e.U, e.V)) / 2
			}
			for name, sim := range backendsUnderTest(t, tc, 1) {
				t.Run(name, func(t *testing.T) {
					if _, err := sim.Run(context.Background(), cir); err != nil {
						t.Fatal(err)
					}
					amps, err := sim.FullState()
					if err != nil {
						t.Fatal(err)
					}
					for i := range ref {
						if d := cAbs(amps[i] - ref[i]); d > tol {
							t.Fatalf("amplitude %d off by %g (%v vs %v)", i, d, amps[i], ref[i])
						}
					}
					for q := 0; q < tc.qubits; q++ {
						z, err := sim.ExpectationZ(q)
						if err != nil {
							t.Fatal(err)
						}
						if d := math.Abs(z - denseExpectationZ(ref, q)); d > tol {
							t.Fatalf("⟨Z_%d⟩ off by %g", q, d)
						}
						p1, err := sim.ProbabilityOne(q)
						if err != nil {
							t.Fatal(err)
						}
						if d := math.Abs(p1 - (1-denseExpectationZ(ref, q))/2); d > tol {
							t.Fatalf("P(q%d=1) off by %g", q, d)
						}
					}
					for a := 0; a < tc.qubits; a += 3 {
						for b := a + 1; b < tc.qubits; b += 2 {
							zz, err := sim.ExpectationZZ(a, b)
							if err != nil {
								t.Fatal(err)
							}
							if d := math.Abs(zz - denseExpectationZZ(ref, a, b)); d > tol {
								t.Fatalf("⟨Z_%d Z_%d⟩ off by %g", a, b, d)
							}
						}
					}
					cut, err := sim.MaxCutEnergy(ring)
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(cut - refCut); d > tol {
						t.Fatalf("MaxCutEnergy off by %g", d)
					}
					norm, err := sim.Norm()
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(norm - 1); d > 1e-9 {
						t.Fatalf("norm %v", norm)
					}
				})
			}
		})
	}
}

func cAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// tcpWorkerArgv marks the environment so spawned copies of this test
// binary become rank workers, and returns the argv to spawn them with.
func tcpWorkerArgv(t *testing.T) []string {
	t.Helper()
	t.Setenv("QCSIM_TCP_WORKER", "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return []string{exe}
}

// TestConformanceTransports runs every conformance circuit on the
// in-process transport and on loopback TCP (real worker processes, 2
// and 4 ranks) and requires byte-identical results: amplitudes and the
// fidelity ledger compared at the float64-bit level, the deterministic
// stats counters exactly, and the seeded sample stream draw for draw.
// A noisy case checks that the depolarizing channel reaches the workers
// with the rest of the configuration; it is a single Run, because the
// workers' noise streams restart at the seed on every distributed Run.
func TestConformanceTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const (
		seed      = int64(7)
		blockAmps = 16
		shots     = 128
	)
	argv := tcpWorkerArgv(t)
	cases := append(conformanceTable(), conformanceCase{
		name: "qft8-noisy", qubits: 8,
		build: func() *circuit.Circuit { return circuit.QFT(8, 3) },
		noise: 0.2,
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ranks := range []int{2, 4} {
				t.Run(fmt.Sprintf("r%d", ranks), func(t *testing.T) {
					cir := tc.build()
					// Workers pinned to 1: amplitudes are worker-count
					// independent, but the cache counters this test
					// compares exactly are not.
					geom := []Option{
						WithRanks(ranks), WithBlockAmps(blockAmps),
						WithWorkers(1), WithCache(8), WithSeed(seed), WithNoise(tc.noise),
					}
					ref, err := New(tc.qubits, geom...)
					if err != nil {
						t.Fatalf("in-process sim: %v", err)
					}
					defer ref.Close()
					sim, err := New(tc.qubits, append(geom,
						WithTransport(TransportTCP), WithWorkerCommand(argv...))...)
					if err != nil {
						t.Fatalf("tcp sim: %v", err)
					}
					defer sim.Close()
					if got := sim.Transport(); got != TransportTCP {
						t.Fatalf("Transport() = %q, want %q", got, TransportTCP)
					}

					refRes, err := ref.Run(context.Background(), cir)
					if err != nil {
						t.Fatalf("in-process run: %v", err)
					}
					tcpRes, err := sim.Run(context.Background(), cir)
					if err != nil {
						t.Fatalf("tcp run: %v", err)
					}

					refAmps, err := ref.FullState()
					if err != nil {
						t.Fatal(err)
					}
					tcpAmps, err := sim.FullState()
					if err != nil {
						t.Fatal(err)
					}
					for i := range refAmps {
						if math.Float64bits(real(refAmps[i])) != math.Float64bits(real(tcpAmps[i])) ||
							math.Float64bits(imag(refAmps[i])) != math.Float64bits(imag(tcpAmps[i])) {
							t.Fatalf("amplitude %d: in-process %v, tcp %v", i, refAmps[i], tcpAmps[i])
						}
					}
					if tc.noise > 0 {
						fired := false
						for i, a := range denseReference(t, cir) {
							fired = fired || cAbs(a-refAmps[i]) > 1e-6
						}
						if !fired {
							t.Fatal("no Pauli fired: the noisy case is vacuous")
						}
					}
					if math.Float64bits(refRes.FidelityLowerBound) != math.Float64bits(tcpRes.FidelityLowerBound) {
						t.Errorf("ledger: in-process %v, tcp %v", refRes.FidelityLowerBound, tcpRes.FidelityLowerBound)
					}
					if refRes.Gates != tcpRes.Gates {
						t.Errorf("gates: in-process %d, tcp %d", refRes.Gates, tcpRes.Gates)
					}
					if ref.BytesMoved() != sim.BytesMoved() {
						t.Errorf("bytes moved: in-process %d, tcp %d", ref.BytesMoved(), sim.BytesMoved())
					}
					rs, ts := refRes.Stats, tcpRes.Stats
					counters := []struct {
						name string
						w, g int64
					}{
						{"Gates", int64(rs.Gates), int64(ts.Gates)},
						{"Sweeps", int64(rs.Sweeps), int64(ts.Sweeps)},
						{"SweepGates", int64(rs.SweepGates), int64(ts.SweepGates)},
						{"CompressCalls", int64(rs.CompressCalls), int64(ts.CompressCalls)},
						{"DecompressCalls", int64(rs.DecompressCalls), int64(ts.DecompressCalls)},
						{"CacheLookups", int64(rs.CacheLookups), int64(ts.CacheLookups)},
						{"CacheHits", int64(rs.CacheHits), int64(ts.CacheHits)},
						{"Escalations", int64(rs.Escalations), int64(ts.Escalations)},
						{"FinalLevel", int64(rs.FinalLevel), int64(ts.FinalLevel)},
					}
					for _, c := range counters {
						if c.w != c.g {
							t.Errorf("Stats.%s: in-process %d, tcp %d", c.name, c.w, c.g)
						}
					}

					refDraws, err := ref.Sample(shots)
					if err != nil {
						t.Fatal(err)
					}
					tcpDraws, err := sim.Sample(shots)
					if err != nil {
						t.Fatal(err)
					}
					for i := range refDraws {
						if refDraws[i] != tcpDraws[i] {
							t.Fatalf("sample %d: in-process %d, tcp %d", i, refDraws[i], tcpDraws[i])
						}
					}
				})
			}
		})
	}
}

// TestConformanceSampleDistributions checks the per-qubit marginals of
// each backend's seeded sample stream against the dense reference
// probabilities (binomial 5σ bands), plus the exact two-outcome support
// for GHZ, plus the per-backend seeding contract: same seed ⇒
// bit-identical draws, on a rebuilt simulator.
func TestConformanceSampleDistributions(t *testing.T) {
	const shots = 8192
	for _, tc := range conformanceTable() {
		t.Run(tc.name, func(t *testing.T) {
			cir := tc.build()
			ref := denseReference(t, cir)
			for name, sim := range backendsUnderTest(t, tc, 42) {
				t.Run(name, func(t *testing.T) {
					if _, err := sim.Run(context.Background(), cir); err != nil {
						t.Fatal(err)
					}
					draws, err := sim.Sample(shots)
					if err != nil {
						t.Fatal(err)
					}
					if len(draws) != shots {
						t.Fatalf("got %d draws", len(draws))
					}
					for q := 0; q < tc.qubits; q++ {
						ones := 0
						for _, x := range draws {
							ones += int(x >> uint(q) & 1)
						}
						p := (1 - denseExpectationZ(ref, q)) / 2
						sigma := math.Sqrt(float64(shots)*p*(1-p)) + 1
						if d := math.Abs(float64(ones) - float64(shots)*p); d > 5*sigma {
							t.Fatalf("qubit %d: %d ones of %d, want ≈%g (±%g)",
								q, ones, shots, float64(shots)*p, 5*sigma)
						}
					}
					if tc.name == "ghz10" {
						all := uint64(1)<<uint(tc.qubits) - 1
						for _, x := range draws {
							if x != 0 && x != all {
								t.Fatalf("GHZ draw %b outside the two-outcome support", x)
							}
						}
					}
					// Seeding contract: a rebuilt same-seed simulator
					// reproduces the stream bit-for-bit.
					resim := backendsUnderTest(t, tc, 42)[name]
					if _, err := resim.Run(context.Background(), cir); err != nil {
						t.Fatal(err)
					}
					redraws, err := resim.Sample(shots)
					if err != nil {
						t.Fatal(err)
					}
					for i := range draws {
						if draws[i] != redraws[i] {
							t.Fatalf("same-seed rebuild diverged at draw %d", i)
						}
					}
				})
			}
		})
	}
}
