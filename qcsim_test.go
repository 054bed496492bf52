package qcsim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"qcsim/circuit"
	"qcsim/internal/core"
)

// TestOptionRoundTrip checks that every functional option lands in the
// engine configuration the facade resolves.
func TestOptionRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		opts  []Option
		check func(core.Config) bool
	}{
		{"WithRanks", []Option{WithRanks(2)}, func(c core.Config) bool { return c.Ranks == 2 }},
		// Workers are clamped to the per-rank block count, so give the
		// pool enough blocks to keep the requested width.
		{"WithWorkers", []Option{WithWorkers(3), WithBlockAmps(64)}, func(c core.Config) bool { return c.Workers == 3 }},
		{"WithBlockAmps", []Option{WithBlockAmps(128)}, func(c core.Config) bool { return c.BlockAmps == 128 }},
		{"WithMemoryBudget", []Option{WithMemoryBudget(1 << 20)}, func(c core.Config) bool { return c.MemoryBudget == 1<<20 }},
		{"WithErrorLevels", []Option{WithErrorLevels(1e-4, 1e-2)}, func(c core.Config) bool {
			return len(c.ErrorLevels) == 2 && c.ErrorLevels[0] == 1e-4 && c.ErrorLevels[1] == 1e-2
		}},
		{"WithCodec", []Option{WithCodec("sz-b")}, func(c core.Config) bool { return c.Lossy != nil && c.Lossy.Name() == "sz-b" }},
		{"WithCodecAlias", []Option{WithCodec("solution-d")}, func(c core.Config) bool { return c.Lossy != nil && c.Lossy.Name() == "xor-d" }},
		{"WithCache", []Option{WithCache(8)}, func(c core.Config) bool { return c.CacheLines == 8 }},
		{"WithCacheDefault", nil, func(c core.Config) bool { return c.CacheLines == 64 }},
		{"WithCacheOff", []Option{WithCache(0)}, func(c core.Config) bool { return c.CacheLines == 0 }},
		{"WithSeed", []Option{WithSeed(99)}, func(c core.Config) bool { return c.Seed == 99 }},
		{"WithNoise", []Option{WithNoise(0.2)}, func(c core.Config) bool { return c.Noise == 0.2 }},
		{"WithSweepsDefaultOn", nil, func(c core.Config) bool { return !c.DisableSweeps }},
		{"WithSweepsOff", []Option{WithSweeps(false)}, func(c core.Config) bool { return c.DisableSweeps }},
		{"WithSweepsOn", []Option{WithSweeps(false), WithSweeps(true)}, func(c core.Config) bool { return !c.DisableSweeps }},
		{"WithUncompressed", []Option{WithUncompressed(true)}, func(c core.Config) bool { return c.Uncompressed }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(10, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if cfg := sim.be.(compressedBackend).Config(); !tc.check(cfg) {
				t.Fatalf("option did not round-trip into core.Config: %+v", cfg)
			}
		})
	}
}

// TestNewRunsCached holds New to the §3.4 cache without an option: a
// GHZ state's blocks repeat, so the default cache hits and saves codec
// calls that WithCache(0) pays.
func TestNewRunsCached(t *testing.T) {
	stats := func(opts ...Option) Stats {
		t.Helper()
		sim, err := New(20, append([]Option{WithWorkers(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if _, err := sim.Run(context.Background(), circuit.GHZ(20)); err != nil {
			t.Fatal(err)
		}
		return sim.Stats()
	}
	on, off := stats(), stats(WithCache(0))
	if on.CacheHits == 0 || on.CompressCalls >= off.CompressCalls {
		t.Fatalf("default: %d cache hits, %d compress calls; WithCache(0): %d compress calls",
			on.CacheHits, on.CompressCalls, off.CompressCalls)
	}
}

// TestFacadeMatchesCore is the acceptance property: qcsim.New + Run
// reproduce bit-identical amplitudes, measurement outcomes, and the
// fidelity ledger versus driving internal/core directly with the same
// configuration and seed.
func TestFacadeMatchesCore(t *testing.T) {
	const n, seed = 10, 12345
	cir := circuit.RandomCircuit(n, 80, 7)
	cir.Measure(3)
	cir.H(0).CNOT(0, 9) // keep evolving the collapsed state
	req := MemoryRequirement(n)
	budget := int64(req * 0.25 / 2)

	facade, err := New(n,
		WithRanks(2), WithBlockAmps(256), WithMemoryBudget(budget),
		WithCache(16), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := facade.Run(context.Background(), cir)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal(err)
	}

	direct, err := core.New(core.Config{
		Qubits: n, Ranks: 2, BlockAmps: 256, MemoryBudget: budget,
		CacheLines: 16, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.Run(cir); err != nil {
		t.Fatal(err)
	}

	fa, err := facade.FullState()
	if err != nil {
		t.Fatal(err)
	}
	da, err := direct.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fa {
		if fa[i] != da[i] {
			t.Fatalf("amplitude %d diverges: facade %v, core %v", i, fa[i], da[i])
		}
	}
	if got, want := facade.FidelityLowerBound(), direct.FidelityLowerBound(); got != want {
		t.Fatalf("ledger diverges: facade %v, core %v", got, want)
	}
	fm, dm := facade.Measurements(), direct.Measurements()
	if len(fm) != len(dm) {
		t.Fatalf("measurement counts diverge: %d vs %d", len(fm), len(dm))
	}
	for i := range fm {
		if fm[i] != dm[i] {
			t.Fatalf("measurement %d diverges: %d vs %d", i, fm[i], dm[i])
		}
	}
	if res.Gates != direct.GatesRun() {
		t.Fatalf("gates executed diverge: %d vs %d", res.Gates, direct.GatesRun())
	}
}

// TestRunCancellation aborts mid-circuit via the context and checks the
// run stops between gates with a wrapped context.Canceled, leaving the
// simulator fully inspectable.
func TestRunCancellation(t *testing.T) {
	const n = 12
	c := circuit.New(n)
	for i := 0; i < 20; i++ {
		for q := 0; q < n; q++ {
			c.H(q)
		}
	}
	total := len(c.Gates)

	sim, err := New(n, WithRanks(2), WithBlockAmps(256), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 5
	res, err := sim.RunProgress(ctx, c, func(ev ProgressEvent) {
		if ev.Gate == stopAfter-1 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	if res.Gates < stopAfter || res.Gates >= total {
		t.Fatalf("executed %d gates, want a strict prefix ≥ %d of %d", res.Gates, stopAfter, total)
	}
	if sim.GatesRun() != res.Gates {
		t.Fatalf("GatesRun %d != result gates %d", sim.GatesRun(), res.Gates)
	}
	// The simulator must still be inspectable and normalized.
	norm, err := sim.Norm()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("norm %v after cancellation", norm)
	}
	if _, err := sim.Amplitude(0); err != nil {
		t.Fatal(err)
	}
	// And it can finish the remaining gates on a fresh context.
	rest := &circuit.Circuit{N: n, Gates: c.Gates[res.Gates:]}
	if _, err := sim.Run(context.Background(), rest); err != nil {
		t.Fatal(err)
	}
	if sim.GatesRun() != total {
		t.Fatalf("resumed run executed %d total gates, want %d", sim.GatesRun(), total)
	}
	// 40 H layers = identity: back to |0...0⟩ up to float error.
	a0, err := sim.Amplitude(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(a0)-1) > 1e-6 || math.Abs(imag(a0)) > 1e-6 {
		t.Fatalf("⟨0|ψ⟩ = %v after resumed identity circuit", a0)
	}
}

// TestPreCancelledContext: a context cancelled before Run starts must
// execute zero gates.
func TestPreCancelledContext(t *testing.T) {
	sim, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sim.Run(ctx, circuit.GHZ(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res.Gates != 0 || sim.GatesRun() != 0 {
		t.Fatalf("pre-cancelled run executed %d gates", res.Gates)
	}
}

// TestBackgroundContextIdentical: Run with context.Background must be
// bit-identical to the hook-free engine path (no abort broadcasts).
func TestBackgroundContextIdentical(t *testing.T) {
	cir := circuit.RandomCircuit(8, 40, 3)
	a, err := New(8, WithRanks(2), WithBlockAmps(64), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(context.Background(), cir); err != nil {
		t.Fatal(err)
	}
	b, err := core.New(core.Config{Qubits: 8, Ranks: 2, BlockAmps: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(cir); err != nil {
		t.Fatal(err)
	}
	av, _ := a.FullState()
	bv, _ := b.FullState()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("amplitude %d diverges under background context", i)
		}
	}
}

// TestRunProgressEvents checks every gate reports exactly one event in
// order.
func TestRunProgressEvents(t *testing.T) {
	cir := circuit.GHZ(6)
	sim, err := New(6, WithRanks(2), WithBlockAmps(8))
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	res, err := sim.RunProgress(context.Background(), cir, func(ev ProgressEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Gates || res.Gates != len(cir.Gates) {
		t.Fatalf("%d events for %d gates", len(events), res.Gates)
	}
	for i, ev := range events {
		if ev.Gate != i || ev.Total != len(cir.Gates) || ev.Name == "" {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
	}
}

// TestBudgetExceeded forces the escalation ladder to exhaust and checks
// the sentinel plus that the simulator stays inspectable.
func TestBudgetExceeded(t *testing.T) {
	sim, err := New(10, WithBlockAmps(64), WithMemoryBudget(1), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	// The budget holds at every sweep boundary: the first boundary that
	// finds the state over budget escalates and requantizes until it
	// fits or the ladder is exhausted, so the first run already trips
	// the sentinel (a one-byte budget fits nothing).
	res, err := sim.Run(context.Background(), circuit.HadamardAll(10))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error %v does not wrap ErrBudgetExceeded", err)
	}
	if res == nil || res.Stats.Escalations == 0 || res.FidelityLowerBound >= 1 {
		t.Fatalf("result does not reflect the lossy run: %+v", res)
	}
	norm, err := sim.Norm()
	if err != nil {
		t.Fatal(err)
	}
	// The loosest bound is 1e-1 pointwise-relative: the norm survives
	// within that slack.
	if math.Abs(norm-1) > 0.5 {
		t.Fatalf("norm %v after over-budget run", norm)
	}
}

// TestSnapshotAndResultAgree cross-checks the two inspection surfaces.
func TestSnapshotAndResultAgree(t *testing.T) {
	sim, err := New(8, WithRanks(2), WithBlockAmps(32), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.QFT(8, 11)
	c.Measure(0)
	res, err := sim.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()
	if snap.GatesRun != res.Gates {
		t.Fatalf("snapshot gates %d, result %d", snap.GatesRun, res.Gates)
	}
	if snap.FidelityLowerBound != res.FidelityLowerBound {
		t.Fatal("fidelity mismatch between snapshot and result")
	}
	if snap.Footprint != res.Footprint {
		t.Fatal("footprint mismatch between snapshot and result")
	}
	if len(snap.Measurements) != 1 || len(res.Measurements) != 1 ||
		snap.Measurements[0] != res.Measurements[0] {
		t.Fatalf("measurements diverge: snapshot %v, result %v", snap.Measurements, res.Measurements)
	}
	if snap.Qubits != 8 || snap.MaxFootprint == 0 {
		t.Fatalf("snapshot malformed: %+v", snap)
	}
}

// TestSampleSeededDeterministic: Sample uses the simulator's own seeded
// stream — same seed, same draws; no caller rng anywhere.
func TestSampleSeededDeterministic(t *testing.T) {
	draw := func() []uint64 {
		sim, err := New(8, WithSeed(31))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(context.Background(), circuit.HadamardAll(8)); err != nil {
			t.Fatal(err)
		}
		out, err := sim.Sample(64)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverges: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSampleDoesNotPerturbMeasurements: sampling is a pure read — it
// draws from a dedicated stream, so measurement outcomes after a
// Sample call match a run that never sampled.
func TestSampleDoesNotPerturbMeasurements(t *testing.T) {
	outcomes := func(sample bool) []int {
		sim, err := New(6, WithSeed(17))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(context.Background(), circuit.HadamardAll(6)); err != nil {
			t.Fatal(err)
		}
		if sample {
			if _, err := sim.Sample(32); err != nil {
				t.Fatal(err)
			}
		}
		c := circuit.New(6)
		for q := 0; q < 6; q++ {
			c.Measure(q)
		}
		res, err := sim.Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Measurements
	}
	plain, sampled := outcomes(false), outcomes(true)
	for i := range plain {
		if plain[i] != sampled[i] {
			t.Fatalf("measurement %d perturbed by sampling: %d vs %d", i, plain[i], sampled[i])
		}
	}
}

// TestSaveLoadThroughFacade round-trips a checkpoint.
func TestSaveLoadThroughFacade(t *testing.T) {
	sim, err := New(8, WithRanks(2), WithBlockAmps(32), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(context.Background(), circuit.QFT(8, 2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := New(8, WithRanks(2), WithBlockAmps(32), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	a, _ := sim.FullState()
	b, _ := restored.FullState()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("amplitude %d diverges after checkpoint round-trip", i)
		}
	}
	if restored.GatesRun() != sim.GatesRun() {
		t.Fatal("gate counter not restored")
	}
}

// TestSweepSchedulerFacade: sweeps are on by default, surface their
// counters through Stats, and match sweeps-off execution bit-for-bit.
func TestSweepSchedulerFacade(t *testing.T) {
	cir := circuit.Grover(5, 11, circuit.GroverOptimalIterations(5))
	run := func(opts ...Option) (*Simulator, *Result) {
		t.Helper()
		sim, err := New(cir.N, append([]Option{WithBlockAmps(16), WithSeed(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background(), cir)
		if err != nil {
			t.Fatal(err)
		}
		return sim, res
	}
	simOn, resOn := run()
	simOff, resOff := run(WithSweeps(false))

	if resOn.Stats.Sweeps == 0 || resOn.Stats.CodecPassesSaved == 0 {
		t.Fatalf("default run reports no sweep activity: %+v", resOn.Stats)
	}
	if resOff.Stats.Sweeps != 0 {
		t.Fatalf("WithSweeps(false) still swept: %+v", resOff.Stats)
	}
	callsOn := resOn.Stats.CompressCalls + resOn.Stats.DecompressCalls
	callsOff := resOff.Stats.CompressCalls + resOff.Stats.DecompressCalls
	if callsOn >= callsOff {
		t.Fatalf("sweeps did not reduce codec invocations: %d vs %d", callsOn, callsOff)
	}
	a, err := simOn.FullState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := simOff.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("amplitude %d differs between sweeps on and off", i)
		}
	}
}

// TestSamplerHandle: the Sampler builds its tables once and then draws
// repeatedly from the simulator's sampling stream — split calls match
// one big Sample call, and the sampler a Simulator builds is the
// engine's own.
func TestSamplerHandle(t *testing.T) {
	mk := func() *Simulator {
		sim, err := New(8, WithSeed(21), WithBlockAmps(16))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(context.Background(), circuit.HadamardAll(8)); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	a, b, c := mk(), mk(), mk()
	sp, err := a.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	if tm := sp.TotalMass(); math.Abs(tm-1) > 1e-9 {
		t.Fatalf("lossless TotalMass = %v, want ~1", tm)
	}
	s1, err := sp.Sample(16)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sp.Sample(16)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := b.Sample(32)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range whole {
		var got uint64
		if i < 16 {
			got = s1[i]
		} else {
			got = s2[i-16]
		}
		if got != want {
			t.Fatalf("shot %d: sampler handle drew %d, Sample drew %d", i, got, want)
		}
	}
	engine, err := c.be.(compressedBackend).Simulator.NewSampler(0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engine.Sample(nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(direct, whole) {
		t.Fatalf("the engine's sampler drew %v, Sample drew %v", direct, whole)
	}
	if _, err := sp.Sample(-1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative shots: %v", err)
	}
}

// TestSampleBeyondFullStateLimit is the tentpole acceptance check at the
// facade: a register too wide for FullState still supports shot-based
// readout, because the sampler streams from the compressed blocks.
func TestSampleBeyondFullStateLimit(t *testing.T) {
	sim, err := New(28, WithBlockAmps(4096), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.FullState(); !errors.Is(err, ErrStateTooLarge) {
		t.Fatalf("FullState at 28 qubits: %v, want ErrStateTooLarge", err)
	}
	out, err := sim.Sample(8)
	if err != nil {
		t.Fatalf("streaming Sample failed at 28 qubits: %v", err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("shot %d of |0...0⟩ = %d", i, v)
		}
	}
}

// TestLoadClearsBudgetLatchFacade: restoring a healthy checkpoint after
// a run exhausted the escalation ladder must not leave Run reporting a
// phantom ErrBudgetExceeded.
func TestLoadClearsBudgetLatchFacade(t *testing.T) {
	ctx := context.Background()
	sim, err := New(8, WithBlockAmps(32), WithSeed(2), WithMemoryBudget(700), WithErrorLevels(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(ctx, circuit.GHZ(8)); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var over error
	for i := 0; i < 4 && over == nil; i++ {
		_, over = sim.Run(ctx, circuit.QFT(8, int64(40+i)))
	}
	if !errors.Is(over, ErrBudgetExceeded) {
		t.Fatalf("could not exhaust the ladder: %v", over)
	}
	if err := sim.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(ctx, circuit.New(8).H(0).H(0)); err != nil {
		t.Fatalf("run after restoring a healthy checkpoint: %v", err)
	}
}

// TestExpectationZReadsTheStoredState: on a lossy state, whose norm N
// has drifted below 1, ⟨Z_q⟩ is Σ ±|a|² over the stored amplitudes —
// what every diagonal observable reads — not 1 − 2·P(q=1), which is off
// by 1 − N on every qubit.
func TestExpectationZReadsTheStoredState(t *testing.T) {
	const n = 10
	sim, err := New(n, WithSeed(1), WithBlockAmps(64), WithMemoryBudget(int64(MemoryRequirement(n)/4)))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(context.Background(), circuit.QFT(n, 1)); err != nil {
		t.Fatal(err)
	}
	amps, err := sim.FullState()
	if err != nil {
		t.Fatal(err)
	}
	if norm, err := sim.Norm(); err != nil || 1-norm < 1e-3 {
		t.Fatalf("norm %v (%v): the budget left the state lossless", norm, err)
	}
	for q := range n {
		var want float64
		for i, a := range amps {
			if p := float64(real(a)*real(a)) + float64(imag(a)*imag(a)); i>>q&1 == 0 {
				want += p
			} else {
				want -= p
			}
		}
		got, err := sim.ExpectationZ(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("⟨Z_%d⟩ = %v, the stored amplitudes give %v", q, got, want)
		}
	}
}
