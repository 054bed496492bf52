package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/cmplx"
	"os"
	"runtime"
	"syscall"
	"time"

	"qcsim"
	"qcsim/circuit"
	"qcsim/internal/quantum"
)

// checker counts operations: every timed rep, every request to the
// server and every correctness check is one, and each either passes
// or fails.
type checker struct {
	attempted, failed int
	// sabotage makes the next oracle comparison expect the wrong
	// value; only the tests set it, to show a failure is counted.
	sabotage bool
}

func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// engine runs one of the seven workloads that drive a simulator
// directly (everything but serve-mix).
type engine struct {
	w     *workload
	g     geometry
	seed  int64
	smoke bool
	shots int
	// spillDir hosts the spill files of every simulator the workload
	// builds; it must be empty again once they are closed.
	spillDir string
	// detail adds the CPU and allocation readings of the per-layer
	// run around each rep.
	detail bool

	// sample-read: the state is computed and checkpointed once, each
	// rep loads it into a fresh simulator.
	ckpt     []byte
	prepareT time.Duration
}

func newEngine(w *workload, seed int64, smoke bool, tmp string) (*engine, error) {
	n := w.full
	if smoke {
		n = w.smoke
	}
	dir, err := os.MkdirTemp(tmp, "spill-*")
	if err != nil {
		return nil, fmt.Errorf("perf: spill dir: %w", err)
	}
	e := &engine{w: w, g: w.geo(n), seed: seed, smoke: smoke, spillDir: dir, shots: 1 << 17}
	if smoke {
		e.shots = 1 << 10
	}
	return e, nil
}

// close verifies that every simulator gave its spill files back.
func (e *engine) close(chk *checker) {
	ents, err := os.ReadDir(e.spillDir)
	chk.op(err == nil && len(ents) == 0, "%s: spill dir holds %d files after Close (%v)", e.w.name, len(ents), err)
	os.RemoveAll(e.spillDir)
}

// inputs are the seeded inputs of one rep. Generating them is part of
// the rep's set-up time.
type inputs struct {
	circ   *circuit.Circuit // Run: the circuit; Grad: the ansatz
	edges  []circuit.Edge
	values []float64
}

func (e *engine) generate() inputs {
	if e.w.kind == kindGrad {
		edges := qaoaEdges(e.g, e.seed)
		return inputs{circ: circuit.QAOAAnsatzGraph(e.g.qubits, 1, edges), edges: edges, values: qaoaAngles(1, e.seed)}
	}
	return inputs{circ: e.w.circuit(e.g, e.seed)}
}

// prepare does the once-per-process work of sample-read: run the
// circuit and checkpoint the state.
func (e *engine) prepare(ctx context.Context) error {
	if e.w.kind != kindSample {
		return nil
	}
	t0 := time.Now()
	sim, err := qcsim.New(e.g.qubits, e.g.options(e.seed, 0, e.spillDir)...)
	if err != nil {
		return err
	}
	defer sim.Close()
	if _, err := sim.Run(ctx, e.generate().circ); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		return err
	}
	e.ckpt, e.prepareT = buf.Bytes(), time.Since(t0)
	return nil
}

// repOut is what one rep through the public facade measured. The
// simulator is still open; the caller closes it.
type repOut struct {
	in         inputs
	sim        *qcsim.Simulator
	setup, run time.Duration
	retained   int64 // heap held with the state still open, over the reading before New
	res        *qcsim.Result
	grad       *qcsim.GradientResult
	outcomes   []uint64
	mass       float64
	// detail only
	cpu                time.Duration
	mallocs, allocated uint64
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC is the live heap. It collects twice: what a sync.Pool
// holds (the codecs pool their compressor state) survives one
// collection as the pool's victim cache and would make the reading
// depend on when the last collection happened to run.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp is the preparation of one rep — what setup_s times and run_s
// leaves out: generate the seeded inputs and build a simulator (for
// sample-read, load the checkpoint into it).
func (e *engine) setUp(workers int) (inputs, *qcsim.Simulator, time.Duration, error) {
	t0 := time.Now()
	var in inputs
	if e.w.kind != kindSample {
		in = e.generate()
	}
	sim, err := qcsim.New(e.g.qubits, e.g.options(e.seed, workers, e.spillDir)...)
	if err != nil {
		return in, nil, 0, err
	}
	if e.w.kind == kindSample {
		if err := sim.Load(bytes.NewReader(e.ckpt)); err != nil {
			sim.Close()
			return in, nil, 0, err
		}
	}
	return in, sim, time.Since(t0), nil
}

// rep sets a fresh simulator up and runs the workload's operation
// once. workers 0 is the engine default (all CPUs), 1 the serial
// baseline.
func (e *engine) rep(ctx context.Context, workers int) (*repOut, error) {
	out := &repOut{}
	before := heapAfterGC()
	var err error
	if out.in, out.sim, out.setup, err = e.setUp(workers); err != nil {
		return nil, err
	}
	sim := out.sim

	var m0, m1 runtime.MemStats
	var cpu0 time.Duration
	if e.detail {
		runtime.ReadMemStats(&m0)
		cpu0 = cpuTime()
	}
	t1 := time.Now()
	switch e.w.kind {
	case kindRun:
		out.res, err = sim.Run(ctx, out.in.circ)
	case kindGrad:
		out.grad, err = sim.Gradient(ctx, out.in.circ, out.in.values, qcsim.MaxCutObservable(out.in.edges))
	case kindSample:
		var sp *qcsim.Sampler
		if sp, err = sim.Sampler(); err == nil {
			out.mass = sp.TotalMass()
			out.outcomes, err = sp.Sample(e.shots)
		}
	}
	out.run = time.Since(t1)
	if e.detail {
		out.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		out.mallocs, out.allocated = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	if err != nil {
		sim.Close()
		return nil, err
	}
	out.retained = int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(sim)
	return out, nil
}

// denseOracle runs the circuit on the dense reference simulator.
func denseOracle(c *circuit.Circuit) *quantum.State {
	st := quantum.NewState(c.N)
	st.ApplyCircuit(c)
	return st
}

func hashOutcomes(xs []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	return h.Sum64()
}

func sameAmps(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) || math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// verdict is the state-level outcome of a workload's checks: the two
// fidelities and the compressed size of the state they were read
// from. retained is set only where the reps cannot measure it (the
// gradient, whose variant states are gone when it returns).
type verdict struct {
	ledger, measured float64
	footprint        int64
	retained         int64
}

// check compares the final state of a rep with the dense oracle (or,
// at 27 qubits, the closed form) outside every timed section.
func (e *engine) check(ctx context.Context, out *repOut, chk *checker) (verdict, error) {
	const exact = 1e-9
	var v verdict
	wrong := 0.0
	if chk.sabotage {
		wrong = 0.5
	}
	switch e.w.kind {
	case kindRun:
		v.ledger, v.footprint = out.res.FidelityLowerBound, out.res.Stats.MaxFootprint
		if e.w.closedForm {
			// No dense oracle fits 27 qubits. The ideal state lives in the
			// span of the marked item and the uniform rest, so the
			// classical fidelity of the marked / unmarked outcome against
			// the closed form stands in for the state fidelity.
			s, marked := groverInstance(e.g, e.seed)
			amp, err := out.sim.Amplitude(marked)
			if err != nil {
				return v, err
			}
			p := real(amp)*real(amp) + imag(amp)*imag(amp)
			want := groverExpected(s)
			chk.op(math.Abs(p-want-wrong) <= exact, "%s: P(marked) = %.12f, closed form %.12f", e.w.name, p, want+wrong)
			bc := math.Sqrt(p*want) + math.Sqrt((1-p)*(1-want))
			v.measured = bc * bc
			return v, nil
		}
		full, err := out.sim.FullState()
		if err != nil {
			return v, err
		}
		v.measured = quantum.FidelityVec(full, denseOracle(out.in.circ).Amps) - wrong
		if e.g.budget > 0 {
			chk.op(v.measured >= v.ledger-exact, "%s: measured fidelity %.9f below the ledger's bound %.9f", e.w.name, v.measured, v.ledger)
		} else {
			chk.op(v.measured >= 1-exact, "%s: lossless state has fidelity %.12f against the oracle", e.w.name, v.measured)
		}
		if e.g.ranks > 1 || e.g.spillBudget > 0 {
			// Ranks and the spill tier must not change a single bit.
			plain := e.g
			plain.ranks, plain.spillBudget = 1, 0
			ref, err := qcsim.New(plain.qubits, plain.options(e.seed, 0, "")...)
			if err != nil {
				return v, err
			}
			defer ref.Close()
			if _, err := ref.Run(ctx, out.in.circ); err != nil {
				return v, err
			}
			refFull, err := ref.FullState()
			if err != nil {
				return v, err
			}
			chk.op(sameAmps(full, refFull), "%s: state differs from the 1-rank RAM-store run", e.w.name)
		}

	case kindGrad:
		energy, grad, err := oracleGradient(out.in)
		if err != nil {
			return v, err
		}
		energy += wrong
		chk.op(math.Abs(out.grad.Energy-energy) <= exact, "%s: energy %.12f, oracle %.12f", e.w.name, out.grad.Energy, energy)
		worst := 0.0
		for i := range grad {
			worst = math.Max(worst, math.Abs(out.grad.Grad[i]-grad[i]))
		}
		chk.op(len(out.grad.Grad) == len(grad) && worst <= exact, "%s: gradient off by %.3g from the oracle", e.w.name, worst)
		// Gradient tears its variant states down, so memory and
		// fidelity are read from one variant-sized state: a solo Run of
		// the unshifted binding. The batch holds Evaluations of them.
		base, err := out.in.circ.Bind(out.in.values)
		if err != nil {
			return v, err
		}
		before := heapAfterGC()
		solo, err := qcsim.New(e.g.qubits, e.g.options(e.seed, 0, e.spillDir)...)
		if err != nil {
			return v, err
		}
		defer solo.Close()
		res, err := solo.Run(ctx, base)
		if err != nil {
			return v, err
		}
		v.retained = int64(heapAfterGC()) - int64(before)
		v.ledger, v.footprint = res.FidelityLowerBound, res.Stats.MaxFootprint
		full, err := solo.FullState()
		if err != nil {
			return v, err
		}
		v.measured = quantum.FidelityVec(full, denseOracle(base).Amps)
		chk.op(v.measured >= 1-exact, "%s: lossless state has fidelity %.12f against the oracle", e.w.name, v.measured)

	case kindSample:
		snap := out.sim.Snapshot()
		v.ledger, v.footprint = snap.FidelityLowerBound, snap.MaxFootprint
		oracle := denseOracle(e.generate().circ)
		full, err := out.sim.FullState()
		if err != nil {
			return v, err
		}
		v.measured = quantum.FidelityVec(full, oracle.Amps) - wrong
		chk.op(v.measured >= 1-exact, "%s: loaded state has fidelity %.12f against the oracle", e.w.name, v.measured)
		chk.op(math.Abs(out.mass-1) <= exact, "%s: sampler mass %.12f", e.w.name, out.mass)
		g, limit := gTest(out.outcomes, oracle, 6)
		chk.op(g <= limit, "%s: G-test of %d draws in 64 bins: G = %.1f > %.1f", e.w.name, len(out.outcomes), g, limit)
	}
	return v, nil
}

// oracleGradient is the parameter-shift gradient of the MAXCUT energy
// computed on the dense reference simulator, over the same circuits
// Simulator.Gradient runs.
func oracleGradient(in inputs) (energy float64, grad []float64, err error) {
	circuits, occs, err := shiftCircuits(in)
	if err != nil {
		return 0, nil, err
	}
	energies := make([]float64, len(circuits))
	for v, c := range circuits {
		e := float64(len(in.edges)) / 2
		for i, a := range denseOracle(c).Amps {
			p := real(a)*real(a) + imag(a)*imag(a)
			for _, ed := range in.edges {
				if (i>>uint(ed.U))&1 == (i>>uint(ed.V))&1 {
					e -= p / 2
				} else {
					e += p / 2
				}
			}
		}
		energies[v] = e
	}
	energy, grad = shiftGradient(in.circ.NumParams(), occs, energies)
	return energy, grad, nil
}

// gTest bins outcomes by their top `bits` bits and returns the
// likelihood-ratio statistic G = 2 Σ O ln(O/E) against the oracle's
// probabilities, with the chi-square quantile (one in a million, by
// the Wilson–Hilferty approximation) it must stay under.
func gTest(outcomes []uint64, oracle *quantum.State, bits int) (g, limit float64) {
	nb := 1 << uint(bits)
	shift := uint(oracle.N - bits)
	expected := make([]float64, nb)
	for i, a := range oracle.Amps {
		expected[uint64(i)>>shift] += real(a * cmplx.Conj(a))
	}
	observed := make([]float64, nb)
	for _, o := range outcomes {
		observed[o>>shift]++
	}
	for b := range observed {
		if observed[b] > 0 {
			g += 2 * observed[b] * math.Log(observed[b]/(expected[b]*float64(len(outcomes))))
		}
	}
	df := float64(nb - 1)
	const z = 4.75
	k := 2 / (9 * df)
	return g, df * math.Pow(1-k+z*math.Sqrt(k), 3)
}

// extraSetUps is how many more times than once a rep sets up.
const extraSetUps = 4

// endToEndRun is --trace 0 for an engine workload: one warm-up rep,
// then timed reps through the public facade for `seconds`, then the
// checks.
func (e *engine) endToEndRun(ctx context.Context, secs float64, chk *checker) (*metricSet, error) {
	if err := e.prepare(ctx); err != nil {
		return nil, err
	}
	warm, err := e.rep(ctx, 0)
	if err != nil {
		return nil, err
	}
	warm.sim.Close()

	minReps := 5
	if e.smoke {
		minReps = 1
	}
	var runs, setups, retained []float64
	var last *repOut
	var firstHash uint64
	start := time.Now()
	for len(runs) < minReps || time.Since(start).Seconds() < secs {
		out, err := e.rep(ctx, 0)
		chk.op(err == nil, "%s: rep %d: %v", e.w.name, len(runs), err)
		if err != nil {
			return nil, err
		}
		runs = append(runs, out.run.Seconds())
		setups = append(setups, out.setup.Seconds())
		retained = append(retained, float64(out.retained))
		// Set-up is milliseconds against a rep's second, so each rep
		// sets up a few more times: the median of five times as many
		// samples is that much steadier.
		for i := 0; i < extraSetUps; i++ {
			_, sim, d, err := e.setUp(0)
			if err != nil {
				return nil, err
			}
			sim.Close()
			setups = append(setups, d.Seconds())
		}
		if e.w.kind == kindSample {
			h := hashOutcomes(out.outcomes)
			if len(runs) == 1 {
				firstHash = h
			}
			chk.op(h == firstHash, "%s: rep %d drew different outcomes from the same seed", e.w.name, len(runs)-1)
		}
		if last != nil {
			last.sim.Close()
		}
		last = out
	}
	defer last.sim.Close()

	v, err := e.check(ctx, last, chk)
	if err != nil {
		return nil, err
	}
	if e.w.kind != kindGrad {
		v.retained = int64(percentile(retained, 50))
	}
	fmt.Fprintf(os.Stderr, "%s: %d reps, run p25 %.4f s median %.4f s min %.4f s max %.4f s; setup median %.5f s\n",
		e.w.name, len(runs), percentile(runs, 25), percentile(runs, 50), percentile(runs, 0), percentile(runs, 100), percentile(setups, 50))

	m := newMetricSet(endToEnd)
	m.set("run_s", percentile(runs, 25))
	m.set("setup_s", percentile(setups, 50))
	m.set("peak_footprint_bytes", float64(v.footprint))
	m.set("retained_heap_bytes", float64(v.retained))
	m.set("fidelity_lower_bound", v.ledger)
	m.set("fidelity_measured", v.measured)
	return m, nil
}
