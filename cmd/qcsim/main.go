// Command qcsim runs a benchmark circuit on the compressed-state
// simulator and reports the paper's Table 2 metrics for that run: time
// breakdown, compression ratio, fidelity lower bound, and (optionally)
// measurement samples. Ctrl-C cancels the run at the next gate boundary
// and still prints the metrics of the completed prefix.
//
//	qcsim -circuit grover -qubits 13 -budget-frac 0.1
//	qcsim -circuit qft -qubits 16 -ranks 4 -checkpoint state.ckp
//	qcsim -circuit supremacy -qubits 16 -depth 11 -budget-frac 0.375
//	qcsim -circuit ghz -qubits 40 -backend mps -shots 1024
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"time"

	"qcsim"
	"qcsim/circuit"
)

func main() {
	var (
		circuitKind = flag.String("circuit", "ghz", "grover|supremacy|qaoa|qft|random|ghz|hadamard")
		file        = flag.String("file", "", "load the circuit from a .qc text file instead of -circuit")
		dump        = flag.String("dump", "", "write the built circuit to this .qc file and exit")
		qubits      = flag.Int("qubits", 12, "total qubits (grover: must be 2s-3 for search width s)")
		depth       = flag.Int("depth", 11, "cycles (supremacy) or gate count (random)")
		rounds      = flag.Int("rounds", 2, "QAOA rounds / Grover iterations")
		backendName = flag.String("backend", "compressed", "simulation engine: compressed|mps|auto (auto picks per circuit)")
		bondDim     = flag.Int("bond-dim", 64, "MPS bond-dimension cap χ (mps/auto backends)")
		ranks       = flag.Int("ranks", 1, "SPMD ranks (power of two)")
		workers     = flag.Int("workers", 0, "worker goroutines per rank over the block loop (0 = NumCPU/ranks)")
		blockAmps   = flag.Int("block", 4096, "amplitudes per block (power of two)")
		budgetFrac  = flag.Float64("budget-frac", 0, "per-run memory budget as a fraction of 2^(n+4) bytes (0 = unlimited)")
		cache       = flag.Int("cache", qcsim.DefaultCacheLines, "compressed block cache lines (0 = off)")
		codec       = flag.String("codec", "", "lossy codec name or alias (default: the paper's Solution C; see qccompress -list)")
		seed        = flag.Int64("seed", 1, "randomness seed")
		shots       = flag.Int("shots", 0, "sample this many outcomes at the end (streams from the compressed state; works at any register width)")
		checkpoint  = flag.String("checkpoint", "", "write a checkpoint file after the run")
		resume      = flag.String("resume", "", "load a checkpoint file before the run")
		uncomp      = flag.Bool("uncompressed", false, "run the uncompressed baseline")
		spillDir    = flag.String("spill", "", "spill directory: keep at most -spill-ram bytes of compressed blocks per rank in RAM, the rest in temp files here (removed on exit)")
		spillRAM    = flag.Int64("spill-ram", 0, "per-rank resident budget in bytes for -spill (0 = adopt the -budget-frac budget)")
		noise       = flag.Float64("noise", 0, "per-gate depolarizing probability")
		fuse        = flag.Bool("fuse", false, "fuse adjacent single-qubit gates before execution")
		sweeps      = flag.Bool("sweeps", true, "batch runs of gates on offset qubits and up to three block qubits into one codec pass over groups of up to eight blocks (off reproduces the paper's one-pass-per-gate cost model)")
		batchK      = flag.Int("batch", 0, "run a K-variant lockstep batch of the parameterized ansatz (-circuit qaoa or vqe), one seeded binding per variant")
		grad        = flag.Bool("grad", false, "compute the parameter-shift MAXCUT gradient of the QAOA ansatz (-circuit qaoa) in one lockstep batch")
		transport   = flag.String("transport", "inprocess", "rank runtime: inprocess (goroutine ranks) or tcp (one worker process per rank)")
		workerCmd   = flag.String("worker-bin", "", "worker binary the tcp transport spawns per rank (default: this binary re-executed in worker mode)")
		rankWorker  = flag.Bool("rank-worker", false, "serve as a spawned tcp-transport rank worker (internal; reads $QCSIM_COORD_ADDR) and exit")
	)
	flag.Parse()

	if *rankWorker {
		if err := qcsim.RankWorker(os.Getenv("QCSIM_COORD_ADDR")); err != nil {
			fail(err)
		}
		return
	}

	variational := *grad || *batchK > 0
	var cir *circuit.Circuit
	var err error
	if variational {
		if *file != "" || *dump != "" {
			fail(errors.New("-batch/-grad build their own parameterized ansatz; -file and -dump do not apply"))
		}
		switch {
		case *circuitKind == "qaoa":
			cir = circuit.QAOAAnsatz(*qubits, *rounds, *seed)
		case *circuitKind == "vqe" && !*grad:
			cir = circuit.VQEAnsatz(*qubits, *rounds)
		case *grad:
			fail(errors.New("-grad needs -circuit qaoa (the MAXCUT observable)"))
		default:
			fail(fmt.Errorf("-batch needs -circuit qaoa or vqe, not %q", *circuitKind))
		}
	} else if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fail(err)
		}
		cir, err = circuit.Parse(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		cir, err = buildCircuit(*circuitKind, *qubits, *depth, *rounds, *seed)
		if err != nil {
			fail(err)
		}
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fail(err)
		}
		if err := circuit.Serialize(f, cir); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d-qubit, %d-gate circuit to %s\n", cir.N, len(cir.Gates), *dump)
		return
	}
	// Fusion is a circuit transformation: every gate count the CLI
	// prints (total, completed-on-interrupt, ms/gate) counts the fused
	// gates the engine runs.
	if *fuse {
		cir = circuit.FuseSingleQubitGates(cir)
	}
	req := qcsim.MemoryRequirement(cir.N)
	var perRank int64
	if *budgetFrac > 0 {
		perRank = int64(req * *budgetFrac / float64(*ranks))
	}
	opts := []qcsim.Option{
		qcsim.WithBackend(*backendName),
		qcsim.WithBondDim(*bondDim),
		qcsim.WithRanks(*ranks),
		qcsim.WithWorkers(*workers),
		qcsim.WithBlockAmps(*blockAmps),
		qcsim.WithMemoryBudget(perRank),
		qcsim.WithCache(*cache),
		qcsim.WithUncompressed(*uncomp),
		qcsim.WithNoise(*noise),
		qcsim.WithSeed(*seed),
		qcsim.WithSweeps(*sweeps),
	}
	if *codec != "" {
		opts = append(opts, qcsim.WithCodec(*codec))
	}
	if *spillDir != "" || *spillRAM > 0 {
		opts = append(opts, qcsim.WithSpill(*spillDir, *spillRAM))
	}
	if *transport != "" && *transport != qcsim.TransportInProcess {
		opts = append(opts, qcsim.WithTransport(*transport))
		argv := []string{*workerCmd}
		if *workerCmd == "" {
			// Self-host the workers: re-execute this binary in its
			// hidden worker mode, so a tcp run needs no second install.
			exe, err := os.Executable()
			if err != nil {
				fail(err)
			}
			argv = []string{exe, "-rank-worker"}
		}
		opts = append(opts, qcsim.WithWorkerCommand(argv...))
	}
	sim, err := qcsim.New(cir.N, opts...)
	if err != nil {
		fail(err)
	}
	defer sim.Close()
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fail(err)
		}
		if err := sim.Load(f); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Printf("resumed from %s (%d gates already executed)\n", *resume, sim.GatesRun())
	}

	label := *circuitKind
	if *file != "" {
		label = *file
	}
	fmt.Printf("circuit %s: %d qubits, %d gates; state requires %s uncompressed\n",
		label, cir.N, len(cir.Gates), qcsim.FormatBytes(req))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if variational {
		runVariational(ctx, sim, cir, *circuitKind, *rounds, *seed, *batchK, *grad)
		return
	}
	start := time.Now()
	res, err := sim.Run(ctx, cir)
	elapsed := time.Since(start)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Printf("interrupted: %d/%d gates completed; metrics cover the prefix\n", res.Gates, len(cir.Gates))
	case errors.Is(err, qcsim.ErrBudgetExceeded):
		fmt.Printf("warning: %v\n", err)
	default:
		fail(err)
	}

	st := res.Stats
	tot := st.TotalTime().Seconds()
	if tot == 0 {
		tot = 1
	}
	gates := res.Gates
	if gates == 0 {
		gates = 1
	}
	fmt.Printf("backend             %s\n", sim.Backend())
	fmt.Printf("total time          %v  (%.2f ms/gate)\n", elapsed.Round(time.Millisecond),
		elapsed.Seconds()*1000/float64(gates))
	fmt.Printf("  compression       %5.1f%%\n", 100*st.CompressTime.Seconds()/tot)
	fmt.Printf("  decompression     %5.1f%%\n", 100*st.DecompressTime.Seconds()/tot)
	fmt.Printf("  communication     %5.1f%%\n", 100*st.CommTime.Seconds()/tot)
	fmt.Printf("  computation       %5.1f%%\n", 100*st.ComputeTime.Seconds()/tot)
	fmt.Printf("compressed footprint %s (ratio %.2f, min %.2f)\n",
		qcsim.FormatBytes(float64(res.Footprint)), res.CompressionRatio,
		st.MinCompressionRatio(req))
	if sim.Backend() == qcsim.BackendMPS {
		fmt.Printf("fidelity lower bound %.6f (bond dim cap %d, %d truncating SVDs)\n",
			res.FidelityLowerBound, *bondDim, st.Escalations)
	} else {
		fmt.Printf("fidelity lower bound %.6f (error level %d, %d escalations)\n",
			res.FidelityLowerBound, st.FinalLevel, st.Escalations)
	}
	if st.CacheLookups > 0 {
		fmt.Printf("block cache          %d/%d hits\n", st.CacheHits, st.CacheLookups)
	}
	if st.Sweeps > 0 {
		fmt.Printf("sweep scheduler      %d sweeps over %d gates; %d codec passes saved (%d codec calls total)\n",
			st.Sweeps, st.SweepGates, st.CodecPassesSaved, st.CompressCalls+st.DecompressCalls)
	}
	if st.SpillWrites > 0 || st.SpillReads > 0 {
		fmt.Printf("spill tier           %s on disk now, resident high-water %s; %d writes, %d demand reads, %d/%d prefetch hits\n",
			qcsim.FormatBytes(float64(st.SpilledBytes)), qcsim.FormatBytes(float64(st.MaxResident)),
			st.SpillWrites, st.SpillReads, st.PrefetchHits, st.PrefetchHits+st.SpillReads)
	}
	if ms := sim.Measurements(); len(ms) > 0 {
		fmt.Printf("measurements         %v\n", ms)
	}
	if *shots > 0 {
		sp, err := sim.Sampler()
		if err != nil {
			fail(err)
		}
		samples, err := sp.Sample(*shots)
		if err != nil {
			fail(err)
		}
		counts := map[uint64]int{}
		for _, v := range samples {
			counts[v]++
		}
		type outcome struct {
			v uint64
			n int
		}
		top := make([]outcome, 0, len(counts))
		for v, n := range counts {
			top = append(top, outcome{v, n})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].n != top[j].n {
				return top[i].n > top[j].n
			}
			return top[i].v < top[j].v
		})
		fmt.Printf("samples (%d shots, total mass %.6f):\n", *shots, sp.TotalMass())
		for i, o := range top {
			if i >= 10 {
				fmt.Printf("  ... %d more distinct outcomes\n", len(top)-i)
				break
			}
			fmt.Printf("  |%0*b⟩: %d\n", cir.N, o.v, o.n)
		}
	}
	if *checkpoint != "" {
		f, err := os.Create(*checkpoint)
		if err != nil {
			fail(err)
		}
		if err := sim.Save(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
}

// runVariational drives the -batch / -grad modes: a K-variant lockstep
// RunBatch of the ansatz at seeded bindings, or the parameter-shift
// MAXCUT gradient (itself one lockstep batch of 1+2·occurrences
// variants).
func runVariational(ctx context.Context, sim *qcsim.Simulator, ansatz *circuit.Circuit,
	kind string, rounds int, seed int64, k int, grad bool) {
	edges := circuit.RandomRegularGraph(ansatz.N, 4, seed)
	if grad {
		values := circuit.QAOAAngles(rounds, seed)
		start := time.Now()
		res, err := sim.Gradient(ctx, ansatz, values, qcsim.MaxCutObservable(edges))
		if err != nil {
			fail(err)
		}
		fmt.Printf("parameter-shift gradient: %d evaluations in one lockstep batch, %v\n",
			res.Evaluations, time.Since(start).Round(time.Millisecond))
		fmt.Printf("MAXCUT energy        %.6f\n", res.Energy)
		for i, g := range res.Grad {
			fmt.Printf("  ∂E/∂θ[%d]          %+.6f\n", i, g)
		}
		return
	}

	bindings := make([][]float64, k)
	for v := range bindings {
		bindings[v] = variantBinding(kind, ansatz, rounds, seed, v)
	}
	start := time.Now()
	results, err := sim.RunBatch(ctx, ansatz, bindings)
	elapsed := time.Since(start)
	switch {
	case err == nil:
	case errors.Is(err, qcsim.ErrBudgetExceeded):
		fmt.Printf("warning: %v\n", err)
	default:
		fail(err)
	}
	var codecCalls, shared int64
	for _, r := range results {
		codecCalls += r.Stats.CompressCalls + r.Stats.DecompressCalls
		shared += r.Stats.CodecPassesShared
	}
	fmt.Printf("lockstep batch: %d variants × %d gates in %v\n",
		k, results[0].Gates, elapsed.Round(time.Millisecond))
	fmt.Printf("codec calls          %d total across the batch; %d passes served from the shared cache\n",
		codecCalls, shared)
	variants := sim.BatchVariants()
	for v, r := range results {
		line := fmt.Sprintf("variant %-2d           fidelity ≥ %.6f, footprint %s",
			v, r.FidelityLowerBound, qcsim.FormatBytes(float64(r.Footprint)))
		if kind == "qaoa" {
			if e, err := variants[v].MaxCutEnergy(edges); err == nil {
				line += fmt.Sprintf(", MAXCUT energy %.6f", e)
			}
		}
		fmt.Println(line)
	}
}

// variantBinding draws variant v's parameter vector: the seeded QAOA
// angle schedule for the qaoa ansatz, uniform angles in [0, π) for vqe.
func variantBinding(kind string, ansatz *circuit.Circuit, rounds int, seed int64, v int) []float64 {
	if kind == "qaoa" {
		return circuit.QAOAAngles(rounds, seed+int64(v))
	}
	rng := rand.New(rand.NewSource(seed + int64(v)))
	values := make([]float64, ansatz.NumParams())
	for i := range values {
		values[i] = rng.Float64() * math.Pi
	}
	return values
}

func buildCircuit(kind string, qubits, depth, rounds int, seed int64) (*circuit.Circuit, error) {
	switch kind {
	case "grover":
		s, err := circuit.GroverSearchQubits(qubits)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		return circuit.Grover(s, uint64(rng.Int63n(1<<uint(s))), rounds), nil
	case "supremacy":
		rows, cols := factor(qubits)
		return circuit.Supremacy(rows, cols, depth, seed), nil
	case "qaoa":
		return circuit.QAOA(qubits, rounds, seed), nil
	case "qft":
		return circuit.QFT(qubits, seed), nil
	case "random":
		return circuit.RandomCircuit(qubits, depth, seed), nil
	case "ghz":
		return circuit.GHZ(qubits), nil
	case "hadamard":
		return circuit.HadamardAll(qubits), nil
	default:
		return nil, fmt.Errorf("unknown circuit %q", kind)
	}
}

func factor(n int) (int, int) {
	best := [2]int{1, n}
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			best = [2]int{r, n / r}
		}
	}
	return best[0], best[1]
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "qcsim: %v\n", err)
	os.Exit(1)
}
