package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"qcsim"
	"qcsim/circuit"
	"qcsim/internal/compress/registry"
	"qcsim/internal/core"
)

// kind is what one timed operation of a workload is.
type kind int

const (
	kindRun    kind = iota // one Simulator.Run
	kindGrad               // one Simulator.Gradient
	kindSample             // one Sampler() + Sample(shots)
	kindServe              // one closed-loop round against qcserve
)

// geometry is the one description of an engine configuration. The
// end-to-end reps render it as facade options, the traced rep as a
// core.Config whose codecs and launcher the benchmark can wrap; the
// deterministic counters of the two must agree, which is the check
// that both renderings mean the same thing.
type geometry struct {
	qubits       int
	ranks        int
	blockAmps    int    // 0 = engine default (4096)
	cacheLines   int    // 0 = cache off
	budget       int64  // WithMemoryBudget per rank; 0 = lossless
	spillBudget  int64  // WithSpill resident cap per rank; 0 = RAM store
	uncompressed bool   // the no-codec baseline
	codec        string // lossy codec by registry name; "" = default
}

// options renders the geometry for qcsim.New. workers 0 leaves the
// engine default (nproc / ranks).
func (g geometry) options(seed int64, workers int, spillDir string) []qcsim.Option {
	opts := []qcsim.Option{qcsim.WithSeed(seed), qcsim.WithRanks(g.ranks), qcsim.WithCache(g.cacheLines)}
	if g.blockAmps > 0 {
		opts = append(opts, qcsim.WithBlockAmps(g.blockAmps))
	}
	if g.budget > 0 {
		opts = append(opts, qcsim.WithMemoryBudget(g.budget))
	}
	if g.spillBudget > 0 {
		opts = append(opts, qcsim.WithSpill(spillDir, g.spillBudget))
	}
	if g.uncompressed {
		opts = append(opts, qcsim.WithUncompressed(true))
	}
	if g.codec != "" {
		opts = append(opts, qcsim.WithCodec(g.codec))
	}
	if workers > 0 {
		opts = append(opts, qcsim.WithWorkers(workers))
	}
	return opts
}

// config renders the geometry for core.New, with every default
// resolved so the caller can wrap the codecs.
func (g geometry) config(seed int64, workers int, spillDir string) (core.Config, error) {
	cfg := core.Config{
		Qubits: g.qubits, Ranks: g.ranks, Workers: workers, BlockAmps: g.blockAmps,
		MemoryBudget: g.budget, CacheLines: g.cacheLines, Uncompressed: g.uncompressed, Seed: seed,
	}
	if g.spillBudget > 0 {
		cfg.SpillDir, cfg.SpillRAMBudget = spillDir, g.spillBudget
	}
	if g.codec != "" {
		codec, err := registry.New(g.codec)
		if err != nil {
			return cfg, fmt.Errorf("perf: lossy codec %q: %w", g.codec, err)
		}
		cfg.Lossy = codec
	}
	return cfg.ValidatedDefaults()
}

// offsetBits is log2 of the block size the engine will use: the
// qubits below it are block-local, the ones above cross blocks or
// ranks and cost a full pass each.
func (g geometry) offsetBits() int {
	ba := g.blockAmps
	if ba == 0 {
		ba = 4096
	}
	perRank := g.qubits - bits.TrailingZeros(uint(g.ranks))
	if ob := bits.TrailingZeros(uint(ba)); ob < perRank {
		return ob
	}
	return perRank
}

// workload is one row of the benchmark. build derives the inputs from
// the seed; everything the seed changes (marked item, graph labels,
// angles, input basis state, job order) leaves the amount of work
// unchanged — the gate list keeps its length and every gate its
// block-local or cross-block class — so runs at different seeds
// measure the same thing.
type workload struct {
	name string
	why  string
	kind kind
	// qubits at full and at smoke scale (the smoke scale is what
	// `go test` runs).
	full, smoke int
	geo         func(n int) geometry
	// circuit builds the seeded concrete circuit of a Run or Sample
	// workload (for Sample, the state that is prepared once).
	circuit func(g geometry, seed int64) *circuit.Circuit
	// closedForm marks the Grover workload, whose result is checked
	// against sin²((2k+1)θ): 27 qubits have no dense oracle.
	closedForm bool
}

func workloads() []*workload {
	return []*workload{
		{
			name: "grover-cache", kind: kindRun, full: 27, smoke: 9, closedForm: true,
			why: "27-qubit Grover, lossless, 64-line block cache: ratio ~600:1 and ~99.9 % cache hits, so the cache-hit path and per-block pass overhead do the work, codec and kernel almost none",
			geo: func(n int) geometry { return geometry{qubits: n, ranks: 1, cacheLines: 64} },
			circuit: func(g geometry, seed int64) *circuit.Circuit {
				s, marked := groverInstance(g, seed)
				return circuit.Grover(s, marked, groverIters)
			},
		},
		{
			name: "qaoa-lossless", kind: kindRun, full: 17, smoke: 9,
			why: "17-qubit 2-round QAOA, lossless, cache off: incompressible state (ratio 1.0), so the level-0 lossless codec is ~95 % of the time and the cache is bypassed",
			geo: func(n int) geometry { return geometry{qubits: n, ranks: 1} },
			circuit: func(g geometry, seed int64) *circuit.Circuit {
				return qaoaCircuit(g, 2, seed)
			},
		},
		{
			name: "qft-budget", kind: kindRun, full: 18, smoke: 10,
			why: "18-qubit QFT under a quarter-size memory budget, cache 64, xor-c: the error-bound ladder escalates to level 4, the lossy codec dominates, and it is the only workload where fidelity can move",
			geo: func(n int) geometry {
				return geometry{qubits: n, ranks: 1, cacheLines: 64, budget: int64(1) << uint(n+4) / 4, codec: "xor-c"}
			},
			circuit: qftCircuit,
		},
		{
			name: "qaoa-raw", kind: kindRun, full: 19, smoke: 9,
			why: "19-qubit 2-round QAOA with compression off, cache off: no codec at all, so the gate kernel and raw block copies are everything; the bypass workload for codec and cache changes",
			geo: func(n int) geometry { return geometry{qubits: n, ranks: 1, uncompressed: true} },
			circuit: func(g geometry, seed int64) *circuit.Circuit {
				return qaoaCircuit(g, 2, seed)
			},
		},
		{
			name: "qft-spill-r2", kind: kindRun, full: 17, smoke: 10,
			why: "17-qubit QFT on 2 in-process ranks, 1024-amplitude blocks, resident cap a quarter of the footprint, cache off: the only workload that uses the tiered block store and cross-rank exchange",
			geo: func(n int) geometry {
				ba := 1024
				if n < 14 {
					ba = 64
				}
				return geometry{qubits: n, ranks: 2, blockAmps: ba, spillBudget: int64(1) << uint(n+4) / 2 / 4}
			},
			circuit: qftCircuit,
		},
		{
			name: "qaoa-grad", kind: kindGrad, full: 13, smoke: 8,
			why: "parameter-shift gradient of a 13-qubit 1-round QAOA ansatz, 79 lockstep variants: the batch executor and its content-addressed memo instead of the solo path",
			geo: func(n int) geometry { return geometry{qubits: n, ranks: 1} },
		},
		{
			name: "sample-read", kind: kindSample, full: 18, smoke: 9,
			why: "2^17 shots from a checkpointed 18-qubit QAOA state: the read side — decompress-only codec traffic and the sampler's decoded-block cache, no recompression",
			geo: func(n int) geometry { return geometry{qubits: n, ranks: 1} },
			circuit: func(g geometry, seed int64) *circuit.Circuit {
				return qaoaCircuit(g, 1, seed)
			},
		},
		{
			name: "serve-mix", kind: kindServe, full: 14, smoke: 9,
			why: "in-process qcserve, closed loop, 2 clients x 12 jobs a round (create, submit GHZ/QFT/QAOA, stream to done, sample, suspend, sample, delete): admission, queue, SSE, suspend/resume as a tenant sees them",
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// subSeed decorrelates the seeded choices of one run.
func subSeed(seed int64, stream int) int64 { return seed*1000003 + int64(stream) }

// pickBits sets k seeded distinct bits in [lo, hi).
func pickBits(rng *rand.Rand, lo, hi, k int) uint64 {
	var m uint64
	for _, q := range rng.Perm(hi - lo)[:k] {
		m |= 1 << uint(lo+q)
	}
	return m
}

// groverIters amplification rounds per Grover run. One round already
// walks every block through the oracle and the diffusion; a second
// would double the rep and halve the reps a run can time.
const groverIters = 1

// groverInstance picks the search width s for the geometry's register
// (2s-3 qubits) and a seeded marked item. The oracle emits one X per
// zero bit of the marked item, so the item keeps half of its
// block-local bits and one of its cross-block bits set at every seed:
// the gate count and the sweep plan do not depend on the seed.
func groverInstance(g geometry, seed int64) (s int, marked uint64) {
	s = (g.qubits + 3) / 2
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	local := g.offsetBits()
	if local >= s {
		return s, pickBits(rng, 0, s, s/2)
	}
	return s, pickBits(rng, 0, local, local/2) | pickBits(rng, local, s, 1)
}

// groverExpected is the closed-form success probability
// sin²((2k+1)θ), sin θ = 2^(-s/2).
func groverExpected(s int) float64 {
	theta := math.Asin(math.Exp2(-float64(s) / 2))
	v := math.Sin(float64(2*groverIters+1) * theta)
	return v * v
}

// qaoaEdges is a 4-regular MAXCUT instance on the geometry's qubits:
// one fixed random graph whose vertices are relabelled by a seeded
// permutation that keeps block-local qubits block-local. Every seed
// gives a different graph with the same edge list order and the same
// local / cross-block class per gate, hence the same sweep plan.
func qaoaEdges(g geometry, seed int64) []circuit.Edge {
	n, local := g.qubits, g.offsetBits()
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	relabel := append(rng.Perm(local), rng.Perm(n-local)...)
	for i := local; i < n; i++ {
		relabel[i] += local
	}
	edges := circuit.RandomRegularGraph(n, 4, int64(n))
	for i, e := range edges {
		edges[i] = circuit.Edge{U: relabel[e.U], V: relabel[e.V]}
	}
	return edges
}

// qaoaAngles draws the 2p angles [γ0, β0, γ1, β1, ...] from
// (0.1π, 0.4π): a rotation by a multiple of π/2 maps basis states to
// basis states and leaves a state that compresses, which a generic
// angle never does.
func qaoaAngles(p int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	values := make([]float64, 2*p)
	for i := range values {
		values[i] = math.Pi * (0.1 + 0.3*rng.Float64())
	}
	return values
}

// qaoaCircuit binds the p-round ansatz over qaoaEdges at seeded
// angles.
func qaoaCircuit(g geometry, p int, seed int64) *circuit.Circuit {
	c, err := circuit.QAOAAnsatzGraph(g.qubits, p, qaoaEdges(g, seed)).Bind(qaoaAngles(p, seed))
	if err != nil {
		panic(err) // the ansatz has exactly 2p parameters
	}
	return c
}

// qftCircuit is the QFT of a seeded basis state. How well every
// intermediate state compresses — and so which steps the error-bound
// ladder takes — depends on the state's low bits (the fine phase
// structure) and on its top bit (the first qubit the QFT touches), so
// both are fixed: the low byte to a generic pattern, the top bit to 0.
// The seed sets three of the other qubits that index blocks, which
// cost the same whichever they are.
func qftCircuit(g geometry, seed int64) *circuit.Circuit {
	n, lo := g.qubits, g.offsetBits()
	hi := n - bits.TrailingZeros(uint(g.ranks)) - 1
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	x := uint64(0b10110101)
	if hi-lo >= 3 {
		x |= pickBits(rng, lo, hi, 3)
	} else if n > 9 {
		x |= pickBits(rng, 8, n-1, 1) // smoke scale: too few block qubits to choose among
	}
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		if x>>uint(q)&1 == 1 {
			c.X(q)
		}
	}
	c.Gates = append(c.Gates, circuit.QFT(n, -1).Gates...)
	return c
}
