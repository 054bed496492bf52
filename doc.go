// Package qcsim is the public facade of a Go reproduction of
// "Full-State Quantum Circuit Simulation by Using Data Compression"
// (Wu et al., SC 2019): a Schrödinger-style state-vector simulator that
// keeps every block of amplitudes compressed in memory, trading
// computation time and a bounded amount of fidelity for memory space.
// The facade drives pluggable engines: the compressed full-state core
// (default) and a matrix-product-state (tensor-network) backend — the
// paper's §2.2 comparator — selected with WithBackend.
//
// # Usage
//
// Construct a simulator with New and functional options, build circuits
// with the qcsim/circuit package, and execute with Run (or RunProgress
// for per-gate progress events):
//
//	sim, err := qcsim.New(16,
//		qcsim.WithRanks(4),
//		qcsim.WithMemoryBudget(1<<16),
//		qcsim.WithSeed(1),
//	)
//	if err != nil { ... }
//	res, err := sim.Run(ctx, circuit.GHZ(16))
//
// Run checks ctx at every sweep boundary (every gate boundary when the
// sweep scheduler is off): cancellation stops execution between sweeps
// on every rank with an error wrapping context.Canceled, and the
// simulator remains fully inspectable over the completed prefix. Codec
// failures mid-run surface the same way — a wrapped error, never a
// panic. Errors are typed sentinels (ErrBadConfig, ErrInvalidQubit,
// ErrBudgetExceeded, ...) usable with errors.Is. Options are checked by
// New, not mid-run, and a circuit assembled by hand rather than through
// the builders is checked before any of its gates runs: an operand
// outside the register or a qubit used twice in one gate is
// ErrInvalidQubit, an unknown gate kind ErrBadConfig.
//
// The Result of a run — and Snapshot at any time — expose the paper's
// Table 2 accounting: the compress/decompress/compute/communication
// time breakdown, the compressed footprint and its high-water mark, and
// the Eq. 11 fidelity lower bound Π(1-δᵢ). Amplitude, ProbabilityOne,
// ExpectationZ/ZZ, the statistical assertions, and the seeded Sample
// read the compressed state directly; Save and Load checkpoint the
// compressed blocks as-is (§3.5). Norm, ProbabilityOne, the statistical
// assertions, a measurement's probability, a Sampler's CDF and every
// diagonal observable read through one per-call reader that decodes
// each distinct compact blob once, not every block: a redundant state
// (GHZ is three distinct blobs) costs a few decodes at any width. A
// measurement charges them to its Stats; the inspectors charge nothing.
// FullState and Amplitude decode the blocks they return.
//
// The §3.4 block cache is on unless WithCache(0) says otherwise: a pass
// whose compressed inputs repeat a cached pass's shares its output blobs
// instead of a codec round trip, and a cache that stops hitting shuts off.
//
// ExpectationZ, ExpectationZZ and MaxCutEnergy are Observables — {Z: q},
// {ZZ: a,b} and MaxCutObservable(edges) — read through the one diagonal
// read Gradient's energies come from: one read however many terms there
// are. A compact blob the state stores at two or more blocks decodes
// once per call into one signed mass Σ ±|a|² per distinct offset mask
// among the terms, and every block holding it adds its terms' ±W times
// those masses without a decode; any other block decodes once and folds
// against a per-block table of Σ ±W. The compressed
// engine reads the stored state as-is: under lossy compression ⟨Z_q⟩ is
// Σ ±|a|² over the stored amplitudes, not 1 − 2·P(q=1), which would be
// off by 1 − Σ|a|² on every qubit. The mps backend normalizes by ⟨ψ|ψ⟩.
// A term on a qubit outside the register, or a ZZ term on one qubit, is
// ErrInvalidQubit on every backend.
//
// # Sampling
//
// Shot-based readout streams directly from the compressed blocks — the
// full 2^n-amplitude vector is never materialized, so Sample (and the
// reusable Sampler handle) work on registers far past the 26-qubit
// FullState limit. A Sampler builds a two-level CDF from that block-mass
// read (per-block probability masses plus their prefix sums), so on the
// compressed engine its TotalMass is Norm bit for bit. A Sample call
// binary-searches the block prefix for every shot, buckets the shots by
// block, and visits each touched block once on the worker
// pool — decompress, fold the probabilities into an intra-block prefix
// array, binary-search it for each of the block's shots:
// O(shots·log(blocks·blockAmps) + touched·blockAmps) per call, with
// outcomes identical for every worker count. A Sampler keeps only its
// CDF between calls: each call decodes the blocks it touches afresh.
//
// Normalization contract: every draw is scaled by the CDF's true total
// mass Σ|aᵢ|² (Sampler.TotalMass). Lossy compression legitimately lets
// the state's norm drift below 1; normalizing the draws means outcome
// frequencies always follow the state's actual distribution — no
// probability mass is ever silently reassigned to |0...0⟩ or anywhere
// else. A Sampler describes the state it was built from: after Run,
// Reset, SetBasisState, or Load it reports ErrStaleSampler and a fresh
// one must be built.
//
// # Backend selection
//
// WithBackend chooses the engine at construction; WithBondDim caps the
// MPS bond dimension χ:
//
//	compressed  full 2^n state, every operation, graceful lossy
//	            degradation under WithMemoryBudget (the default)
//	mps         one bond-capped tensor per qubit: O(n·χ²) memory all
//	            the way to the 62-qubit register cap, exact while the
//	            circuit's entanglement fits χ, truncating (with the
//	            ledger recording the loss) beyond it
//	auto        decide at the first Run from the circuit itself
//
// The decision table auto implements — and the one to apply by hand:
//
//	circuit property                  → backend
//	measurement / multi-control gates → compressed (mps reports
//	                                    ErrUnsupportedOp)
//	noise channel, uncompressed mode  → compressed
//	estimated bond dimension ≤ χ      → mps (polynomial memory wins)
//	estimated bond dimension > χ      → compressed (χ would truncate;
//	                                    pointwise error bounds degrade
//	                                    more gracefully)
//
// The estimate is structural: each two-qubit gate can at most double
// the Schmidt rank across the chain cuts it spans, so a circuit whose
// per-cut two-qubit-gate count stays ≤ log2(χ) runs exactly on the MPS.
// GHZ chains (1 gate per cut) and shallow brickwork circuits qualify at
// the full 62-qubit register cap; QFT, supremacy grids, and deep QAOA
// do not. The
// `qcbench -exp crossover` experiment measures exactly this frontier.
//
// # The ErrUnsupportedOp contract
//
// Everything the facade exposes works on the compressed backend. On the
// mps backend, operations that need full-state access — measurement
// gates, gates with more than one control, AssertClassical /
// AssertSuperposition / AssertProduct, Save/Load, and RunBatch/Gradient
// — fail with an error wrapping ErrUnsupportedOp (errors.Is-able; the
// chain carries a *mps.UnsupportedOpError naming the operation:
// "measure", "multi-control", "assert", "checkpoint", "batch"). The two
// gate rejections come from the MPS engine itself: a rejected gate stops
// the run at that gate boundary with the completed prefix intact, like
// every other mid-run error. The rest are built in one place, the
// facade's gateway to the compressed engine, which also refuses
// RunBatch/Gradient on the TCP transport (its workers run no batches)
// and, on an undecided auto simulator, closes the decision on the
// compressed engine instead. Everything else — Amplitude, FullState (to
// 26 qubits), Norm, ProbabilityOne, ExpectationZ/ZZ, MaxCutEnergy,
// Sample/Sampler, Reset, SetBasisState — is first-class on both
// engines, answered on the MPS by tensor contraction instead of block
// decompression.
//
// # Sweep scheduler
//
// The paper's cost model pays one decompress → apply → recompress
// pass over every compressed block for every gate, with a working set
// of two decompressed blocks per worker (§3.1, Eq. 8). The sweep
// scheduler (on by default; WithSweeps(false) restores the paper's
// exact cost model) spends one codec pass on a whole run of gates. A
// group sweep is a maximal run of consecutive gates whose targets are
// offset qubits (bits inside one block) or at most three distinct
// qubits above them, at most one of those a rank-segment qubit: the
// pass walks the groups of blocks that differ only in those qubits'
// bits — one block, a pair, four or eight — decompresses a group
// once, applies all k gates in circuit order and recompresses only
// the blocks some gate touched — each distinct block of the group once:
// a member whose compact input blob equals an earlier member's copies
// its decode, and one whose amplitudes are bit-equal to an earlier
// encoded member's shares its blob. A rank-segment target's half of the
// group lives on the peer rank: the same walk exchanges each group with
// it once, between the gates before the first rank-target gate and the
// window up to the last, however many gates target that qubit, and both
// ranks compute the pairs the window splits; without such a target the
// window is empty and nothing is exchanged. A group's buffers, Eq. 8's
// pair and the blocks beyond it that a larger group needs, are scratch a
// worker holds only while a Run runs. Controls may sit anywhere — they select amplitudes, blocks
// or ranks and are not members of a group. A ZZ unit — CNOT(u,v), an
// uncontrolled gate on v with exact-zero off-diagonal entries, the
// same CNOT(u,v), v above the offset qubits — is no target at all: it
// multiplies each amplitude by the middle gate's entry indexed by
// z_u ⊕ z_v, so the pass applies it in place to every member, with no
// exchange even on rank qubits. QAOA's cost layer is one unit per edge.
// A batch plans each variant on its own, so a triple is a unit in the
// variants whose middle gate is diagonal. A sweep is broken by a
// fourth target above the offset qubits (a second under
// WithMemoryBudget, whose at-rest rule settles the budget between
// pair sweeps), a second distinct rank-segment target or a measurement.
// WithNoise breaks none: the depolarizing draw reads no amplitude, so a
// run draws every gate's Pauli before planning and splices each one that
// fires in after its gate, where it rides the gate's sweep on the gate's
// own target. A one-gate sweep is the paper's per-gate
// pass: both run through the same code, and so does a measurement's
// collapse, a pass of one gate — the projector on the drawn outcome
// times 1/√keep, whose dropped half is written as exact +0. Gate fusion
// (circuit.FuseSingleQubitGates, applied to the circuit before Run)
// is the complementary lever: it merges adjacent gates on the same
// qubit into one.
//
// Under the lossless codec, sweeps are bit-identical to gate-at-a-time
// execution for every rank and worker count: every amplitude sees the
// same float operations in the same order, and decompress ∘ compress
// is exact. A ZZ unit keeps the weaker ±0 rule: gate at a time, the
// middle gate's 2×2 adds a signed-zero term from the partner amplitude,
// which a unit never reads, so the two agree in every nonzero component
// and may differ only in the sign of a zero one. A state with no zero
// component keeps its bits. Under a lossy memory budget the state is truncated fewer
// times, and the fidelity ledger charges one (1-δ) factor per sweep —
// matching the single recompression that actually happened — so the
// Eq. 11 lower bound only rises.
//
// The memory budget holds at every sweep boundary: a boundary that
// finds a rank's resident bytes over it relaxes the error bound one
// level (§3.7) and requantizes that rank's blocks in place — a
// codec-only pass — and repeats until the state fits or the ladder is
// exhausted (ErrBudgetExceeded). After every successful Run the state
// rests within the budget; each requantize truncates the state once
// more and charges the ledger its own (1-δ) factor.
//
// Level 0 of that ladder — the lossless stage every run starts on — is
// built to be cheap where it cannot help. The codec looks at a block
// before paying for it: at most 256 distinct words (equal magnitudes
// times a finite phase set — Hadamard, QAOA-cost and Grover states)
// become a dictionary plus one-byte indices; a block that a 4 KiB probe
// spread across it shows to be incompressible is stored as it is and
// decodes at copy speed; only the rest goes through DEFLATE. The layout
// is chosen from the data alone and recorded in the blob — there is
// nothing to configure — results stay bit-exact, and blobs and
// checkpoints written before the layouts existed still load.
// Stats reports Sweeps, SweepGates, CodecPassesSaved, Escalations, the
// total CompressCalls/DecompressCalls the run issued, and the group
// members that reused an earlier member's work instead
// (CompressReused/DecompressReused).
//
// # Variant batching
//
// Variational workloads run one circuit shape at many parameter
// settings. Build a parameterized ansatz with the qcsim/circuit
// package (P, PRX/PRY/PRZ/PPhase, QAOAAnsatz, VQEAnsatz), and execute
// K bindings in one lockstep pass with RunBatch:
//
//	ansatz := circuit.QAOAAnsatz(16, 1, seed)
//	results, err := sim.RunBatch(ctx, ansatz, bindings)
//
// The binding contract: every binding must supply the ansatz's
// NumParams values, all bindings share the base circuit's shape
// (circuit.SameShape), and variant v runs with seed
// core.VariantSeed(base, v) — so results are bit-identical to K
// sequential Runs of the bound circuits on fresh simulators carrying
// those seeds. The batch runs on clones of the current state; the
// parent simulator is never mutated, and the variant states stay
// inspectable through BatchVariants until the next batch or Close.
//
// Internally the executor walks the same group-sweep schedule and fans
// each pass out over (block group, variant) units on the worker pool.
// Variants whose pass and blocks equal variant 0's share its outputs
// through a content-addressed, claim-or-wait memo, computed once per
// distinct input whatever the worker count (Stats.CodecPassesShared). A
// variant whose gates part from variant 0's inside the pass — a
// parameter-shift variant — is forked off variant 0's walk: a chunk of
// such variants decodes variant 0's blocks once and applies the gates
// before each variant's divergence point once, and each variant applies
// only its own remaining gates and recompresses its own blocks. A
// 13-qubit, 79-variant QAOA gradient is one pass: it decodes 18 blocks
// instead of 158 and applies 1 847 gates to its block pair instead of
// 4 108. Stats reports VariantCount.
//
// What breaks lockstep: nothing a valid batch can contain. Measurement
// gates consume per-variant randomness mid-circuit, so they run variant
// by variant inside the one run loop, each variant drawing from its own
// seeded stream, and the sweeps around them keep sharing codec work
// until the variants' states diverge. WithNoise draws each variant's
// Paulis from its own stream before the run plans; each variant then
// runs its solo plan, the variants whose sweeps end together share one
// pass, and a variant can fork off variant 0's walk at its first Pauli,
// so every variant stays bit-identical to its solo run. A cancel stops
// all K variants at the same sweep boundary, a codec failure after the
// same step. Shape or width mismatches are typed errors before anything
// runs, and the mps backend reports ErrUnsupportedOp — lockstep
// batching is compressed-only.
//
// Gradient evaluates a parameter-shift gradient of a diagonal
// observable (MaxCutObservable) as one lockstep batch — the base
// binding plus ±π/2 shifts per parametric gate occurrence. For
// admission planning, WithVariants(K) makes EstimateCircuit price the
// K-variant worst case (UncompressedBytes ×K, pinned to the
// compressed backend).
//
// # Memory tiers
//
// All block storage goes through one seam (the BlockStore interface in
// internal/blockstore) with two implementations: the default in-RAM
// table, and a tiered RAM → disk store enabled with WithSpill(dir,
// ramBudget). The tiered store caps the resident compressed bytes per
// rank at ramBudget and evicts the coldest blocks to a per-rank temp
// file under dir; blocks hinted by the sweep planner's visit order or
// the sampler's ascending touched-block list are staged back by a
// background prefetcher before their turn. Eviction is Belady-style: among hinted
// blocks, the one whose next use lies farthest in the future goes
// first. Results are bit-identical to the in-RAM store for every
// codec, geometry, and worker count.
//
// Spilling changes what the §3.7 budget presses on: WithMemoryBudget
// historically bounded the compressed footprint, but with a disk tier
// the footprint may exceed RAM harmlessly, so the ladder becomes
// spill first (no fidelity cost), escalate the error level only when
// the resident set still cannot fit, and report over-budget only when
// both run out. Without WithSpill, resident equals footprint and the
// behavior is exactly the paper's. Disk failures surface as errors
// wrapping ErrSpill; Close releases the spill files (they are also
// removed if New fails partway). Prefetch effectiveness is
// timing-dependent: staging wins when per-block codec work and real
// disk latency dominate — the regime out-of-core states live in —
// while page-cached demand reads at benchmark scale often win the
// race at no cost. Stats reports MaxResident, SpilledBytes,
// SpillWrites/SpillReads, and PrefetchReads/PrefetchHits.
//
// # Codec registry
//
// Compressors are selected by name: WithCodec("sz-a") on a simulator,
// NewCodec for direct use, Codecs for the list. RegisterCodec plugs
// third-party codecs into the same namespace so CLIs and RPC frontends
// can select them by string. Codec, CodecOptions and CodecMode are the
// engine's own codec interface and options, so a registered codec runs
// in the engine unwrapped; see the Codec interface for the contract
// every codec honors (self-describing payloads, exact output counts,
// error bounds respected and unknown modes refused, pure bytes, safe for
// concurrent use by every worker of every rank, fresh instance per
// factory call).
//
// # Serving
//
// EstimateCircuit prices a prospective (qubits, circuit, options) job
// without allocating any state: the structural bond-dimension bound,
// MPS tensor bytes, the dense worst case 2^(n+4), and the engine the
// auto-router would pick. It exists for serving layers that must
// admit or reject work BEFORE committing memory; cmd/qcserve
// (internal/server) builds a multi-tenant server on it — per-tenant
// memory budgets and rate limits, typed admission codes
// (ADMIT_COMPRESSED / ADMIT_MPS / ADMIT_SPILL / REJECT_BUDGET / ...),
// SSE progress streams, and idle-session suspend/resume over the
// Save/Load checkpoint path. See internal/server/protocol.go for the
// wire protocol and the README's Serving section for the lifecycle.
//
// After Close, every Simulator method reports ErrClosed; Close itself
// stays idempotent. Serving layers rely on this to make
// use-after-suspend a typed error rather than a crash.
//
// # Module layout
//
// This package and qcsim/circuit (plus qcsim/bench, the experiment
// harness handle) are the supported API; everything under internal/ is
// implementation. The simulator engine lives in internal/core; the
// compressor suite (the paper's Solutions A-D plus SZ/ZFP/FPZIP-model
// comparators) in internal/compress/...; circuit representation and the
// dense reference simulator in internal/quantum; the SPMD rank
// runtime in internal/mpi (the transport contract, its in-process
// goroutine implementation, and the real-process TCP transport in
// internal/mpi/tcpnet); the distributed-run orchestration
// (coordinator, workers, wire protocol) in internal/distrib; the
// experiment harness that regenerates every table and figure of the
// paper in internal/harness; and the qcserve multi-tenant serving
// subsystem in internal/server.
//
// # Static analysis
//
// The layering above, and the repo's other architectural invariants
// (block storage behind blockstore.Store, typed error chains on this
// facade, deterministic randomness in the engine, context discipline),
// are enforced by qclint — a type-aware analyzer suite in the nested
// lint/ module, run in CI and locally with:
//
//	make lint
//
// Exemptions are per-line //qclint:allow <analyzer> <reason>
// directives; the reason is mandatory and audited. See the "Static
// analysis" section of README.md for the invariant catalogue.
//
// # Parallelism
//
// Two knobs mirror the paper's Theta deployment (MPI ranks × OpenMP
// threads): WithRanks partitions the state across SPMD ranks
// (in-process goroutine ranks), and WithWorkers fans each rank's
// decompress → apply-gate → recompress block loop out across a worker
// pool, each worker holding private scratch buffers (Eq. 8) while a Run
// runs.
// Results — amplitudes, measurement outcomes, and the Eq. 11 fidelity
// ledger — are bit-identical for every worker count.
//
// # Distribution
//
// The rank runtime is a seam, not a binding: every collective the
// engine issues goes through the internal mpi.Comm contract, and
// WithTransport selects who implements it. TransportInProcess (the
// default) runs ranks as goroutines exchanging slices in memory.
// TransportTCP runs every rank as a real OS process, meshed pairwise
// over TCP, behind the same contract:
//
//	sim, err := qcsim.New(16,
//		qcsim.WithRanks(4),
//		qcsim.WithTransport(qcsim.TransportTCP),
//	)
//
// Each Run then spawns one worker process per rank (the qcrank
// command by default; WithWorkerCommand overrides the argv, and
// cmd/qcsim re-executes itself), ships each worker the job spec — the
// engine's whole configuration, noise channel and both codecs (by
// registry name) included, and the circuit — plus that rank's
// compressed blocks, lets the workers execute the circuit
// in lockstep over their TCP mesh, and merges the per-rank deltas
// back into this simulator. For a single Run on a fresh state the
// result is bit-identical to the in-process transport — amplitudes,
// the fidelity ledger, measurement outcomes, the deterministic Stats
// counters, and the Table 2 communication volume (BytesMoved) all
// match exactly, which is what the cross-transport conformance suite
// pins. The blocks cross by reference under the block store's
// immutability rule, a worker installs its rank the way Reset and a
// batch clone do (one install, which restarts the rank's accounting),
// and the coordinator checks every returned delta before it changes
// anything: a delta no worker of this configuration could send is
// refused and the state is kept.
//
// Failure semantics: a worker that dies mid-run tears its mesh links
// down, the failure cascades, every surviving rank unblocks from
// whatever collective it was in, and Run returns an error on which
// errors.Is(err, ErrRankDied) holds — within a bounded drain window,
// never a deadlock. On any failure (including cancellation) the
// coordinator's state is untouched: deltas are only applied after
// every rank reports success, so a failed distributed Run keeps the
// pre-run state, where the in-process transport keeps the completed
// gate prefix.
//
// Documented divergences, both consequences of workers being fresh
// processes: the measurement and noise rng streams restart at the
// configured seed on every distributed Run (a sequence of Runs with
// measurements can draw differently than the same sequence in
// process), and per-gate progress callbacks (RunProgress) are not
// delivered across the process boundary. RunBatch and Gradient are
// in-process only (ErrUnsupportedOp), and the mps backend does not
// partition across ranks at all, so WithTransport(TransportTCP)
// combined with BackendMPS is an ErrBadConfig at construction.
//
// # Building and testing
//
// The module root is this directory (module qcsim):
//
//	go build ./...
//	go test ./...
//	go test -race ./...
//	go test -bench=. -run '^$' .
//
// Start with README.md, the examples/ directory, and:
//
//	go run ./cmd/qcbench -list
package qcsim
