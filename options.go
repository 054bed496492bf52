package qcsim

import (
	"fmt"

	"qcsim/internal/compress/registry"
	"qcsim/internal/core"
)

// DefaultErrorLevels are the paper's five pointwise relative error
// bounds, tightest first. Level 0 (not listed) is always the lossless
// stage; WithMemoryBudget makes the engine escalate through these
// whenever the compressed footprint exceeds the budget.
var DefaultErrorLevels = core.DefaultErrorLevels

// settings accumulates functional options before New resolves them into
// the engine configuration. Option errors are deferred: the first one
// is reported by New, wrapped in ErrBadConfig (or ErrUnknownCodec for
// codec-name lookups).
type settings struct {
	cfg       core.Config
	codecName string
	backend   string
	bondDim   int
	variants  int
	transport string
	workerCmd []string
}

// Option configures a Simulator at construction. Options are applied in
// order; later options override earlier ones.
type Option func(*settings)

// WithRanks partitions the state across r SPMD ranks (goroutine
// "nodes"; power of two). Default 1.
func WithRanks(r int) Option {
	return func(s *settings) { s.cfg.Ranks = r }
}

// WithWorkers sets the intra-rank worker-pool width: how many
// goroutines fan out over one rank's block loop. Results are
// bit-identical for every worker count. Default NumCPU/ranks.
func WithWorkers(w int) Option {
	return func(s *settings) { s.cfg.Workers = w }
}

// WithBlockAmps sets the number of amplitudes per compressed block
// (power of two; the paper uses 2^20). Default 4096.
func WithBlockAmps(n int) Option {
	return func(s *settings) { s.cfg.BlockAmps = n }
}

// WithMemoryBudget caps the per-rank compressed footprint in bytes.
// A sweep boundary that finds the state over it relaxes the error bound
// (the paper's §3.7 adaptive pipeline) and recompresses the state in
// place, level by level, until it fits — so after every successful Run
// the state rests within the budget. 0 (the default) means unlimited —
// the simulation stays lossless. If the loosest bound still does not
// fit, Run reports ErrBudgetExceeded.
func WithMemoryBudget(bytes int64) Option {
	return func(s *settings) { s.cfg.MemoryBudget = bytes }
}

// WithErrorLevels replaces the escalation ladder of pointwise relative
// error bounds (each in (0,1), strictly increasing, tightest first;
// anything else is ErrBadConfig from New). Default DefaultErrorLevels.
func WithErrorLevels(bounds ...float64) Option {
	return func(s *settings) { s.cfg.ErrorLevels = append([]float64(nil), bounds...) }
}

// WithCodec selects the error-bounded codec used for lossy levels by
// registry name or alias (e.g. "xor-c", "sz-a", "solution-d"; see
// Codecs for the full list, RegisterCodec to add entries). The level-0
// lossless stage is unaffected. Default "xor-c", the paper's
// Solution C.
func WithCodec(name string) Option {
	return func(s *settings) { s.codecName = name }
}

// DefaultCacheLines is WithCache's default, the paper's §3.4 size.
const DefaultCacheLines = 64

// WithCache sets the LRU lines of the §3.4 compressed block cache; 0
// turns it off. Default DefaultCacheLines. After 4 × lines lookups in a
// row without a hit the cache shuts off for the Simulator's lifetime and
// drops its lines, so a state without redundancy pays that window once.
func WithCache(lines int) Option {
	return func(s *settings) { s.cfg.CacheLines = lines }
}

// DefaultSampleCache was the number of lines of a decoded-block LRU a
// held Sampler kept between Sample calls. A Sampler now keeps nothing
// between calls but its CDF, and the engine's NewSampler ignores its
// argument, so the value means nothing.
//
// Deprecated: pass any value, or 0, to the engine's NewSampler; the
// constant will be removed once nothing names it.
const DefaultSampleCache = 8

// DefaultBondDim is the MPS bond-dimension cap χ when WithBondDim is
// not given: large enough for GHZ-like and shallow-entangling circuits
// (χ grows as 2^depth of entangling structure), small enough that a
// truncating run is obvious from the fidelity ledger.
const DefaultBondDim = 64

// WithBackend selects the simulation engine: BackendCompressed (the
// default — the paper's compressed full-state engine), BackendMPS (the
// §2.2 tensor-network comparator: polynomial memory for
// low-entanglement circuits up to the 62-qubit register cap, but
// measurement,
// multi-controlled gates, assertions, checkpointing, and noise report
// ErrUnsupportedOp or ErrBadConfig), or BackendAuto (decide at the
// first Run from the circuit's two-qubit-gate structure: MPS when the
// estimated bond dimension fits WithBondDim's budget and every gate is
// MPS-runnable, compressed otherwise). While an auto decision is open,
// inspection runs on a provisional engine without closing it;
// operations only the compressed engine supports (Save, Load, the
// Assert* methods) close the decision in its favor, exactly like a
// circuit at Run. Unknown names report ErrBadConfig from New.
func WithBackend(name string) Option {
	return func(s *settings) { s.backend = name }
}

// WithBondDim caps the MPS bond dimension χ (≥ 2): the entanglement
// budget of the mps backend, and the selection threshold of the auto
// backend. Two-qubit gates whose SVD spectrum exceeds χ truncate, and
// the discarded weight multiplies into FidelityLowerBound exactly like
// the compressed engine's Eq. 11 ledger. Memory scales as O(n·χ²).
// Ignored by the compressed backend. Default DefaultBondDim.
func WithBondDim(chi int) Option {
	return func(s *settings) { s.bondDim = chi }
}

// WithVariants declares the batch width K a job will run at
// (Simulator.RunBatch with K bindings, or a parameter-shift Gradient
// whose circuit has (K-1)/2 parameter occurrences). The option does not
// change how a Simulator executes — RunBatch takes its width from the
// binding list — but it changes how EstimateCircuit prices the job: a
// K-variant batch holds K state copies in the worst case, so
// UncompressedBytes scales by K and the job is pinned to the compressed
// backend (lockstep batching is compressed-only). Admission layers
// (qcserve) reserve against that K-variant ceiling. Values below 1 are
// ErrBadConfig; 1 (the default) is an ordinary solo run.
func WithVariants(k int) Option {
	return func(s *settings) { s.variants = k }
}

// WithNoise installs a quantum-trajectories depolarizing channel: after
// each gate, with probability prob, a uniformly random Pauli hits the
// gate's target qubit. A run draws its Paulis before it plans and
// splices each one that fires in after its gate, so a Pauli rides its
// gate's sweep (WithSweeps) and costs no codec pass of its own; hooks,
// GatesRun and Result.Gates count the circuit's gates alone. prob must
// lie in [0,1) (anything else, NaN included, is ErrBadConfig from New).
// Default 0 (noiseless). The mps
// backend has no noise channel (ErrBadConfig) and auto routes a noisy
// circuit to the compressed engine, whose TCP transport ships the
// channel to its workers with the rest of the configuration.
func WithNoise(prob float64) Option {
	return func(s *settings) { s.cfg.Noise = prob }
}

// WithSeed seeds every random stream the simulator owns — measurement
// collapse, the noise channel, and Sample — making runs fully
// deterministic. Default 0.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithSweeps toggles the sweep scheduler (default on): maximal runs of
// consecutive gates whose targets are offset qubits (inside one
// compressed block) or at most three distinct block-segment qubits
// execute as a single decompress → apply-all → recompress pass over
// groups of one, two, four or eight blocks instead of one codec round
// trip per gate; controls may sit anywhere. A sweep is broken by a
// fourth block-segment target (a second under WithMemoryBudget), a cross-rank
// target, or a measurement; WithNoise's Paulis ride their gates' sweeps.
// Sweeps are bit-identical to gate-at-a-time execution under the
// lossless codec; under a lossy budget the state sees fewer truncations
// and the Eq. 11 fidelity ledger charges one (1-δ) factor per sweep —
// the bound only rises. Stats reports Sweeps, SweepGates, and
// CodecPassesSaved. Disable only to reproduce the paper's exact
// one-pass-per-gate cost model.
func WithSweeps(enabled bool) Option {
	return func(s *settings) { s.cfg.DisableSweeps = !enabled }
}

// WithUncompressed disables compression entirely (blocks stored raw) —
// the Intel-QS-equivalent baseline the paper compares against.
func WithUncompressed(enabled bool) Option {
	return func(s *settings) { s.cfg.Uncompressed = enabled }
}

// WithSpill enables the tiered block store: each rank keeps at most
// ramBudget bytes of compressed blocks resident and spills the
// coldest to a per-rank temp file under dir, prefetched back in block
// order ahead of the sweep and sampler passes. States whose
// compressed footprint exceeds RAM complete out of core instead of
// escalating the §3.7 error ladder — the budget set by
// WithMemoryBudget presses on the resident bytes, so a state that
// fits on disk never degrades and never reports ErrBudgetExceeded.
// Results stay bit-identical to an unspilled run.
//
// dir == "" uses os.TempDir(); ramBudget == 0 adopts WithMemoryBudget's
// value (New reports ErrBadConfig if both are zero; a negative budget
// is always ErrBadConfig). Spill I/O failures — an unwritable dir at
// New, a failed write mid-run — wrap ErrSpill. Call Simulator.Close
// to remove the spill files; they live under dir until then.
// Compressed backend only; the mps backend ignores it.
func WithSpill(dir string, ramBudget int64) Option {
	return func(s *settings) {
		s.cfg.SpillDir = dir
		s.cfg.SpillRAMBudget = ramBudget
	}
}

// Transport names accepted by WithTransport.
const (
	// TransportInProcess is the default rank runtime: every SPMD rank
	// is a goroutine of this process, exchanging halves over channels.
	TransportInProcess = "inprocess"
	// TransportTCP runs every rank as a separate OS process connected
	// over loopback (or LAN) TCP. Each Run ships the compressed state
	// to worker processes, executes there, and merges the results back
	// — bit-identical to the in-process transport for a single Run:
	// amplitudes, fidelity ledger, measurement outcomes, sampling, and
	// the deterministic Stats counters all match. See the package
	// documentation's "Distribution" section for the lifecycle and
	// failure semantics.
	TransportTCP = "tcp"
)

// WithTransport selects the rank runtime: TransportInProcess (the
// default) or TransportTCP. The TCP transport requires the compressed
// backend (the default; mps and auto report ErrBadConfig) and spawns
// one worker process per rank at each Run — see WithWorkerCommand.
// A worker dying mid-run surfaces as an error wrapping ErrRankDied on
// every surviving rank, within a bounded timeout, and leaves the
// coordinator's pre-run state intact. Unknown names report
// ErrBadConfig from New.
func WithTransport(name string) Option {
	return func(s *settings) { s.transport = name }
}

// WithWorkerCommand sets the argv the TCP transport spawns once per
// rank; each child receives the coordinator's address in the
// QCSIM_COORD_ADDR environment variable and must call
// qcsim.RankWorker with it (the stock cmd/qcrank binary does exactly
// that, and is the default: "qcrank" resolved through PATH). Only
// meaningful with WithTransport(TransportTCP); otherwise New reports
// ErrBadConfig.
func WithWorkerCommand(argv ...string) Option {
	return func(s *settings) { s.workerCmd = append([]string(nil), argv...) }
}

// resolve applies opts in order over the facade's defaults, as New and
// EstimateCircuit both do, and turns the settings into a checked core
// configuration, resolving the codec name through the registry.
func resolve(qubits int, opts []Option) (s settings, cfg core.Config, err error) {
	s.cfg.CacheLines = DefaultCacheLines
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	cfg = s.cfg
	cfg.Qubits = qubits
	if s.codecName != "" {
		codec, err := registry.New(s.codecName)
		if err != nil {
			return s, cfg, fmt.Errorf("%w: %q (have %v)", ErrUnknownCodec, s.codecName, Codecs())
		}
		cfg.Lossy = codec
	}
	if s.variants == 0 {
		s.variants = 1
	}
	if s.variants < 1 {
		return s, cfg, fmt.Errorf("%w: variant count %d (need ≥ 1)", ErrBadConfig, s.variants)
	}
	if s.bondDim == 0 {
		s.bondDim = DefaultBondDim
	}
	if s.bondDim < 2 {
		return s, cfg, fmt.Errorf("%w: bond dimension %d too small (need ≥ 2)", ErrBadConfig, s.bondDim)
	}
	switch s.backend {
	case "", BackendCompressed, BackendMPS, BackendAuto:
	default:
		return s, cfg, fmt.Errorf("%w: unknown backend %q (have %q, %q, %q)",
			ErrBadConfig, s.backend, BackendCompressed, BackendMPS, BackendAuto)
	}
	if s.backend == BackendMPS && cfg.Noise > 0 {
		return s, cfg, fmt.Errorf("%w: the mps backend has no noise channel (use the compressed backend)", ErrBadConfig)
	}
	switch s.transport {
	case "", TransportInProcess, TransportTCP:
	default:
		return s, cfg, fmt.Errorf("%w: unknown transport %q (have %q, %q)",
			ErrBadConfig, s.transport, TransportInProcess, TransportTCP)
	}
	if s.transport == TransportTCP && (s.backend == BackendMPS || s.backend == BackendAuto) {
		return s, cfg, fmt.Errorf("%w: the %s transport distributes the compressed engine only (drop WithBackend(%q))",
			ErrBadConfig, TransportTCP, s.backend)
	}
	if len(s.workerCmd) > 0 && s.transport != TransportTCP {
		return s, cfg, fmt.Errorf("%w: WithWorkerCommand requires WithTransport(%q)", ErrBadConfig, TransportTCP)
	}
	if s.workerCmd != nil && (len(s.workerCmd) == 0 || s.workerCmd[0] == "") {
		return s, cfg, fmt.Errorf("%w: empty worker command", ErrBadConfig)
	}
	// Auto defers the compressed engine to the first Run and mps never
	// builds it, yet a config typo must not pass or fail with the backend
	// name it rides in with, so every backend's knobs are checked here.
	if _, err := cfg.ValidatedDefaults(); err != nil {
		return s, cfg, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return s, cfg, nil
}
