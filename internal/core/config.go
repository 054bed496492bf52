// Package core implements the paper's contribution: a full-state
// Schrödinger-style quantum circuit simulator that keeps the state
// vector compressed in memory at all times (§3).
//
// The 2^n amplitudes are partitioned across R = 2^ρ ranks; each rank's
// slice is split into nb blocks of B amplitudes, every block stored in
// compressed form. A gate decompresses at most two blocks per worker
// into scratch buffers (the paper's MCDRAM working set, Eq. 8), applies
// the 2×2 unitary to the amplitude pairs, and recompresses; a sweep of
// gates on up to three block-segment qubits decompresses a group of up
// to eight blocks once for all of them (sweep.go). A hybrid adaptive pipeline (§3.7) starts lossless and relaxes through
// pointwise-relative bounds 1E-5 → 1E-1 whenever the compressed
// footprint exceeds the memory budget, while the fidelity ledger tracks
// the lower bound Π(1-δᵢ) (Eq. 11). A 64-line LRU compressed-block
// cache (§3.4) short-circuits repeated (sweep, block-group) computations.
package core

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"

	"qcsim/internal/compress"
	"qcsim/internal/compress/lossless"
	"qcsim/internal/compress/xortrunc"
	"qcsim/internal/mpi"
)

// DefaultErrorLevels are the paper's five pointwise relative error
// bounds, tightest first (§3.7). Level 0 is always the lossless stage.
var DefaultErrorLevels = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// Config parameterizes a Simulator. It is the whole of an engine's
// settings: New validates it (withDefaults), Clone copies it, and the
// TCP transport ships it to the worker processes as it is, so a setting
// added here reaches every one of those paths with no further code.
type Config struct {
	// Qubits is the register width n; the simulator stores 2^n
	// amplitudes (2^(n+4) bytes uncompressed, the paper's Table 1
	// arithmetic).
	Qubits int
	// Ranks is the number of SPMD ranks (power of two). Defaults to 1.
	Ranks int
	// Workers is the intra-rank worker-pool width: how many goroutines
	// fan out over one rank's block loop (the analog of the paper's 64
	// OpenMP threads per MPI rank). Each worker holds private scratch
	// only while a Run runs: one 16·BlockAmps-byte block buffer per
	// member of the largest group it has walked — 32·BlockAmps bytes for
	// the Eq. 8 pair, 128·BlockAmps for an 8-block group sweep — and as
	// much again where a batch pass forks a variant, all dropped when
	// the Run returns, so an idle Simulator holds none. None of it is
	// charged against MemoryBudget: like the paper's MCDRAM buffers, it
	// is uncompressed scratch. Results are bit-identical for every
	// worker count. Defaults to
	// runtime.NumCPU()/Ranks, min 1; clamped to the block count.
	Workers int
	// BlockAmps is the number of amplitudes per block (power of two;
	// the paper uses 2^20 = 16 MB blocks). It is clamped to the
	// per-rank slice size. Defaults to 4096 — laptop-scale blocks.
	BlockAmps int
	// Lossless is the level-0 codec. Defaults to the flate-backed
	// Zstd substitute.
	Lossless compress.Codec
	// Lossy is the error-bounded codec for levels ≥ 1. Defaults to
	// Solution C (xortrunc).
	Lossy compress.Codec
	// ErrorLevels are the lossy bounds in escalation order: finite,
	// each in (0, 1), strictly increasing. Defaults to
	// DefaultErrorLevels.
	ErrorLevels []float64
	// MemoryBudget caps the per-rank compressed footprint in bytes;
	// exceeding it escalates the error level (§3.7). 0 means
	// unlimited (the simulation stays lossless).
	MemoryBudget int64
	// CacheLines enables the compressed block cache with this many LRU
	// lines when > 0 (the paper uses 64). A hit costs the same at any
	// size; a miss additionally pays O(lines) to insert, so this is
	// meant to stay a small working set, not a second block table.
	CacheLines int
	// Uncompressed disables compression entirely: blocks are stored
	// raw. This is the Intel-QS-equivalent baseline used by the
	// overhead and scaling experiments.
	Uncompressed bool
	// SpillDir enables the tiered RAM→disk block store: cold compressed
	// blocks evict to a per-rank spill file in this directory once the
	// resident bytes exceed SpillRAMBudget, and the sweep scheduler's
	// and sampler's block orders drive async prefetch. Setting either
	// spill field enables the tier: an empty SpillDir with
	// SpillRAMBudget > 0 falls back to os.TempDir().
	SpillDir string
	// SpillRAMBudget caps the compressed bytes a rank keeps RESIDENT in
	// RAM when spilling is enabled; the rest of the footprint lives in
	// the spill file. 0 with SpillDir set defaults to MemoryBudget, so
	// spilling becomes the escalation ladder's first rung: the state
	// trades disk for fidelity instead of relaxing the error bound.
	// Negative is invalid.
	SpillRAMBudget int64
	// Launcher runs the SPMD rank bodies. nil selects the in-process
	// goroutine runtime (mpi.Goroutines), where every rank is a
	// goroutine of this process. A distributed transport installs a
	// launcher that runs exactly this process's rank and returns nil
	// Comm entries for remote ranks — their accounting travels back
	// out of band (see InstallRank / ExportDelta / ApplyDeltas).
	Launcher mpi.Launcher
	// DisableSweeps turns off the sweep scheduler, which by default
	// batches maximal runs of consecutive gates whose targets are in the
	// offset segment or on at most three block-segment qubits (one under
	// a MemoryBudget; see sweep.go) into one decompress → apply-all → recompress pass over
	// groups of up to eight blocks. Sweeps are
	// bit-identical to gate-at-a-time execution under the lossless codec
	// and only raise the Eq. 11 ledger under lossy codecs (one
	// recompression — hence one (1-δ) charge — per sweep instead of per
	// gate). The zero value
	// leaves sweeps ON; set this only to reproduce the paper's exact
	// one-pass-per-gate cost model.
	DisableSweeps bool
	// Noise is the per-gate depolarizing probability, in [0, 1): the
	// paper's future-work direction (§6) of folding stochastic device
	// noise into the simulation alongside the (already uncorrelated)
	// compression error. It is a quantum-trajectories channel: after
	// each gate, with this probability, a uniformly random Pauli hits the
	// gate's target qubit. A run draws the Paulis from the simulator's
	// deterministic noise stream before it plans and splices them in
	// after their gates (noise.go), so every rank executes the one
	// trajectory and a Pauli rides its gate's sweep. 0, the default, is
	// noiseless and draws nothing.
	Noise float64
	// Seed drives measurement collapse and the noise channel.
	Seed int64
}

// ValidatedDefaults returns a validated copy with every default
// applied (codec selection, block and worker clamping, spill
// normalization) without allocating any state. It is the one validation
// entry point outside New: the facade fails fast with it at
// construction while deferring (or never making) the state allocation,
// and it is the planning view behind the EstimateCircuit admission hook.
func (c Config) ValidatedDefaults() (Config, error) {
	return c.withDefaults()
}

// withDefaults returns a validated copy with defaults applied.
func (c Config) withDefaults() (Config, error) {
	if c.Qubits < 1 || c.Qubits > 62 {
		return c, fmt.Errorf("core: qubits %d out of range", c.Qubits)
	}
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Ranks < 1 || bits.OnesCount(uint(c.Ranks)) != 1 {
		return c, fmt.Errorf("core: ranks %d must be a power of two", c.Ranks)
	}
	perRank := c.Qubits - bits.TrailingZeros(uint(c.Ranks))
	if perRank < 1 {
		return c, fmt.Errorf("core: %d ranks leave no amplitudes per rank for %d qubits", c.Ranks, c.Qubits)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("core: negative workers")
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU() / c.Ranks
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.BlockAmps == 0 {
		c.BlockAmps = 4096
	}
	if c.BlockAmps < 2 || bits.OnesCount(uint(c.BlockAmps)) != 1 {
		return c, fmt.Errorf("core: block size %d must be a power of two ≥ 2", c.BlockAmps)
	}
	if c.BlockAmps > 1<<uint(perRank) {
		c.BlockAmps = 1 << uint(perRank)
	}
	// A worker beyond the block count can never be scheduled; clamping
	// here keeps the pool, and a read's buffers per worker id, to the
	// workers a fan-out can touch.
	if nb := (1 << uint(perRank)) / c.BlockAmps; c.Workers > nb {
		c.Workers = nb
	}
	if c.Lossless == nil {
		c.Lossless = lossless.New(false)
	}
	if c.Lossy == nil {
		c.Lossy = xortrunc.New()
	}
	if c.ErrorLevels == nil {
		c.ErrorLevels = DefaultErrorLevels
	}
	for i, bound := range c.ErrorLevels {
		// Written so NaN fails: every comparison with it is false.
		if !(bound > 0 && bound < 1) {
			return c, fmt.Errorf("core: error level %v out of (0,1)", bound)
		}
		if i > 0 && bound <= c.ErrorLevels[i-1] {
			return c, fmt.Errorf("core: error levels must be strictly increasing")
		}
	}
	if !(c.Noise >= 0 && c.Noise < 1) {
		return c, fmt.Errorf("core: depolarizing probability %v out of [0,1)", c.Noise)
	}
	if c.CacheLines < 0 {
		return c, fmt.Errorf("core: negative cache lines")
	}
	if c.SpillRAMBudget < 0 {
		return c, fmt.Errorf("core: negative spill RAM budget")
	}
	if c.SpillDir != "" && c.SpillRAMBudget == 0 {
		c.SpillRAMBudget = c.MemoryBudget
		if c.SpillRAMBudget == 0 {
			return c, fmt.Errorf("core: spill dir set but no RAM budget to spill against (set SpillRAMBudget or MemoryBudget)")
		}
	}
	if c.SpillRAMBudget > 0 && c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	return c, nil
}

// spillEnabled reports whether the tiered RAM→disk store is active
// (withDefaults normalizes the two spill fields together).
func (c Config) spillEnabled() bool { return c.SpillRAMBudget > 0 }

// budgeted reports whether the memory budget can escalate the §3.7
// ladder: a budget is set and there is compression to relax.
func (c Config) budgeted() bool { return c.MemoryBudget > 0 && !c.Uncompressed }

// MemoryRequirement returns the uncompressed state size in bytes for n
// qubits: 2^(n+4) (double-precision complex amplitudes), the arithmetic
// behind the paper's Table 1.
func MemoryRequirement(n int) float64 {
	// Computed in floating point so 61-qubit exabyte-scale numbers
	// do not overflow int64 printing paths.
	v := 1.0
	for i := 0; i < n+4; i++ {
		v *= 2
	}
	return v
}

// MaxQubitsForMemory returns the largest register a machine with `bytes`
// of memory can simulate without compression (Table 1's Max Qubits
// column).
func MaxQubitsForMemory(bytes float64) int {
	n := 0
	for MemoryRequirement(n+1) <= bytes {
		n++
	}
	return n
}
