package qcsim

import (
	"fmt"

	"qcsim/circuit"
	"qcsim/internal/core"
)

// Estimate is the admission-planning view of a circuit: everything a
// serving layer needs to price a job BEFORE allocating any state. It
// is the explicit facade hook over the internal planners
// (quantum.EstimateBondDim, the codec footprint model, the backend
// auto-router) so multi-tenant admission control never reaches into
// internal packages.
//
// The numbers are upper bounds, not measurements: BondDim is the
// structural Schmidt-rank bound (each two-qubit gate at most doubles
// the rank across the cuts it straddles, capped by the smaller cut
// side's Hilbert dimension), MPSBytes is the tensor storage an exact
// MPS run at the capped χ would hold, and UncompressedBytes is the
// 2^(n+4) dense worst case the compressed engine degrades toward under
// adversarial (incompressible) states. A budget that admits
// UncompressedBytes can never be blown by the job; real compressed
// footprints are usually far smaller.
type Estimate struct {
	// Qubits and Gates describe the job's shape.
	Qubits int
	Gates  int

	// BondDim is the structural upper bound on the MPS bond dimension
	// an exact run needs (quantum.EstimateBondDim), saturating at 2^30.
	BondDim int
	// MPSRunnable reports whether every gate is runnable on the MPS
	// backend (no measurement collapse, at most one control) AND the
	// options permit it (no noise, not the uncompressed baseline).
	MPSRunnable bool
	// Backend is the engine WithBackend("auto") would pick for this
	// circuit under these options: BackendMPS iff MPSRunnable and
	// BondDim fits the (possibly WithBondDim-overridden) χ cap,
	// BackendCompressed otherwise.
	Backend string

	// Variants is the batch width K the estimate covers (WithVariants;
	// 1 for a solo run). A K-variant RunBatch holds K state copies, so
	// UncompressedBytes below is already scaled by K, and K > 1 pins
	// the job to the compressed backend — lockstep batching is
	// compressed-only.
	Variants int

	// UncompressedBytes is the dense state size Variants·2^(n+4) — the
	// compressed engine's worst-case footprint, and the working-set
	// ceiling an admission budget must cover to be unconditionally
	// safe. float64 because 60+-qubit registers overflow int64.
	UncompressedBytes float64
	// MPSBytes is the tensor storage of an exact MPS run at the capped
	// bond dimension min(BondDim, χ): Σᵢ 16·2·χᵢ₋₁·χᵢ bytes with the
	// per-cut caps applied. Meaningful only when MPSRunnable.
	MPSBytes int64
	// BlockBytes is one decompressed block's scratch size 16·BlockAmps
	// — the minimum resident budget a spill-tier run needs per worker.
	BlockBytes int64
}

// EstimateCircuit prices a prospective (qubits, circuit, options) job
// without allocating any state: the options are validated exactly as
// New would (ErrBadConfig / ErrUnknownCodec on bad ones), but no
// engine, block table, or spill file is created. Serving layers use it
// to reject or route jobs (mps / compressed / compressed+spill) before
// committing memory; see the qcserve admission controller.
func EstimateCircuit(qubits int, c *circuit.Circuit, opts ...Option) (*Estimate, error) {
	st, cfg, err := resolve(qubits, opts)
	if err != nil {
		return nil, err
	}
	// ValidatedDefaults applies defaults (block clamping, worker
	// clamping) without touching state, for the block arithmetic; resolve
	// has checked cfg, so its error is nil.
	vcfg, _ := cfg.ValidatedDefaults()
	if c == nil {
		return nil, fmt.Errorf("%w: nil circuit", ErrBadConfig)
	}
	if c.N != qubits {
		return nil, fmt.Errorf("%w: circuit has %d qubits, estimate for %d", ErrCircuitMismatch, c.N, qubits)
	}
	route, runnable, bond := autoRoute(c, vcfg, st.bondDim)
	if st.variants > 1 {
		route = BackendCompressed // lockstep batching is compressed-only
	}
	return &Estimate{
		Qubits:            qubits,
		Gates:             len(c.Gates),
		BondDim:           bond,
		MPSRunnable:       runnable && st.variants == 1,
		Backend:           route,
		Variants:          st.variants,
		UncompressedBytes: float64(st.variants) * core.MemoryRequirement(qubits),
		MPSBytes:          mpsBytesEstimate(qubits, bond, st.bondDim),
		BlockBytes:        16 * int64(vcfg.BlockAmps),
	}, nil
}

// mpsBytesEstimate sums the complex128 tensor storage of an n-site MPS
// whose bond at cut i is min(est, χ, 2^min(i+1, n-1-i)): 16·2·χL·χR
// bytes per site tensor.
func mpsBytesEstimate(n, est, chi int) int64 {
	if n < 1 {
		return 0
	}
	if est > chi {
		est = chi
	}
	bond := func(cut int) int64 { // bond dimension across cut (cut = -1 and n-1 are the open ends)
		if cut < 0 || cut >= n-1 {
			return 1
		}
		side := cut + 1
		if s := n - 1 - cut; s < side {
			side = s
		}
		b := int64(est)
		if side < 62 && int64(1)<<uint(side) < b {
			b = int64(1) << uint(side)
		}
		return b
	}
	var total int64
	for i := 0; i < n; i++ {
		total += 16 * 2 * bond(i-1) * bond(i)
	}
	return total
}
