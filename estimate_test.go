package qcsim

import (
	"context"
	"errors"
	"testing"

	"qcsim/circuit"
)

func TestEstimateCircuitRouting(t *testing.T) {
	ghz := circuit.GHZ(40)
	est, err := EstimateCircuit(40, ghz)
	if err != nil {
		t.Fatal(err)
	}
	if !est.MPSRunnable {
		t.Fatal("GHZ-40 must be MPS-runnable")
	}
	if est.BondDim != 2 {
		t.Fatalf("GHZ bond estimate = %d, want 2", est.BondDim)
	}
	if est.Backend != BackendMPS {
		t.Fatalf("GHZ-40 should route to mps, got %q", est.Backend)
	}
	if est.MPSBytes <= 0 || est.MPSBytes > 1<<20 {
		t.Fatalf("GHZ-40 MPS estimate %d bytes implausible", est.MPSBytes)
	}
	if est.UncompressedBytes != MemoryRequirement(40) {
		t.Fatalf("uncompressed estimate %v, want %v", est.UncompressedBytes, MemoryRequirement(40))
	}

	// A measuring circuit is not MPS-runnable and must route compressed.
	meas := circuit.New(8).H(0).CNOT(0, 1).Measure(0)
	est, err = EstimateCircuit(8, meas)
	if err != nil {
		t.Fatal(err)
	}
	if est.MPSRunnable || est.Backend != BackendCompressed {
		t.Fatalf("measuring circuit: MPSRunnable=%v backend=%q, want compressed route", est.MPSRunnable, est.Backend)
	}

	// Deep brickwork exceeds a tight χ cap and routes compressed (the
	// 12-qubit Hilbert ceiling caps the estimate at 2^6 = 64, so the
	// cap must sit below that to exercise the rejection).
	deep := circuit.Brickwork(12, 40, 5)
	est, err = EstimateCircuit(12, deep, WithBondDim(8))
	if err != nil {
		t.Fatal(err)
	}
	if est.Backend != BackendCompressed {
		t.Fatalf("deep brickwork at χ=8 should route compressed, got %q", est.Backend)
	}
	// ... but a raised χ cap flips it back.
	est, err = EstimateCircuit(12, deep, WithBondDim(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if est.Backend != BackendMPS {
		t.Fatalf("deep brickwork with huge χ should route mps, got %q", est.Backend)
	}
}

// TestEstimateAgreesWithAuto: the estimate's routing decision must
// match what a WithBackend("auto") simulator actually picks — the
// admission controller and the engine must not disagree.
func TestEstimateAgreesWithAuto(t *testing.T) {
	agree := func(name string, n int, c *circuit.Circuit, opts ...Option) string {
		t.Helper()
		est, err := EstimateCircuit(n, c, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sim, err := New(n, append([]Option{WithBackend(BackendAuto)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer sim.Close()
		if _, err := sim.Run(context.Background(), c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sim.Backend(); got != est.Backend {
			t.Errorf("%s: estimate routes %q but auto picked %q", name, est.Backend, got)
		}
		return est.Backend
	}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		n    int
	}{
		{"ghz", circuit.GHZ(10), 10},
		{"qft", circuit.QFT(10, 1), 10},
		{"brickwork-shallow", circuit.Brickwork(10, 2, 3), 10},
		{"brickwork-deep", circuit.Brickwork(10, 30, 3), 10},
	} {
		agree(tc.name, tc.n, tc.c)
	}

	// One row per arm of the routing rule that sends a circuit the MPS
	// would otherwise take to the compressed engine.
	shallow := circuit.Brickwork(10, 4, 3)
	if est, err := EstimateCircuit(10, shallow); err != nil || est.BondDim <= 2 || est.Backend != BackendMPS {
		t.Fatalf("the χ row needs an mps-routed circuit whose bond estimate exceeds 2: %+v, %v", est, err)
	}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		opts []Option
	}{
		{"noise", circuit.GHZ(10), []Option{WithNoise(0.01)}},
		{"uncompressed", circuit.GHZ(10), []Option{WithUncompressed(true)}},
		{"measurement", circuit.New(10).H(0).Measure(0), nil},
		{"toffoli", circuit.New(10).H(0).Toffoli(0, 1, 2), nil},
		{"bond-dim-2", shallow, []Option{WithBondDim(2)}},
	} {
		if got := agree(tc.name, 10, tc.c, tc.opts...); got != BackendCompressed {
			t.Errorf("%s: routed %q, want %q", tc.name, got, BackendCompressed)
		}
	}
}

func TestEstimateCircuitValidation(t *testing.T) {
	if _, err := EstimateCircuit(4, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil circuit: %v, want ErrBadConfig", err)
	}
	if _, err := EstimateCircuit(5, circuit.GHZ(4)); !errors.Is(err, ErrCircuitMismatch) {
		t.Fatalf("width mismatch: %v, want ErrCircuitMismatch", err)
	}
	if _, err := EstimateCircuit(99, circuit.GHZ(99)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("99 qubits: %v, want ErrBadConfig", err)
	}
	if _, err := EstimateCircuit(4, circuit.GHZ(4), WithCodec("nope")); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("bad codec: %v, want ErrUnknownCodec", err)
	}
	// Noise forces the compressed route even on an MPS-friendly circuit.
	est, err := EstimateCircuit(4, circuit.GHZ(4), WithNoise(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if est.MPSRunnable || est.Backend != BackendCompressed {
		t.Fatalf("noisy estimate should route compressed, got %+v", est)
	}
}
