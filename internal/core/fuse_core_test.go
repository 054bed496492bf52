package core

import (
	"math/cmplx"
	"testing"

	"qcsim/internal/quantum"
)

// Gate fusion is a circuit transformation, applied before Run; these
// tests hold the engine to what it buys.

func TestFuseGatesEquivalentState(t *testing.T) {
	cir := quantum.RandomCircuit(8, 200, 19)
	plain := newSim(t, 8, 2, 16, nil)
	fused := newSim(t, 8, 2, 16, nil)
	if err := plain.Run(cir); err != nil {
		t.Fatal(err)
	}
	if err := fused.Run(quantum.FuseSingleQubitGates(cir)); err != nil {
		t.Fatal(err)
	}
	a, _ := plain.FullState()
	b, _ := fused.FullState()
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-11 {
			t.Fatalf("fusion changed amplitude %d by %g", i, cmplx.Abs(a[i]-b[i]))
		}
	}
	if fused.GatesRun() >= plain.GatesRun() {
		t.Fatalf("fusion did not reduce executed gates: %d vs %d", fused.GatesRun(), plain.GatesRun())
	}
}

func TestFuseGatesImprovesLedger(t *testing.T) {
	// Fewer executed gates ⇒ fewer (1-δ) factors under a tight budget.
	cir := quantum.RandomCircuit(8, 150, 23)
	mk := func() *Simulator {
		return newSim(t, 8, 1, 32, func(c *Config) {
			c.MemoryBudget = 1 // force max escalation immediately
		})
	}
	plain, fused := mk(), mk()
	if err := plain.Run(cir); err != nil {
		t.Fatal(err)
	}
	if err := fused.Run(quantum.FuseSingleQubitGates(cir)); err != nil {
		t.Fatal(err)
	}
	if fused.FidelityLowerBound() <= plain.FidelityLowerBound() {
		t.Fatalf("fused ledger %v not above plain %v",
			fused.FidelityLowerBound(), plain.FidelityLowerBound())
	}
}
