package core

import (
	"errors"
	"fmt"
	"testing"

	"qcsim/internal/quantum"
)

// TestTypedSentinels: the engine's validation failures wrap sentinels,
// so the facade translates them with errors.Is instead of matching
// message text.
func TestTypedSentinels(t *testing.T) {
	s := newSim(t, 2, 1, 4, nil)

	if err := s.AssertClassical(0, 1, 1e-6); !errors.Is(err, ErrAssertFailed) {
		t.Fatalf("AssertClassical: %v does not wrap ErrAssertFailed", err)
	}
	if err := s.AssertSuperposition(0, 0.01); !errors.Is(err, ErrAssertFailed) {
		t.Fatalf("AssertSuperposition: %v does not wrap ErrAssertFailed", err)
	}
	if err := s.AssertProduct(1, 1, 0.01); !errors.Is(err, ErrInvalidPair) {
		t.Fatalf("AssertProduct(1,1): %v does not wrap ErrInvalidPair", err)
	}

	sp, err := s.NewSampler(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Sample(nil, -1); !errors.Is(err, ErrNegativeShots) {
		t.Fatalf("Sample(-1): %v does not wrap ErrNegativeShots", err)
	}

	bound := quantum.GHZ(2)
	if err := RunBatch(nil, nil, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("empty batch: %v does not wrap ErrBatchMismatch", err)
	}
	if err := RunBatch([]*Simulator{s}, []*quantum.Circuit{bound, bound}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("ragged batch: %v does not wrap ErrBatchMismatch", err)
	}
	if err := RunBatch([]*Simulator{s, nil}, []*quantum.Circuit{bound, bound}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("nil variant: %v does not wrap ErrBatchMismatch", err)
	}
	wide := quantum.GHZ(3)
	if err := RunBatch([]*Simulator{s}, []*quantum.Circuit{wide}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("width mismatch: %v does not wrap ErrBatchMismatch", err)
	}
	mismatched := newSim(t, 2, 2, 4, nil)
	if err := RunBatch([]*Simulator{s, mismatched}, []*quantum.Circuit{bound, bound}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("geometry mismatch: %v does not wrap ErrBatchMismatch", err)
	}
}

// TestMalformedGatesRejected: a circuit assembled by hand rather than
// through the checked builders is refused before any of its gates runs —
// by Run and RunBatch, at one and two ranks — leaving the state and the
// gate count as they were. Unchecked, target -1 ran as a counted no-op,
// target 6 panicked every rank, and a control equal to its target or an
// unknown kind executed silently.
func TestMalformedGatesRejected(t *testing.T) {
	h := func(target int, controls ...int) quantum.Gate {
		return quantum.Gate{Name: "h", Target: target, Controls: controls, U: quantum.MatH}
	}
	cases := map[string]quantum.Gate{
		"target-negative":       h(-1),
		"target-past-register":  h(6),
		"control-past-register": h(0, 6),
		"control-negative":      h(0, -2),
		"control-is-target":     h(2, 2),
		"control-repeated":      h(0, 3, 3),
		"unknown-kind":          {Kind: 7, Name: "h", Target: 1, U: quantum.MatH},
	}
	for _, ranks := range []int{1, 2} {
		for name, g := range cases {
			t.Run(fmt.Sprintf("%s/r%d", name, ranks), func(t *testing.T) {
				s := newSim(t, 6, ranks, 8, nil)
				if err := s.Run(quantum.NewCircuit(6).H(0).CNOT(0, 5)); err != nil {
					t.Fatal(err)
				}
				want, err := s.FullState()
				if err != nil {
					t.Fatal(err)
				}
				// The well-formed gate ahead of the bad one must not run
				// either: the whole circuit is refused up front.
				bad := &quantum.Circuit{N: 6, Gates: []quantum.Gate{h(1), g}}
				for entry, run := range map[string]func() error{
					"Run":      func() error { return s.Run(bad) },
					"RunBatch": func() error { return RunBatch([]*Simulator{s}, []*quantum.Circuit{bad}, RunControl{}) },
				} {
					if err := run(); !errors.Is(err, ErrInvalidGate) {
						t.Fatalf("%s: %v does not wrap ErrInvalidGate", entry, err)
					}
				}
				if n := s.GatesRun(); n != 2 {
					t.Fatalf("GatesRun = %d after the refused runs, want 2", n)
				}
				got, err := s.FullState()
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("amplitude %d moved from %v to %v", i, want[i], got[i])
					}
				}
			})
		}
	}
}
