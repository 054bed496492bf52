package mps

import (
	"errors"
	"fmt"
)

// ErrUnsupportedOp is the sentinel for operations an MPS genuinely
// cannot perform efficiently — measurement collapse, multi-controlled
// gates, full-state assertions, checkpointing. Every rejection wraps
// it (through UnsupportedOpError), so callers branch with errors.Is;
// the public qcsim facade re-exports it as qcsim.ErrUnsupportedOp.
//
// The set of rejected operations is the paper's §1 argument for
// full-state simulation made executable: the compressed engine supports
// all of them, the tensor-network comparator does not.
var ErrUnsupportedOp = errors.New("mps: operation unsupported by the MPS backend")

// UnsupportedOpError identifies which operation an MPS rejected and
// why. It wraps ErrUnsupportedOp, so both errors.Is(err,
// ErrUnsupportedOp) and errors.As(err, *UnsupportedOpError) work.
type UnsupportedOpError struct {
	// Op names the rejected operation ("measure", "multi-control",
	// "assert", "checkpoint", "batch", "noise").
	Op string
	// Reason explains the structural limitation.
	Reason string
}

// Error implements the error interface.
func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("mps: %s unsupported: %s", e.Op, e.Reason)
}

// Unwrap ties the typed error to the sentinel.
func (e *UnsupportedOpError) Unwrap() error { return ErrUnsupportedOp }

// unsupported builds the standard rejection for op.
func unsupported(op, reason string) error {
	return &UnsupportedOpError{Op: op, Reason: reason}
}
