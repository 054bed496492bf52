//go:build race

package codectest

// RaceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a quarter of its Puts on purpose, so an allocation
// count that rests on a pooled scratch being there does not hold; the
// tests that count such allocations skip those cases.
const RaceEnabled = true
