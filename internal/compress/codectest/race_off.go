//go:build !race

package codectest

const RaceEnabled = false
