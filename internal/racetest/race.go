//go:build race

package racetest

// Enabled reports whether the race detector is on.
const Enabled = true
