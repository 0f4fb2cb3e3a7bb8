// Package racetest lets a test skip its allocation-count pins when the
// binary is built with the race detector. The detector's instrumentation
// changes what escapes and what allocates, so a pinned count measures the
// instrumentation, not the code; the Go standard library skips its own
// testing.AllocsPerRun checks under the race detector for the same reason.
package racetest

import "testing"

// SkipAllocs skips t under the race detector. Call it just before the
// test's first testing.AllocsPerRun: the checks before it still run.
func SkipAllocs(t testing.TB) {
	t.Helper()
	if Enabled {
		t.Skip("allocation counts are not pinned under the race detector: its instrumentation changes what allocates")
	}
}
