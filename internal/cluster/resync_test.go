package cluster

import (
	"testing"

	"repro/internal/obs"
)

// The overlay reports a membership change to Kosha once, not once for each
// peer it names, and each report re-syncs the node's replicas. So the
// resync events a build logs are bounded by the overlay messages that
// change a leaf set, not by the peers those messages carry. One report per
// peer cost 72 Syncs at 8 nodes and 901 at 32.
func TestBuildResyncsOncePerChange(t *testing.T) {
	for _, c := range []struct {
		nodes int
		max   uint64
	}{{8, 51}, {32, 485}} {
		cl, err := New(Options{Nodes: c.nodes, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var syncs uint64
		for _, nd := range cl.Nodes {
			syncs += nd.Events().Count(obs.EvResync)
		}
		t.Logf("%d nodes: %d resyncs", c.nodes, syncs)
		if syncs > c.max {
			t.Errorf("%d nodes: a build ran %d Syncs, want at most %d", c.nodes, syncs, c.max)
		}
	}
}
