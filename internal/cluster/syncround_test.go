package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/nfs"
)

// TestNoopSyncRoundMessages pins the traffic of a replica-synchronization
// round that has nothing to ship: 8 nodes, L = 1, twelve hierarchies plus the
// "/" index = 13 owned roots, converged, then one SyncReplicas on every node.
// Per owned root the owner asks each of its K candidates once, and each of
// the K holders asks the owner once: 2K TREE_DIGEST exchanges, 4K messages
// counting request and reply. An owner that asks a candidate twice shows up
// here as 6K.
func TestNoopSyncRoundMessages(t *testing.T) {
	for k := 1; k <= 3; k++ {
		c, err := New(Options{Nodes: 8, Seed: 1, Config: core.Config{Replicas: k, NoAutoSync: true}})
		if err != nil {
			t.Fatal(err)
		}
		m := c.Mount(0)
		for i := 0; i < 12; i++ {
			if _, err := m.WriteFile(fmt.Sprintf("/u%02d/f", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		c.Stabilize()
		owned := 0
		for _, nd := range c.Nodes {
			for _, pn := range nd.TrackedRoots() {
				if owns, _ := nd.Overlay().EnsureRootFor(core.Key(pn)); owns {
					owned++
				}
			}
		}
		if owned != 13 {
			t.Fatalf("K=%d: %d owned roots, want 13", k, owned)
		}
		c.Net.ResetStats()
		for _, nd := range c.Nodes {
			nd.SyncReplicas()
		}
		kosha := c.Net.ServiceStats(core.KoshaService)
		if got, want := 2*kosha.Messages, uint64(4*k*owned); got != want {
			t.Errorf("K=%d: %d kosha messages in a round that ships nothing, want 4K per owned root = %d", k, got, want)
		}
		if nfsCalls := c.Net.ServiceStats(nfs.Service).Messages; kosha.Failures != 0 || nfsCalls != 0 {
			t.Errorf("K=%d: %d failed exchanges, %d NFS calls in a converged round", k, kosha.Failures, nfsCalls)
		}
	}
}
