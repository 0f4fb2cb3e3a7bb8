package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
)

// TestNoopSyncRoundMessages pins the traffic of a replica-synchronization
// round that has nothing to ship: 8 nodes, L = 1, twelve hierarchies plus the
// "/" index = 13 owned roots, converged, then one SyncReplicas on every node.
// Per owned root the owner asks each of its K candidates once, and each of
// the K holders asks the owner once: 2K TREE_DIGEST exchanges, 4K messages
// counting request and reply. An owner that asks a candidate twice shows up
// here as 6K. The redirected case adds a level-1 directory whose hash target
// is full, so its special link sits in that node's export root: the link is
// one more owned root at the same 4K, and nothing is mirrored or promoted.
func TestNoopSyncRoundMessages(t *testing.T) {
	for _, redirect := range []bool{false, true} {
		for k := 1; k <= 3; k++ {
			c, want := noopSyncCluster(t, k, redirect)
			owned := 0
			for _, nd := range c.Nodes {
				for _, tr := range nd.Repl().Tracks() {
					if owns, _ := nd.Overlay().EnsureRootFor(core.Key(tr.PN)); owns {
						owned++
					}
				}
			}
			if owned != want {
				t.Fatalf("K=%d redirect=%v: %d owned roots, want %d", k, redirect, owned, want)
			}
			c.Net.ResetStats()
			for _, nd := range c.Nodes {
				nd.SyncReplicas()
			}
			kosha := c.Net.ServiceStats(core.KoshaService)
			if got, want := 2*kosha.Messages, uint64(4*k*owned); got != want {
				t.Errorf("K=%d redirect=%v: %d kosha messages in a round that ships nothing, want 4K per owned root = %d", k, redirect, got, want)
			}
			if nfsCalls := c.Net.ServiceStats(nfs.Service).Messages; kosha.Failures != 0 || nfsCalls != 0 {
				t.Errorf("K=%d redirect=%v: %d failed exchanges, %d NFS calls in a converged round", k, redirect, kosha.Failures, nfsCalls)
			}
			if procs := syncProcs(c); len(procs) != 1 || procs["kosha.tree-digest"] != 2*k*owned {
				t.Errorf("K=%d redirect=%v: the round served %v, want only %d kosha.tree-digest", k, redirect, procs, 2*k*owned)
			}
		}
	}
}

// noopSyncCluster builds the converged cluster TestNoopSyncRoundMessages
// syncs, and the number of roots it owns. With redirect, the node owning
// Key("big") has a 64 KiB partition, filled past the utilization limit by a
// home of its own before /big is made: /big is redirected to a salted
// placement, and its link is the full node's.
func noopSyncCluster(t *testing.T, k int, redirect bool) (*Cluster, int) {
	t.Helper()
	opts := Options{Nodes: 8, Seed: 1, Config: core.Config{Replicas: k}}
	full, filler := -1, ""
	if redirect {
		probe, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		owner := func(name string) int {
			for i, nd := range probe.Nodes {
				if owns, _ := nd.Overlay().EnsureRootFor(core.Key(name)); owns {
					return i
				}
			}
			return -1
		}
		full = owner("big")
		for i := 0; filler == ""; i++ {
			if name := fmt.Sprintf("fill%d", i); owner(name) == full {
				filler = name
			}
		}
		opts.Capacities = make([]int64, len(probe.Nodes))
		opts.Capacities[full] = 64 << 10
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	write := func(p string, data []byte) {
		t.Helper()
		if _, err := m.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		write(fmt.Sprintf("/u%02d/f", i), []byte("v"))
	}
	if !redirect {
		c.Stabilize()
		return c, 13
	}
	write("/"+filler+"/f", make([]byte, 60<<10))
	write("/big/f", []byte("v"))
	if a, err := c.Nodes[full].Store().LookupPath("/big"); err != nil || a.Type != localfs.TypeSymlink {
		t.Fatalf("K=%d: /big on its full hash target is %v (%v), want the redirect's link", k, a.Type, err)
	}
	c.Stabilize()
	// The twelve homes, the filler home, the "/" index, /big's salted
	// hierarchy and its link.
	return c, 16
}

// syncProcs counts the kosha procedures served under the nodes' latest Sync
// traces, by server span name.
func syncProcs(c *Cluster) map[string]int {
	out := map[string]int{}
	for _, nd := range c.Nodes {
		trs := nd.Tracer().Recent(1)
		if len(trs) == 0 || trs[0].Op != obs.OpResync {
			continue
		}
		for _, peer := range c.Nodes {
			for _, sp := range peer.Tracer().SpansFor(trs[0].Hi, trs[0].Lo) {
				out[sp.Name]++
			}
		}
	}
	return out
}
