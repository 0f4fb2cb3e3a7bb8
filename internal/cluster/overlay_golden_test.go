package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// goldenServices are the services whose traffic a build is pinned by, in
// the order overlayDigest reports them.
var goldenServices = [...]string{pastry.Service, core.KoshaService, nfs.Service, core.CtlService}

// overlayDigest builds a cluster and runs one more Stabilize. It hashes
// what the build leaves behind in the overlay: every node's leaf halves and
// routing-table entries (row, col, id, addr) and the simulated cost of each
// join and of that Stabilize. Beside the hash it returns the simnet
// message, byte and failure counts of every goldenServices entry after it.
func overlayDigest(t testing.TB, nodes int, seed uint64) (string, [len(goldenServices)]simnet.Stats) {
	t.Helper()
	c, err := New(Options{Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	stab := c.Stabilize()
	h := sha256.New()
	put := func(h hash.Hash, n pastry.NodeInfo) { fmt.Fprintf(h, " %s@%s", n.ID, n.Addr) }
	for _, nd := range c.Nodes {
		o := nd.Overlay()
		fmt.Fprintf(h, "node %s@%s\nsuccs", o.Info().ID, o.Info().Addr)
		succs, preds := o.LeafHalves()
		for _, p := range succs {
			put(h, p)
		}
		fmt.Fprint(h, "\npreds")
		for _, p := range preds {
			put(h, p)
		}
		fmt.Fprint(h, "\ntable")
		for _, te := range o.TableEntries() {
			fmt.Fprintf(h, " %d/%d", te.Row, te.Col)
			put(h, te.Node)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "joins %v\nstabilize %d\n", c.JoinCosts, stab)
	var traffic [len(goldenServices)]simnet.Stats
	for i, svc := range goldenServices {
		traffic[i] = c.Net.ServiceStats(svc)
	}
	return hex.EncodeToString(h.Sum(nil)), traffic
}

// The overlay a cluster build settles into is pinned, per (N, seed), by two
// records. The state digest was recorded before the overlay's state was
// made to cost what it holds (rows allocated on first entry, word-wise ring
// arithmetic, node lists reusing known addresses) and before a build
// stopped at its first quiet round: a change in how the overlay is built,
// stored or encoded must reproduce every leaf half, table entry and cost
// exactly. The traffic of the build and the extra Stabilize is pinned
// apart, at its value since the build stops at its first quiet round, so a
// change that moves a message must say so here.
func TestOverlayGolden(t *testing.T) {
	for _, c := range []struct {
		nodes   int
		seed    uint64
		state   string
		traffic [len(goldenServices)]simnet.Stats // pastry, kosha, nfs, ctl
	}{
		{8, 1, "2bd993d33c3349afd3c8ebab92910f0651a6d19257282e40cff38d83d6a00a9b", [4]simnet.Stats{{Messages: 707, Bytes: 78200}}},
		{32, 7, "486418f09e5d99ac86a9751b9b3ba7e02041b1b35f7fa38e9c46a1c7229389c3", [4]simnet.Stats{{Messages: 8570, Bytes: 1626800}}},
		{100, 3, "1dc577904a2c41a0875ef1aeb6e57b6c440ee1fec5578cf22f44c46bb17ba79a", [4]simnet.Stats{{Messages: 32083, Bytes: 5560632}}},
	} {
		state, traffic := overlayDigest(t, c.nodes, c.seed)
		if state != c.state {
			t.Errorf("%d nodes, seed %d: overlay state digest %s, want %s", c.nodes, c.seed, state, c.state)
		}
		for i, svc := range goldenServices {
			if traffic[i] != c.traffic[i] {
				t.Errorf("%d nodes, seed %d: %s traffic %+v, want %+v", c.nodes, c.seed, svc, traffic[i], c.traffic[i])
			}
		}
	}
}
