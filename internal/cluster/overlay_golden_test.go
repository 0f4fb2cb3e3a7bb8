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
)

// overlayDigest hashes what a cluster build leaves behind in the overlay:
// every node's leaf halves and routing-table entries (row, col, id, addr),
// the simulated cost of each join and of one more Stabilize, and the
// simnet message, byte and failure counts of every service after it.
func overlayDigest(t testing.TB, nodes int, seed uint64) string {
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
	for _, svc := range []string{pastry.Service, core.KoshaService, nfs.Service, core.CtlService} {
		fmt.Fprintf(h, "%s %+v\n", svc, c.Net.ServiceStats(svc))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The overlay a cluster build settles into is pinned, per (N, seed), by
// the digest recorded before the overlay's state was made to cost what it
// holds (rows allocated on first entry, word-wise ring arithmetic, node
// lists reusing known addresses): a change in how the state is stored or
// encoded must reproduce every leaf half, table entry, message count and
// cost exactly.
func TestOverlayGolden(t *testing.T) {
	for _, c := range []struct {
		nodes int
		seed  uint64
		want  string
	}{
		{8, 1, "84a279cc3ad87c078395a3737d31aebfb8705a31c6d4ea4d2e031d3344da9144"},
		{32, 7, "0c947222eeaec172a9e86ea72e48eaf1dbedf1ce6962b4011bfe1e4feaddd292"},
		{100, 3, "56ebf4c2c6da7792fcb3e2b99ab6ea68624cdd8c08bdf33019caacc261bf77d8"},
	} {
		if got := overlayDigest(t, c.nodes, c.seed); got != c.want {
			t.Errorf("%d nodes, seed %d: overlay digest %s, want %s", c.nodes, c.seed, got, c.want)
		}
	}
}
