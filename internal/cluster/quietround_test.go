package cluster

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestBuildStopsAtItsFirstQuietRound: New stops its overlay rounds at the
// first one that changes no node's overlay state, where the three-round
// build (the joins, then Stabilize) runs all three. On New's private,
// fault-free network a quiet round is a fixpoint, so both builds must leave
// every node with the same leaf halves, routing table and peer loads, and
// New must send fewer messages whenever there is a peer to send them to.
func TestBuildStopsAtItsFirstQuietRound(t *testing.T) {
	type build struct {
		nodes int
		seeds []uint64
		caps  []int64
	}
	builds := []build{
		{nodes: 1, seeds: []uint64{1, 2}},
		{nodes: 2, seeds: []uint64{1, 2, 3}},
		{nodes: 6, seeds: []uint64{1, 5, 198, 271}},
		{nodes: 8, seeds: []uint64{1, 5, 64}},
		{nodes: 32, seeds: []uint64{7, 130}},
		{nodes: 100, seeds: []uint64{3}},
		// Figure 6's heterogeneous capacities: the gossiped Loads differ by node.
		{nodes: 16, seeds: []uint64{2}, caps: []int64{3 << 30, 3 << 30, 3 << 30, 3 << 30, 3 << 30, 3 << 30, 3 << 30, 3 << 30,
			4 << 30, 4 << 30, 4 << 30, 4 << 30, 5 << 30, 5 << 30, 5 << 30, 5 << 30}},
	}
	for _, b := range builds {
		for _, seed := range b.seeds {
			t.Run(fmt.Sprintf("n%d/seed%d/caps%d", b.nodes, seed, len(b.caps)), func(t *testing.T) {
				opts := Options{Nodes: b.nodes, Seed: seed, Config: core.Config{Capacity: 1 << 30}, Capacities: b.caps}
				got, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := join(opts)
				if err != nil {
					t.Fatal(err)
				}
				ref.Stabilize()
				for i, nd := range got.Nodes {
					o, r := nd.Overlay(), ref.Nodes[i].Overlay()
					gs, gp := o.LeafHalves()
					rs, rp := r.LeafHalves()
					if !slices.Equal(gs, rs) || !slices.Equal(gp, rp) {
						t.Errorf("%s: leaf halves %v / %v, three rounds give %v / %v", nd.Addr(), gs, gp, rs, rp)
					}
					if g, r := o.TableEntries(), r.TableEntries(); !slices.Equal(g, r) {
						t.Errorf("%s: table %v, three rounds give %v", nd.Addr(), g, r)
					}
					if g, r := o.PeerLoads(), r.PeerLoads(); !maps.Equal(g, r) {
						t.Errorf("%s: peer loads %v, three rounds give %v", nd.Addr(), g, r)
					}
				}
				gm, rm := got.Net.Stats().Messages, ref.Net.Stats().Messages
				if b.nodes >= 2 && gm >= rm || gm > rm {
					t.Errorf("New sent %d messages, the three-round build %d", gm, rm)
				}
			})
		}
	}
}
