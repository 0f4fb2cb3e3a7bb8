package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/wire"
)

// A membership change only drops a node's location caches; replica sync runs
// from the drivers that charge it. So a build's Syncs are its closing
// Stabilize's two rounds, one Sync per node each, however many leaf-set
// changes the joins report. When each report re-synced the node's replicas
// from the overlay's callback, a build ran 51 Syncs at 8 nodes and 485 at
// 32 (and 72 and 901 when the overlay reported once per peer).
func TestBuildResyncsOncePerChange(t *testing.T) {
	for _, nodes := range []int{8, 32} {
		cl, err := New(Options{Nodes: nodes, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var syncs uint64
		for _, nd := range cl.Nodes {
			syncs += nd.Events().Count(obs.EvResync)
		}
		if want := uint64(2 * nodes); syncs != want {
			t.Errorf("%d nodes: a build ran %d Syncs, want %d (two Stabilize rounds)", nodes, syncs, want)
		}
	}
}

// TestMembershipHandlersSendNothing: an inbound REMOVE_NODE that takes a peer
// out of a node's leaf set, and the NOTIFY from that peer that puts it back,
// each change the leaf set, and the handling node sends no kosha or NFS
// message while it handles them: a membership change only drops the node's
// location caches. When the leaf-set callback ran a Sync, each sent a round
// of replica digests before the handler replied.
func TestMembershipHandlersSendNothing(t *testing.T) {
	c, err := New(Options{Nodes: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	for i := range 8 {
		if _, _, err := m.MkdirAll(fmt.Sprintf("/home%d/src", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Stabilize()
	target := c.Nodes[0]
	succs, _ := target.Overlay().LeafHalves()
	peer := succs[0]
	inLeafSet := func() bool {
		succs, preds := target.Overlay().LeafHalves()
		return slices.Contains(succs, peer) || slices.Contains(preds, peer)
	}

	// The overlay's frames, by its wire numbers: REMOVE_NODE (5) names the
	// dead id; NOTIFY (4) carries the sender's id, address and load.
	e := wire.NewEncoder(64)
	e.PutUint32(5)
	e.PutFixedOpaque(peer.ID[:])
	removeNode := e.Bytes()
	e = wire.NewEncoder(64)
	e.PutUint32(4)
	e.PutFixedOpaque(peer.ID[:])
	e.PutString(string(peer.Addr))
	e.PutInt64(0)
	e.PutInt64(0)
	notify := e.Bytes()

	for _, step := range []struct {
		name  string
		frame []byte
		in    bool // the peer is in the leaf set afterwards
	}{{"REMOVE_NODE", removeNode, false}, {"NOTIFY", notify, true}} {
		kosha, nfsMsgs := c.Net.ServiceStats(core.KoshaService).Messages, c.Net.ServiceStats(nfs.Service).Messages
		if _, _, err := c.Net.Call(peer.Addr, target.Addr(), pastry.Service, step.frame); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if inLeafSet() != step.in {
			t.Fatalf("%s: peer in the leaf set = %v, want %v", step.name, !step.in, step.in)
		}
		kosha = c.Net.ServiceStats(core.KoshaService).Messages - kosha
		nfsMsgs = c.Net.ServiceStats(nfs.Service).Messages - nfsMsgs
		if kosha != 0 || nfsMsgs != 0 {
			t.Errorf("%s: the handler sent %d kosha and %d NFS messages, want none", step.name, kosha, nfsMsgs)
		}
	}
}
