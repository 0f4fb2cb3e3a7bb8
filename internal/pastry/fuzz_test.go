package pastry

import (
	"runtime"
	"testing"

	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// recordingNet is a simnet that keeps every overlay request it carries, so
// the fuzz corpus is seeded with frames the real client stubs built.
type recordingNet struct {
	*simnet.Network
	reqs [][]byte
}

func (r *recordingNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	if service == Service {
		r.reqs = append(r.reqs, append([]byte(nil), req...))
	}
	return r.Network.CallCtx(ctx, from, to, service, req)
}

// fuzzOverlay is four joined, stabilized nodes on net.
func fuzzOverlay(t testing.TB, net simnet.Transport) []*Node {
	state := uint64(17)
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode(id.Rand128(&state), simnet.Addr("p"+string(rune('0'+i))), net, 0)
		nodes[i].Attach()
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Info().Addr
		}
		if _, err := nodes[i].Bootstrap(boot); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.Stabilize()
	}
	return nodes
}

// FuzzPastryHandleNoPanic drives arbitrary bytes through the overlay's
// service handler — the decoder every join, route hop, keep-alive and
// departure notice of every peer reaches. Whatever the mutator makes of a
// real frame, the handler answers or refuses: it never panics, and what it
// allocates is bounded by the frame, not by a count the frame merely claims.
// Run longer with
//
//	go test ./internal/pastry -run '^$' -fuzz FuzzPastryHandleNoPanic -fuzztime 30s
func FuzzPastryHandleNoPanic(f *testing.F) {
	rec := &recordingNet{Network: simnet.New(simnet.LAN100)}
	nodes := fuzzOverlay(f, rec) // bootstrap + stabilize: get-state, notify, get-leaf-set
	peer := nodes[0].Info().Addr
	nodes[1].Route(id.HashKey("some key"))
	nodes[1].rpcPing(peer)
	nodes[1].rpcGetRow(peer, 1)
	nodes[2].rpcRemoveNode(peer, nodes[3].Info().ID)
	last := map[uint32][]byte{} // one frame per procedure, the last recorded
	for _, req := range rec.reqs {
		last[wire.NewDecoder(req).Uint32()] = req
	}
	for _, p := range []uint32{pPing, pNextHop, pGetState, pGetLeafSet, pNotify, pRemoveNode, pGetRow} {
		if last[p] == nil {
			f.Fatalf("no seed request for %s", ProcName(p))
		}
		f.Add(last[p])
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		n := fuzzOverlay(t, simnet.New(simnet.LAN100))[1]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n.handle(obs.TraceContext{}, "fuzz", req)
		runtime.ReadMemStats(&after)
		// A decoded id list costs four times its wire form at most; the fixed
		// part covers a reply listing everything a four-node overlay knows
		// and a leaf-set change callback.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(req)); got > limit {
			t.Fatalf("handling %d bytes allocated %d (limit %d): %x", len(req), got, limit, req)
		}
	})
}
