package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// recordingNet is a simnet that keeps every kosha and koshactl request it
// carries, so the fuzz corpus is seeded with frames the real clients built.
type recordingNet struct {
	*simnet.Network
	mu   sync.Mutex
	reqs map[string][][]byte // service -> requests
}

func (r *recordingNet) note(service string, req []byte) {
	if service != KoshaService && service != CtlService {
		return
	}
	r.mu.Lock()
	r.reqs[service] = append(r.reqs[service], append([]byte(nil), req...))
	r.mu.Unlock()
}

func (r *recordingNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	r.note(service, req)
	return r.Network.CallCtx(ctx, from, to, service, req)
}

// fuzzCluster is three joined nodes with the ctl service attached and a
// little data in place: a level-1 home with one file, replicated once.
func fuzzCluster(t testing.TB, net simnet.Transport) []*Node {
	t.Helper()
	state := uint64(31)
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, Config{TraceBufSize: 8})
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nodes[i].Join(boot); err != nil {
			t.Fatal(err)
		}
		nodes[i].AttachCtl()
	}
	stabilizeAll(nodes)
	if _, err := nodes[0].NewMount().WriteFile("/d/f", []byte("seed data")); err != nil {
		t.Fatal(err)
	}
	return nodes
}

// koshaSeeds drives every kosha and koshactl procedure once through its real
// client and returns the recorded frames, failing if a table entry went
// unvisited: a new procedure must come with a seed.
func koshaSeeds(f *testing.F) []koshaSeed {
	rec := &recordingNet{Network: simnet.New(simnet.LAN100), reqs: map[string][][]byte{}}
	nodes := fuzzCluster(f, rec)
	n, peer := nodes[0], nodes[1].Addr()
	pl, _, err := n.ResolvePath("/d")
	if err != nil {
		f.Fatal(err)
	}
	tc := obs.TraceContext{}
	track := Track{PN: pl.PN(), Root: pl.SubtreeRoot()}
	file := pl.SubtreeRoot() + "/f"
	// kApply and kMirror were recorded by the WriteFile above: one compound
	// frame each.
	n.promote(tc, peer, track)
	n.replicaSet(tc, peer, Key(track.PN), track.Root)
	n.remoteDigestTree(tc, peer, track.Root, true)
	n.remoteDirDigests(tc, peer, track.Root)
	n.remoteChunkManifest(tc, peer, file, []cas.Hash{{1}})
	n.remoteChunkFetch(tc, peer, file, []cas.Hash{{1}})
	maintHost{n}.UntrackAt(tc, peer, "/nothing")
	// Mount.Remove's apply; its fan-out is a plain FSRemove, so the mirror
	// frame of the new kind is sent by hand.
	m := n.NewMount()
	if _, err := m.WriteFile("/d/victim", []byte("x")); err != nil {
		f.Fatal(err)
	}
	if dir, _, _, err := m.LookupPath("/d"); err != nil {
		f.Fatal(err)
	} else if _, err := m.Remove(dir, "victim"); err != nil {
		f.Fatal(err)
	}
	n.mirrorArea(tc, peer, track, FSOp{Kind: FSUnlink, Path: file}, false)
	n.mirrorArea(tc, peer, track, FSOp{Kind: FSChunkWrite, Path: file, Chunks: []repl.ChunkRef{{Len: 2, Inline: true}}, Data: []byte("ab")}, false)

	ctl := &CtlClient{Net: rec, From: "cli", To: n.Addr()}
	ctl.WriteFile("/d/g", []byte("x"))
	ctl.ReadFile("/d/g")
	ctl.List("/")
	ctl.MkdirAll("/e/sub")
	ctl.RemoveAll("/e")
	ctl.Stat("/d/f")
	ctl.Status()
	ctl.Peers()
	ctl.Stats()
	ctl.TraceDump(2)
	ctl.TraceFrag(1, 2)
	ctl.Samples(2)
	ctl.SlowDump(2)

	// One frame per procedure, the last recorded: for kMirror that is the
	// chunk-write above, the op with the most structure to mutate. Beside
	// them, the apply and the mirror of WriteFile's compound and of the
	// unlink, the two ops whose primary arm walks the store itself.
	var seeds []koshaSeed
	compounds := map[[2]uint32]bool{}
	for _, req := range rec.reqs[KoshaService] {
		d := wire.NewDecoder(req)
		proc := d.Uint32()
		if proc != kApply && proc != kMirror {
			continue
		}
		kind := decodeApplyReq(d).Op.Kind
		if key := [2]uint32{proc, uint32(kind)}; (kind == FSWriteFile || kind == FSUnlink) && !compounds[key] {
			compounds[key] = true
			seeds = append(seeds, koshaSeed{false, req})
		}
	}
	if len(compounds) != 4 {
		f.Fatalf("recorded %d of the 4 apply/mirror frames of FSWriteFile and FSUnlink", len(compounds))
	}
	for _, svc := range []struct {
		name  string
		table serviceTable
	}{{KoshaService, koshaProcs}, {CtlService, ctlProcs}} {
		last := map[uint32][]byte{}
		for _, req := range rec.reqs[svc.name] {
			last[wire.NewDecoder(req).Uint32()] = req
		}
		for proc := range svc.table {
			if last[proc] == nil {
				f.Fatalf("%s: no seed request for proc %d", svc.name, proc)
			}
		}
		if svc.name == KoshaService {
			// The retired STAT_TREE frame (proc 3: one path) keeps its place
			// in the corpus: a retired number is refused like any unknown one.
			e := wire.NewEncoder(64)
			e.PutUint32(3)
			e.PutString(track.Root)
			if _, _, err := n.serve(KoshaService, koshaProcs)(tc, "cli", e.Bytes()); err == nil || !strings.Contains(err.Error(), "unknown proc 3") {
				f.Fatalf("retired kosha proc 3 answered %v, want the unknown-procedure error", err)
			}
			last[3] = e.Bytes()
		}
		for proc := uint32(0); len(last) > 0; proc++ { // in procedure order
			if req, ok := last[proc]; ok {
				seeds = append(seeds, koshaSeed{svc.name == CtlService, req})
				delete(last, proc)
			}
		}
	}
	return seeds
}

type koshaSeed struct {
	ctl bool
	req []byte
}

// FuzzKoshaHandleNoPanic drives arbitrary bytes through the two dispatch
// tables a koshad exposes to the network beside NFS: the kosha service
// (apply, mirror and the replica-maintenance procedures, whose FSOp decoder
// every root-index update rides) and the koshactl service. Whatever the
// mutator makes of a valid frame, the handler answers or refuses: it never
// panics, and what it allocates is bounded by the frame, not by a count the
// frame merely claims. Run longer with
//
//	go test ./internal/core -run '^$' -fuzz FuzzKoshaHandleNoPanic -fuzztime 30s
func FuzzKoshaHandleNoPanic(f *testing.F) {
	for _, s := range koshaSeeds(f) {
		f.Add(s.ctl, s.req)
	}
	f.Fuzz(func(t *testing.T, ctl bool, req []byte) {
		n := fuzzCluster(t, simnet.New(simnet.LAN100))[1]
		handle := n.serve(KoshaService, koshaProcs)
		if ctl {
			handle = n.serve(CtlService, ctlProcs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handle(obs.TraceContext{}, "fuzz", req)
		runtime.ReadMemStats(&after)
		// Decoded structures cost up to ten times their wire form (a 4-byte
		// item can stand for a 40-byte ChunkRef); the fixed part covers a
		// whole replica sync or a JSON stats snapshot.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(req)); got > limit {
			t.Fatalf("handling %d bytes allocated %d (limit %d): %x", len(req), got, limit, req)
		}
	})
}
