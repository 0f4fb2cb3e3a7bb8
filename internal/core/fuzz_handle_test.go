package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// recordingNet is a simnet that keeps every kosha and koshactl request it
// carries, joined, so the fuzz corpus is seeded with frames the real clients
// built.
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
	r.reqs[service] = append(r.reqs[service], wire.FrameOf(req).AppendTo(nil))
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
	// A pull sends the listing and block procedures back to the node asking
	// for it, which must hold the copy, so the primary asks another node: the
	// explicit calls after it are the last frames recorded for those
	// procedures.
	owner := nodes[slices.IndexFunc(nodes, func(nd *Node) bool { return nd.Addr() == pl.Node })]
	puller := nodes[0]
	if owner == puller {
		puller = nodes[1]
	}
	if _, err := (enginePeer{owner}).Pull(tc, puller.Addr(), track, track.Root, false); err != nil {
		f.Fatal(err)
	}
	n.remoteDigestTree(tc, peer, track.Root, true)
	enginePeer{n}.DirDigests(tc, peer, track.Root)
	enginePeer{n}.ChunkManifest(tc, peer, file)
	enginePeer{n}.ChunkFetch(tc, peer, file, []cas.Hash{{1}})
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
	enginePeer{n}.Mirror(tc, peer, track, FSOp{Kind: FSUnlink, Path: file}, false)
	enginePeer{n}.Mirror(tc, peer, track, FSOp{Kind: FSWrite, Path: file, Spans: []nfs.WriteSpan{{Offset: 0, Data: []byte("ab")}, {Offset: 5, Data: []byte("cde")}}}, false)

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
	// two-span write above, the op with the most structure to mutate. Beside
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
		kind := decodeApplyReq(d, n.rep, proc == kMirror, new(applyRoom)).Op.Kind
		if key := [2]uint32{proc, uint32(kind)}; (kind == FSWriteFile || kind == FSUnlink) && !compounds[key] {
			compounds[key] = true
			seeds = append(seeds, koshaSeed{req: req})
		}
	}
	if len(compounds) != 4 {
		f.Fatalf("recorded %d of the 4 apply/mirror frames of FSWriteFile and FSUnlink", len(compounds))
	}
	// A write as the client sends it, its data lent to the frame, far past
	// the end of the file: such a write once allocated 7.5 GB. The corpus
	// keeps that frame (apply-write-far-past-the-end) as a stale peer would
	// send it, its Track in the old layout with a fifth field, the level-1
	// link name; it decodes as malformed and is refused.
	w := applyReq{Key: Key(track.PN), Track: track, Op: FSOp{Kind: FSWrite, Path: file, Offset: 0xe0000003, Data: []byte("lent data")}}
	lent := w.request(kApply).E.Frame()
	seeds = append(seeds, koshaSeed{req: lent.AppendTo(nil), lend: uint32(lent.Lent[0].At)<<16 | uint32(len(lent.Lent[0].Body))})
	// Flush mirrors around the room a handler decodes spans into (applyRoom):
	// none, a full room, one past it, and a frame whose span count, the
	// word before Primary, claims MaxItems.
	for _, count := range []int{0, wbMaxSpans + 1, wbMaxSpans + 2, -1} {
		var spans []nfs.WriteSpan
		for i := 0; i < count; i++ {
			spans = append(spans, nfs.WriteSpan{Offset: int64(4 * i), Data: []byte("ab")})
		}
		mr := applyReq{Track: track, Op: FSOp{Kind: FSWrite, Path: file, Spans: spans}}
		req := mr.request(kMirror).E.Frame().AppendTo(nil)
		if count < 0 { // no spans: the count and Primary are the last two words
			binary.BigEndian.PutUint32(req[len(req)-8:], wire.MaxItems)
		}
		seeds = append(seeds, koshaSeed{req: req})
	}
	// Mirrors of a rename pair whose two replica-area paths fill the
	// handler's room (applyRoom) to the byte, spill one byte past it and far
	// past it, a create of each pair's long path, and a rename pair the frame
	// sends to the primary area.
	room := len(applyRoom{}.paths)
	for _, size := range []int{room/2 - len(RepArea), room/2 - len(RepArea) + 1, 4 * room} {
		long := file + "/" + strings.Repeat("n", size-len(file)-1)
		for _, op := range []FSOp{{Kind: FSCreate, Path: long, Mode: 0o644}, {Kind: FSRename, Path: long, Path2: long[:len(long)-1] + "m"}} {
			mr := applyReq{Track: track, Op: op}
			seeds = append(seeds, koshaSeed{req: mr.request(kMirror).E.Frame().AppendTo(nil)})
		}
	}
	primary := applyReq{Track: track, Op: FSOp{Kind: FSRename, Path: file, Path2: file + "-renamed"}, Primary: true}
	seeds = append(seeds, koshaSeed{req: primary.request(kMirror).E.Frame().AppendTo(nil)})
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
			// The retired STAT_TREE and UNTRACK frames (procs 3 and 4: one
			// path each) keep their places in the corpus: a retired number is
			// refused like any unknown one.
			for _, proc := range []uint32{3, 4} {
				e := wire.NewEncoder(64)
				e.PutUint32(proc)
				e.PutString(track.Root)
				if _, _, err := n.serve(KoshaService, koshaProcs)(tc, "cli", e.Bytes()); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown proc %d", proc)) {
					f.Fatalf("retired kosha proc %d answered %v, want the unknown-procedure error", proc, err)
				}
				last[proc] = e.Bytes()
			}
		}
		for proc := uint32(0); len(last) > 0; proc++ { // in procedure order
			if req, ok := last[proc]; ok {
				seeds = append(seeds, koshaSeed{ctl: svc.name == CtlService, req: req})
				delete(last, proc)
			}
		}
	}
	return seeds
}

type koshaSeed struct {
	ctl  bool
	req  []byte
	lend uint32 // lendSplit's argument: 0 sends req flat
}

// lendSplit returns req as a frame that lends req[at:at+n] as a body, at and
// n the high and low halves of lend clamped to req, so a fuzz input can name
// any split of its bytes into a head and a lent body; n = 0 is req flat. As
// in any frame an encoder lends from, the head keeps at least one byte.
func lendSplit(req []byte, lend uint32) wire.Frame {
	at := min(max(int(lend>>16), 1), len(req))
	n := min(int(lend&0xffff), len(req)-at)
	if n == 0 {
		return wire.Frame{Head: req}
	}
	head := append(append([]byte(nil), req[:at]...), req[at+n:]...)
	return wire.Frame{Head: head, Lent: []wire.Lent{{At: at, Body: req[at : at+n : at+n]}}}
}

// FuzzKoshaHandleNoPanic drives arbitrary bytes through the two dispatch
// tables a koshad exposes to the network beside NFS: the kosha service
// (apply, mirror and the replica-maintenance procedures, whose FSOp decoder
// every root-index update rides) and the koshactl service. lend splits the
// bytes into a head and a lent body (lendSplit), as an in-process sender
// lends a write's data. Whatever the mutator makes of a valid frame, the
// handler answers or refuses: it never panics, and what it allocates is
// bounded by the frame, not by a count the frame merely claims. Run longer
// with
//
//	go test ./internal/core -run '^$' -fuzz FuzzKoshaHandleNoPanic -fuzztime 30s
func FuzzKoshaHandleNoPanic(f *testing.F) {
	for _, s := range koshaSeeds(f) {
		f.Add(s.ctl, s.req, s.lend)
	}
	f.Fuzz(func(t *testing.T, ctl bool, req []byte, lend uint32) {
		n := fuzzCluster(t, simnet.New(simnet.LAN100))[1]
		handle := n.serve(KoshaService, koshaProcs)
		if ctl {
			handle = n.serve(CtlService, ctlProcs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame := lendSplit(req, lend)
		handle(obs.TraceContext{}, "fuzz", wire.Lend(frame))
		wire.EndLend(frame)
		runtime.ReadMemStats(&after)
		// Decoded structures cost a few times their wire form (a 12-byte
		// item can stand for a 32-byte WriteSpan); the fixed part covers a
		// whole replica sync or a JSON stats snapshot.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(req)); got > limit {
			t.Fatalf("handling %d bytes allocated %d (limit %d): %x", len(req), got, limit, req)
		}
	})
}
