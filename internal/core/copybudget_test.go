package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// size counts the rows of the virtual-handle table.
func (t *vtable) size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// TestWriteFileLeavesNoHandles: WriteFile used to keep the directory handle
// its MkdirAll returned, so a long-lived mount's handle table grew by one row
// per call.
func TestWriteFileLeavesNoHandles(t *testing.T) {
	_, nodes := testCluster(t, 4, 83, Config{Replicas: 1, WriteBackBytes: 64 << 10})
	m := nodes[0].NewMount()
	write := func(i int) {
		t.Helper()
		if _, err := m.WriteFile(fmt.Sprintf("/proj/src/f%d", i%7), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	rows, streams := m.vt.size(), len(m.streams)
	for i := 1; i <= 1000; i++ {
		write(i)
	}
	if got := m.vt.size(); got != rows {
		t.Errorf("handle table grew from %d to %d rows over 1000 WriteFile calls", rows, got)
	}
	if got := len(m.streams); got != streams || got != 0 {
		t.Errorf("stream table holds %d entries after 1000 WriteFile calls (was %d), want 0", got, streams)
	}
	// Files directly under the root directory's handle never forget RootVH.
	if _, err := m.WriteFile("/proj/top", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.entry(RootVH); err != nil {
		t.Fatalf("root handle forgotten: %v", err)
	}
}

// TestReadFilePresizesFromLookup: the size LookupPath returned sizes the
// result, so a whole-file read costs no regrowth and no extra RPC — and is
// still a read to EOF, not a read of that many bytes.
func TestReadFilePresizesFromLookup(t *testing.T) {
	_, nodes := testCluster(t, 3, 84, Config{Replicas: 1})
	m := nodes[0].NewMount()
	payload := bytes.Repeat([]byte("0123456789abcde"), 70_001) // 1 050 015 bytes: two READs, no size class
	if _, err := m.WriteFile("/d/f", payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.ReadFile("/d/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes err=%v", len(got), err)
	}
	if cap(got) != len(payload) {
		t.Errorf("result capacity %d for %d bytes: not presized from the looked-up size", cap(got), len(payload))
	}
}

// TestFlushCopyBudget pins the write-back data path end to end: one 1 MiB
// flush through a K=2 mount allocates one store extent on each of the three
// holders — 3x its payload — while the request frame and the shared mirror
// frame lend the span buffer's bytes (5x while each frame copied them; 17x
// before that: a regrown span buffer, per-replica frames, decode copies and
// whole-file regrowth in every store).
//
// It allocates 7 objects: each store's new piece and the piece list it
// joins (the file's first piece sat in the inode's slot), and the kApply
// reply. The three handlers lend the op's path to their stores as a view,
// the primary's of the frame and each mirror's of the replica-area path it
// builds in its pooled room, beside the span vector it decodes there; the
// mirrors' status replies are shared frames, and the sort, the span array
// and the span buffer cost nothing once the handle has flushed. It was 10
// while the three op paths were strings, and 17 before that, with op tracing
// off as here. A GC empties the pools, so the count is taken with it off,
// the fewest of three files' second flushes.
func TestFlushCopyBudget(t *testing.T) {
	const flush = 1 << 20
	_, nodes := testCluster(t, 5, 85, Config{Replicas: 2, WriteBackBytes: flush, TraceBufSize: -1})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	objects := uint64(math.MaxUint64)
	piece := make([]byte, 32<<10)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("f%d", i)
		fvh, _, _, err := m.Create(dir, name, 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		fill := func(off int64) {
			t.Helper()
			for end := off + flush; off < end; off += int64(len(piece)) {
				if _, _, err := m.Write(fvh, off, piece); err != nil {
					t.Fatal(err)
				}
			}
		}
		fill(0) // the handle's first flush also allocates its span buffer
		flushes := counter(nodes[0], "io.writeback.flushes")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fill(flush)
		runtime.ReadMemStats(&after)
		if got := counter(nodes[0], "io.writeback.flushes") - flushes; got != 1 {
			t.Fatalf("%d flushes in the measured MiB, want 1", got)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(flush*7/2); got > limit {
			t.Errorf("a %d-byte flush allocated %d bytes end to end (%.1fx), want <= 3.5x", flush, got, float64(got)/flush)
		}
		objects = min(objects, after.Mallocs-before.Mallocs)
		if _, err := m.Close(fvh); err != nil {
			t.Fatal(err)
		}
		got, _, err := nodes[1].NewMount().ReadFile("/bulk/" + name)
		if err != nil || len(got) != 2*flush {
			t.Fatalf("read back %d bytes err=%v", len(got), err)
		}
	}
	if objects != 7 && !racetest.Enabled {
		t.Errorf("a %d-byte flush allocated %d objects end to end, want 7", flush, objects)
	}
}

// TestWriteThroughOverwriteAllocs: a 32 KiB write-through Write that
// overwrites in place (K = 1) lends its data all the way to the two stores,
// and every frame, the client's kApply and the primary's kMirror requests and
// both servers' replies, is encoded into a pooled codec, the kMirror's
// status reply is a shared frame, and both stores take the op's path as a
// view, so the whole write costs the kApply's reply at its own length and
// nothing else: 96 bytes end to end (112 while the two op paths were
// strings, 880 while each reply was a fresh 416-byte codec, 1712 while each
// request allocated its codec too, 82.6 KB while each frame was a 40 KiB
// page-rounded copy of the data). Op tracing is off, as in the benchmark
// ledger's core.write32k_B case this pins.
func TestWriteThroughOverwriteAllocs(t *testing.T) {
	_, nodes := testCluster(t, 4, 87, Config{Replicas: 1, TraceBufSize: -1})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/wt")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	piece := make([]byte, 32<<10)
	write := func(i int) {
		t.Helper()
		if _, _, err := m.Write(fvh, int64(i%8)*int64(len(piece)), piece); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // the file at its full size: every later write overwrites in place
		write(i)
	}
	racetest.SkipAllocs(t)
	if per := bytesPerCall(64, write); per > 96 {
		t.Errorf("a 32 KiB write-through overwrite allocated %d bytes end to end, want <= 96", per)
	}
}

// TestWriteFileRewriteAllocs: a same-size Mount.WriteFile rewrite at K = 2
// lands in three stores, each of which truncates the file to zero and then
// refills the piece the truncation kept, so no store allocates the file
// again: the whole rewrite of 16 KiB costs the replies at their own length
// and little else, 160 bytes end to end (50 432, three copies of the file
// and the replies' 416-byte codecs, while a truncation dropped the file's
// piece and each reply was a fresh codec).
func TestWriteFileRewriteAllocs(t *testing.T) {
	_, nodes := testCluster(t, 4, 87, Config{Replicas: 2, TraceBufSize: -1})
	m := nodes[0].NewMount()
	data := make([]byte, 16<<10)
	write := func(int) {
		t.Helper()
		if _, err := m.WriteFile("/rw/f", data); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	// A path first written with 100 bytes and rewritten at 4 KiB: the first
	// rewrite outgrows the 100-byte room each store's truncation kept and
	// takes one 4 KiB piece, which the next truncation keeps, so from the
	// second rewrite on it costs what the 16 KiB one does. It was 12 640
	// bytes a rewrite while each store kept the 100-byte piece and allocated
	// the rest of the file again every time.
	if _, err := m.WriteFile("/rw/g", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	grown := make([]byte, 4<<10)
	rewrite := func(int) {
		t.Helper()
		if _, err := m.WriteFile("/rw/g", grown); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(0)
	racetest.SkipAllocs(t)
	if per := bytesPerCall(64, write); per > 160 {
		t.Errorf("a %d-byte WriteFile rewrite at K = 2 allocated %d bytes end to end, want <= 160", len(data), per)
	}
	if per := bytesPerCall(64, rewrite); per > 160 {
		t.Errorf("a %d-byte WriteFile rewrite of a file first written with 100 bytes allocated %d bytes end to end, want <= 160", len(grown), per)
	}
}

// bytesPerCall reports the heap bytes a call of fn allocates, counted
// process-wide over n calls: the fewest of three windows, each after a GC
// and a warm-up call. So every window starts with the pool of request Codecs
// (wire.GetCodec) holding what the warm-up freed, and a disturbance in one
// window, a GC or another goroutine's allocation, does not decide the count.
func bytesPerCall(n int, fn func(i int)) uint64 {
	least := uint64(math.MaxUint64)
	for w := 0; w < 3; w++ {
		runtime.GC()
		fn(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn(i)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(n))
	}
	return least
}

// lentNet records the first byte of every body a kMirror frame lends, as the
// replica's handler is handed it.
type lentNet struct {
	*simnet.Network
	mu       sync.Mutex
	mirrored []*byte
}

func (n *lentNet) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	if service != KoshaService {
		n.Network.RegisterCtx(addr, service, h)
		return
	}
	n.Network.RegisterCtx(addr, service, func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		if f := wire.FrameOf(req); len(f.Head) >= 4 && binary.BigEndian.Uint32(f.Head) == kMirror {
			n.mu.Lock()
			for _, l := range f.Lent {
				n.mirrored = append(n.mirrored, &l.Body[0])
			}
			n.mu.Unlock()
		}
		return h(ctx, from, req)
	})
}

// TestMirrorsSeeTheClientsBytes: the primary forwards a write to its
// replicas with the body it was lent, so on a K = 2 write each replica's
// kMirror handler reads the client's own array, copied only by the store.
func TestMirrorsSeeTheClientsBytes(t *testing.T) {
	net := &lentNet{Network: simnet.New(simnet.LAN100)}
	nodes := testClusterOn(t, net, 5, 88, Config{Replicas: 2})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/lent")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("lent"), 8<<10)
	net.mu.Lock()
	net.mirrored = nil
	net.mu.Unlock()
	if _, _, err := m.Write(fvh, 0, payload); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	got := net.mirrored
	net.mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("%d lent bodies reached kMirror handlers, want 2 (one per replica)", len(got))
	}
	for i, p := range got {
		if p != &payload[0] {
			t.Errorf("replica %d's kMirror handler read a copy of the data, not the client's array", i)
		}
	}
	read, _, err := nodes[3].NewMount().ReadFile("/lent/f")
	if err != nil || !bytes.Equal(read, payload) {
		t.Fatalf("read back %d bytes err=%v", len(read), err)
	}
}

// scribbleNet hands every handler a private copy of its request frame — the
// head and, still lent, each body the frame lends — and overwrites every
// copy once the handler has returned. A handler that keeps a borrowed slice
// of the request (wire.Decoder.OpaqueRef) or a lent body past the call, or a
// store that aliases either instead of copying, shows up as corrupted data.
type scribbleNet struct{ *simnet.Network }

func (n scribbleNet) Register(addr simnet.Addr, service string, h simnet.Handler) {
	n.RegisterCtx(addr, service, func(_ obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return h(from, req)
	})
}

func (n scribbleNet) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	n.Network.RegisterCtx(addr, service, func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		f := wire.FrameOf(req)
		mine := wire.Frame{Head: append([]byte(nil), f.Head...)}
		for _, l := range f.Lent {
			mine.Lent = append(mine.Lent, wire.Lent{At: l.At, Body: append([]byte(nil), l.Body...)})
		}
		resp, cost, err := h(ctx, from, wire.Lend(mine))
		wire.EndLend(mine)
		scribble := func(p []byte) {
			for i := range p {
				p[i] = 0xA5
			}
		}
		scribble(mine.Head)
		for _, l := range mine.Lent {
			scribble(l.Body)
		}
		return resp, cost, err
	})
}

// TestHandlersDoNotRetainRequestBuffers drives write-through writes, write-
// back flushes (kApply at the primary, the shared kMirror frame at both
// replicas) and whole-file writes over a transport that scribbles over every
// request after its handler returns, then checks every copy in every store
// and reads files back through another node: one over several READs, one in
// the walk's reply alone. A mirrored rename and LOOKUPPATH walks follow, and
// then no store entry or tracking record on any node may hold the scribble.
func TestHandlersDoNotRetainRequestBuffers(t *testing.T) {
	net := scribbleNet{simnet.New(simnet.LAN100)}
	state := uint64(86)
	nodes := make([]*Node, 5)
	for i := range nodes {
		cfg := Config{Replicas: 2}
		if i == 0 {
			cfg.WriteBackBytes = 256 << 10
		}
		nodes[i] = NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, cfg)
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nodes[i].Join(boot); err != nil {
			t.Fatal(err)
		}
	}
	stabilizeAll(nodes)

	payload := make([]byte, 2<<20+4321)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	for name, m := range map[string]*Mount{"wb": nodes[0].NewMount(), "wt": nodes[1].NewMount()} {
		dir, _, err := m.MkdirAll("/alias")
		if err != nil {
			t.Fatal(err)
		}
		fvh, _, _, err := m.Create(dir, name, 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(payload); off += 32 << 10 {
			if _, _, err := m.Write(fvh, int64(off), payload[off:min(off+32<<10, len(payload))]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Close(fvh); err != nil {
			t.Fatal(err)
		}
		if _, err := m.WriteFile("/alias/whole-"+name, payload[:300<<10]); err != nil {
			t.Fatal(err)
		}
	}

	copies := 0
	for _, nd := range nodes {
		for _, p := range []string{"/alias/wb", "/alias/wt", "/alias/whole-wb", "/alias/whole-wt"} {
			want := payload
			if len(p) > len("/alias/wb") {
				want = payload[:300<<10]
			}
			for _, phys := range []string{p, RepPath(p)} {
				got, err := nd.Store().ReadFile(phys)
				if err != nil {
					continue // this node holds no copy in this area
				}
				copies++
				if !bytes.Equal(got, want) {
					t.Errorf("%s on %s: stored bytes differ from what was written", phys, nd.Addr())
				}
			}
		}
	}
	if copies != 4*3 {
		t.Errorf("found %d stored copies, want 12 (4 files on a primary and 2 replicas each)", copies)
	}
	got, _, err := nodes[3].NewMount().ReadFile("/alias/wb")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back through another node: %d bytes err=%v", len(got), err)
	}
	// A file of up to one chunk comes back in the walk's own reply.
	walks := nodes[3].NFSProcCount(nfs.ProcLookupPath)
	reads := nodes[3].NFSProcCount(nfs.ProcRead)
	got, _, err = nodes[3].NewMount().ReadFile("/alias/whole-wt")
	if err != nil || !bytes.Equal(got, payload[:300<<10]) {
		t.Fatalf("one-reply read through another node: %d bytes err=%v", len(got), err)
	}
	if nodes[3].NFSProcCount(nfs.ProcLookupPath) == walks || nodes[3].NFSProcCount(nfs.ProcRead) != reads {
		t.Error("the whole-file read was not served by the walk alone")
	}

	// A mirrored rename, whose replicas build both replica paths from the
	// frame's bytes, and LOOKUPPATH walks from fresh mounts, whose server
	// looks every component up in the frame. Nothing a node keeps — a store
	// entry, a tracking record's names — may hold the scribble.
	m := nodes[1].NewMount()
	dir, _, _, err := m.LookupPath("/alias")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(dir, "wt", dir, "renamed"); err != nil {
		t.Fatal(err)
	}
	walks = nodes[4].NFSProcCount(nfs.ProcLookupPath)
	for _, p := range []string{"/alias/renamed", "/alias/whole-wb", "/alias/wt"} {
		_, _, _, err := nodes[4].NewMount().LookupPath(p)
		if missing := p == "/alias/wt"; missing != (err != nil) {
			t.Errorf("LookupPath(%s) err = %v, want found %v", p, err, !missing)
		}
	}
	if nodes[4].NFSProcCount(nfs.ProcLookupPath) == walks {
		t.Error("the fresh mounts' lookups sent no LOOKUPPATH")
	}
	scribbled := func(s string) bool { return strings.IndexByte(s, 0xA5) >= 0 }
	copies = 0
	for _, nd := range nodes {
		nd.Store().Walk("/", func(p string, _ localfs.Attr, target string) error {
			if scribbled(p) || scribbled(target) {
				t.Errorf("%s stores %q -> %q: a name kept from a request buffer", nd.Addr(), p, target)
			}
			if p == "/alias/renamed" || p == RepPath("/alias/renamed") {
				copies++
			}
			return nil
		})
		for _, tr := range nd.Repl().Tracks() {
			if scribbled(tr.PN) || scribbled(tr.Root) {
				t.Errorf("%s tracks %+v: a name kept from a request buffer", nd.Addr(), tr)
			}
		}
	}
	if copies != 3 {
		t.Errorf("found %d copies of the renamed file, want 3 (a primary and 2 replicas)", copies)
	}
}

// TestReadIntoAllocs: a 32 KiB write-through read (K = 1) into the caller's
// buffer has the primary's store fill the buffer itself, so the read
// allocates the READ's reply codec and nothing the size of its data, 416
// bytes end to end (832 while the request allocated its codec too; a Read
// allocates a reply frame of a page-rounded 40 KiB). Op tracing is off, as
// in the benchmark ledger's core.read32k_B case.
func TestReadIntoAllocs(t *testing.T) {
	_, nodes := testCluster(t, 4, 87, Config{Replicas: 1, TraceBufSize: -1})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/rt")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	piece := make([]byte, 32<<10)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(piece, uint64(i))
		if _, _, err := m.Write(fvh, int64(i)*int64(len(piece)), piece); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 0, len(piece))
	read := func(i int) {
		t.Helper()
		got, _, _, err := m.ReadInto(fvh, int64(i%8)*int64(len(piece)), len(piece), dst)
		if err != nil || len(got) != len(piece) || binary.BigEndian.Uint64(got) != uint64(i%8) || &got[0] != &dst[:1][0] {
			t.Fatalf("read %d: %d bytes err=%v", i, len(got), err)
		}
	}
	read(0)
	racetest.SkipAllocs(t)
	if per := bytesPerCall(64, read); per > 416 {
		t.Errorf("a 32 KiB write-through ReadInto allocated %d bytes end to end, want <= 416", per)
	}
}

// TestReadIntoLandsInTheCallersBuffer: on every read path the bytes land in
// the room the caller offers — a stop-and-wait READ and a replica read from
// the store, a readahead window's hit and fill by copy — and after what the
// buffer held; a read that finds too little room appends, as append does.
func TestReadIntoLandsInTheCallersBuffer(t *testing.T) {
	for _, cfg := range []Config{
		{Replicas: 1},
		{Replicas: 2, ReadFromReplicas: true},
		{Replicas: 1, ReadaheadChunks: 2},
	} {
		name := fmt.Sprintf("replica reads %v, readahead %d", cfg.ReadFromReplicas, cfg.ReadaheadChunks)
		_, nodes := testCluster(t, 6, 91, cfg)
		data := make([]byte, 3<<20+77)
		for i := range data {
			data[i] = byte(i / 997)
		}
		if _, err := nodes[1].NewMount().WriteFile("/u/f", data); err != nil {
			t.Fatal(err)
		}
		m := nodes[0].NewMount()
		fvh, _, _, err := m.LookupPath("/u/f")
		if err != nil {
			t.Fatal(err)
		}
		const count = 256 << 10
		for off := 0; off < len(data); off += count {
			dst := append(make([]byte, 0, 4+count), "head"...)
			got, _, _, err := m.ReadInto(fvh, int64(off), count, dst)
			want := data[off:min(off+count, len(data))]
			if err != nil || string(got[:4]) != "head" || !bytes.Equal(got[4:], want) || &got[0] != &dst[0] {
				t.Fatalf("%s: read at %d: %d bytes err=%v", name, off, len(got), err)
			}
		}
		short := make([]byte, 0, 10)
		got, _, _, err := m.ReadInto(fvh, 0, count, short)
		if err != nil || !bytes.Equal(got, data[:count]) {
			t.Fatalf("%s: a read past the room: %d bytes err=%v", name, len(got), err)
		}
	}
}
