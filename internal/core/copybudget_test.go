package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/id"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
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
// flush through a K=2 mount allocates the request frame, the shared mirror
// frame and one store extent on each of the three holders — 5x its payload
// (17x before: a regrown span buffer, per-replica frames, decode copies and
// whole-file regrowth in every store).
func TestFlushCopyBudget(t *testing.T) {
	const flush = 1 << 20
	_, nodes := testCluster(t, 5, 85, Config{Replicas: 2, WriteBackBytes: flush})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/bulk")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	piece := make([]byte, 32<<10)
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
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(flush*11/2); got > limit {
		t.Errorf("a %d-byte flush allocated %d bytes end to end (%.1fx), want <= 5.5x", flush, got, float64(got)/flush)
	}
	if _, err := m.Close(fvh); err != nil {
		t.Fatal(err)
	}
	got, _, err := nodes[1].NewMount().ReadFile("/bulk/f")
	if err != nil || len(got) != 2*flush {
		t.Fatalf("read back %d bytes err=%v", len(got), err)
	}
}

// scribbleNet hands every handler a private copy of its request and
// overwrites that copy once the handler has returned. A handler that keeps a
// borrowed slice of the request (wire.Decoder.OpaqueRef) past the call, or a
// store that aliases it instead of copying, shows up as corrupted data.
type scribbleNet struct{ *simnet.Network }

func (n scribbleNet) Register(addr simnet.Addr, service string, h simnet.Handler) {
	n.RegisterCtx(addr, service, func(_ obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return h(from, req)
	})
}

func (n scribbleNet) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	n.Network.RegisterCtx(addr, service, func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		mine := append([]byte(nil), req...)
		resp, cost, err := h(ctx, from, mine)
		for i := range mine {
			mine[i] = 0xA5
		}
		return resp, cost, err
	})
}

// TestHandlersDoNotRetainRequestBuffers drives write-through writes, write-
// back flushes (kApply at the primary, the shared kMirror frame at both
// replicas) and whole-file writes over a transport that scribbles over every
// request after its handler returns, then checks every copy in every store
// and reads files back through another node: one over several READs, one in
// the walk's reply alone.
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
}
