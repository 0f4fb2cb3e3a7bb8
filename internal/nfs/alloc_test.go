package nfs

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestHotPathLabelsDoNotAllocate pins the pre-interned per-proc histogram
// labels: after the first touch, neither the rpc.<PROC> histogram lookup nor
// stamping a trace context onto the client may allocate — these run on every
// forwarded NFS RPC.
func TestHotPathLabelsDoNotAllocate(t *testing.T) {
	net := simnet.New(simnet.LAN100)
	c := NewClient(net, "cli")
	procs := namedProcs()
	if len(procs) != 14 || procs[len(procs)-2] != ProcLookupPath {
		t.Fatalf("named procedures = %v, want all 14 with LOOKUPPATH the last below MNT", procs)
	}
	for _, p := range procs {
		c.proc(p) // warm the per-proc cache
	}
	tc := obs.TraceContext{Hi: 1, Lo: 2, Span: 3}

	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(1000, func() {
		for _, p := range procs {
			c.proc(p)
		}
	}); n != 0 {
		t.Errorf("warm proc() lookup allocates %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		cc := c.WithCtx(tc)
		cc.proc(ProcLookup)
	}); n != 0 {
		t.Errorf("WithCtx stamp allocates %.1f times per run, want 0", n)
	}
}

// named reports whether p is a procedure the protocol defines, as opposed to
// a number Proc.String can only print as PROC(n).
func named(p Proc) bool { return !strings.HasPrefix(p.String(), "PROC(") }

// namedProcs lists every defined procedure, the extension numbers above the
// RFC 1813 program (LOOKUPPATH, MNT) included.
func namedProcs() []Proc {
	var out []Proc
	for p := Proc(0); p < maxProc; p++ {
		if named(p) {
			out = append(out, p)
		}
	}
	return out
}

// TestLookupRoundTripAllocs pins what one LOOKUP costs end to end over
// simnet: the reply frame, which the client borrows. The client's codec (one
// object holding the encoder, the decoder and the array the request frame is
// encoded into) comes from the pool and goes back to it once the reply is
// decoded. A one-byte name decodes without allocating; a longer one adds its
// string. It was 2 while every call allocated its codec, 3 while the request
// frame was allocated beside the codec, and 4 before that, while the encoder
// and the decoder were an object each.
func TestLookupRoundTripAllocs(t *testing.T) {
	_, srv, c := rig(t, 0)
	if _, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false); err != nil {
		t.Fatal(err)
	}
	racetest.SkipAllocs(t)
	var err error
	n := testing.AllocsPerRun(1000, func() { _, _, _, err = c.Lookup("srv", srv.Root(), "f") })
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 {
		t.Errorf("a LOOKUP round trip allocates %.1f times, want <= 1", n)
	}
}

// BenchmarkProcHistLookup measures the per-RPC label path in isolation; run
// with -benchmem to watch the 0 B/op invariant.
func BenchmarkProcHistLookup(b *testing.B) {
	net := simnet.New(simnet.LAN100)
	c := NewClient(net, "cli")
	c.proc(ProcWrite)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.proc(ProcWrite)
	}
}

// allocatedBytes reports the heap bytes fn allocates, counted process-wide:
// the fewest of eight runs, each after a GC and a warm-up run of fn. So every
// measurement starts from one state of the pool of request Codecs
// (wire.GetCodec), holding the Codec the warm-up freed, and two measurements
// compare what their calls allocate, not whether a GC emptied the pool
// between them. Under the race detector sync.Pool drops one freed Codec in
// four at random, so a run allocates a Codec with odds 1/4; the fewest of
// eight is a run whose Codec came from the pool but once in 65 536. The runs
// use one P: sync.Pool keeps its free Codecs per P, and a call the scheduler
// moves to a P whose pool has no room yet allocates the pool's own
// bookkeeping (176 bytes), which is no part of the call.
func allocatedBytes(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		runtime.GC()
		fn()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestGetWriteSpansBorrows pins the span decode to O(spans): the vector's
// headers are allocated, the data bytes are borrowed from the request — from
// a flat frame as it arrives over TCP, and as the very arrays the sender
// lent from a frame handed over in process.
func TestGetWriteSpansBorrows(t *testing.T) {
	spans := make([]WriteSpan, 4)
	for i := range spans {
		spans[i] = WriteSpan{Offset: int64(i) << 20, Data: make([]byte, 256<<10)}
	}
	e := wire.NewEncoder(0)
	PutWriteSpans(e, spans)
	var d wire.Decoder
	d.ResetFrame(e.Frame())
	for i, s := range GetWriteSpans(&d, nil) {
		if &s.Data[0] != &spans[i].Data[0] {
			t.Errorf("span %d: the decode of the lent frame is not the sender's array", i)
		}
	}
	if d.Done() != nil {
		t.Fatal(d.Done())
	}
	req := e.Frame().AppendTo(nil)

	var got []WriteSpan
	n := allocatedBytes(func() { got = GetWriteSpans(wire.NewDecoder(req), nil) })
	if len(got) != len(spans) || len(got[3].Data) != 256<<10 {
		t.Fatalf("decoded %d spans", len(got))
	}
	if n > 1024 {
		t.Errorf("decoding 4 spans of 256 KiB allocated %d bytes, want O(spans)", n)
	}
	if &got[0].Data[0] != &req[4+8+4] {
		t.Error("span data was copied out of the request")
	}
}

// TestDataFramesAllocatedOnce: the store appends a read straight into the
// reply frame, which the client then borrows from. A READ costs one frame at
// its final size (2x before, when the store's copy came first), a READ of
// several units, a readahead window's, too: the store sizes the frame once
// from the bytes the file holds past the offset, where a window of chunks
// used to double across them (1.76x for four 1 MiB chunks). A READ that
// crosses EOF reserves only the bytes left, and the largest count a request
// can name, 2^32-1, no more than the file.
func TestDataFramesAllocatedOnce(t *testing.T) {
	_, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	const mib = 1 << 20
	const size = 4 * mib
	const page = 8 << 10 // the Go runtime's page, what a large allocation rounds to
	if _, _, err := c.Write("srv", fh, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	// What a round trip costs besides its data: request frame, codec, an
	// empty reply. A frame sized once overshoots its data by under a page.
	empty := allocatedBytes(func() { _, _, _, err = c.Read("srv", fh, size, 4*mib) })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		off   int64
		count int
		want  int    // bytes read
		limit uint64 // bytes allocated end to end
	}{
		{"a 1 MiB READ", 0, mib, mib, mib * 11 / 10},
		{"a 4 MiB READ", 0, 4 * mib, size, size * 101 / 100},
		{"a 2 MiB READ from inside a unit", 32 << 10, 2 * mib, 2 * mib, 2 * mib * 101 / 100},
		{"a 4 MiB READ across EOF", size - 3*mib/2, 4 * mib, 3 * mib / 2, 3*mib/2 + page + empty},
		{"a READ of 2^32-1 bytes", 0, 1<<32 - 1, size, size + page + empty},
	} {
		var data []byte
		n := allocatedBytes(func() { data, _, _, err = c.Read("srv", fh, tc.off, tc.count) })
		if err != nil || len(data) != tc.want {
			t.Fatalf("%s: %d bytes err=%v, want %d", tc.name, len(data), err, tc.want)
		}
		if n > tc.limit {
			t.Errorf("%s allocated %d bytes end to end, %.3fx the %d bytes read, want <= %d",
				tc.name, n, float64(n)/float64(tc.want), tc.want, tc.limit)
		}
	}
	// A hostile count reserves nothing: the reply is sized by what the store
	// returned, never by the count.
	var data []byte
	n := allocatedBytes(func() { data, _, _, err = c.Read("srv", fh, size-10, 1<<32-1) })
	if err != nil || len(data) != 10 {
		t.Fatalf("tail READ: %d bytes err=%v", len(data), err)
	}
	if n > 8<<10 {
		t.Errorf("a 10-byte reply to a READ of 2^32-1 bytes allocated %d bytes", n)
	}
}

// TestListingFramesSizedOnce: a READDIRPLUS reply is sized from its page
// before the first entry is encoded (pageSize), so the frame is allocated at
// its size instead of regrown: the size must be exact.
func TestListingFramesSizedOnce(t *testing.T) {
	_, srv, c := rig(t, 0)
	for i := 0; i < 40; i++ {
		if _, _, _, err := c.Create("srv", srv.Root(), strings.Repeat("n", i%7+1)+string(rune('a'+i%26))+string(rune('a'+i/26)), 0o644, false); err != nil {
			t.Fatal(err)
		}
	}
	ents, _, err := srv.FS().Readdir(srv.Root().Ino)
	if err != nil || len(ents) != 40 {
		t.Fatalf("%d entries, err=%v", len(ents), err)
	}
	e := wire.NewEncoder(64)
	e.PutUint32(uint32(ProcReaddirPlus))
	e.PutUint64(1)
	putHandle(e, srv.Root())
	e.PutUint64(0)
	e.PutUint32(0)
	resp, _, _ := srv.Handle("cli", e.Bytes())
	if want := pageSize(ents); len(resp) != want {
		t.Errorf("READDIRPLUS reply is %d bytes, pageSize says %d", len(resp), want)
	}
}

// replyTap answers every call with one reply, without a server.
type replyTap struct{ reply []byte }

func (r *replyTap) CallCtx(obs.TraceContext, simnet.Addr, simnet.Addr, string, []byte) ([]byte, simnet.Cost, error) {
	return r.reply, 0, nil
}

// TestListingPageAllocsAreFlat: a READDIRPLUS page costs the client its
// entry slice and nothing per entry, whether it holds 8 entries or 200,
// files and links alike: each name and link target is a view of the reply
// frame (Decoder.StringRef), which is the caller's. It was one object more
// per name and per target while each was decoded into a string of its own.
func TestListingPageAllocsAreFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{8, 200} {
		_, srv, _ := rig(t, 0)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("entry%03d", i)
			if i%4 == 0 {
				symlink(t, srv.FS(), "/", name, "target/"+name)
			} else if err := srv.FS().WriteFile("/"+name, nil); err != nil {
				t.Fatal(err)
			}
		}
		e := wire.NewEncoder(64)
		e.PutUint32(uint32(ProcReaddirPlus))
		e.PutUint64(1)
		putHandle(e, srv.Root())
		e.PutUint64(0)
		e.PutUint32(0)
		resp, _, err := srv.Handle("cli", e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(&replyTap{reply: resp}, "cli")
		var ents []DirEntryPlus
		list := func() {
			if ents, _, _, _, err = c.ReaddirPlus("srv", srv.Root(), 0, 0); err != nil || len(ents) != n {
				t.Fatalf("a page of %d entries lists %d, err=%v", n, len(ents), err)
			}
		}
		list()
		if ents[4].Name != "entry004" || ents[4].SymTarget != "target/entry004" {
			t.Fatalf("entry 4 lists as %q -> %q", ents[4].Name, ents[4].SymTarget)
		}
		racetest.SkipAllocs(t)
		allocs[n] = testing.AllocsPerRun(100, list)
	}
	if allocs[8] != 1 || allocs[200] != 1 {
		t.Errorf("a READDIRPLUS page allocates %.1f objects on the client at 8 entries and %.1f at 200, want 1 (its entry slice) for both", allocs[8], allocs[200])
	}
}

// lentTap answers every call with a WRITE's OK reply, without a server, and
// keeps the first byte of the body the request frame lent.
type lentTap struct{ body *byte }

func (n *lentTap) CallCtx(_ obs.TraceContext, _, _ simnet.Addr, _ string, req []byte) ([]byte, simnet.Cost, error) {
	if f := wire.FrameOf(req); len(f.Lent) == 1 {
		n.body = &f.Lent[0].Body[0]
	}
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(OK)), 32<<10), 0, nil
}

// TestWriteLendsItsData: a WRITE's data reaches the transport lent to the
// request frame, the caller's own array, and the frame's head is a pooled
// codec's, so a 32 KiB WRITE allocates nothing on the client: the 8 bytes it
// costs are the tap's reply (424 while every call allocated its codec, 41.4 KB
// while the frame held a page-rounded copy).
func TestWriteLendsItsData(t *testing.T) {
	tap := &lentTap{}
	c := NewClient(tap, "cli")
	data := make([]byte, 32<<10)
	write := func() {
		if n, _, err := c.Write("srv", Handle{Gen: 1, Ino: 2}, 0, data); err != nil || n != len(data) {
			t.Fatalf("write: %d, %v", n, err)
		}
	}
	write()
	if tap.body != &data[0] {
		t.Fatal("the WRITE's data reached the transport as a copy, not lent")
	}
	racetest.SkipAllocs(t)
	const writes = 100
	if per := allocatedBytes(func() {
		for i := 0; i < writes; i++ {
			write()
		}
	}) / writes; per > 8 {
		t.Errorf("a 32 KiB WRITE allocated %d bytes with the tap's reply, want <= 8", per)
	}
}

// TestServerRepliesAreOneObject: the server decodes each request and encodes
// its reply in one pooled wire.Codec, so a served reply is one object at its
// own length — a copy out of the Codec's array, or the frame a larger reply
// grew, sized once — and a reply that is a status alone is the status's
// shared frame, no object at all. A READ without a sink is the frame the
// store sized; it was two, a 128-byte head and then that frame. A
// READDIRPLUS adds the store's listing it encodes the page from, and a CREATE
// of a new name what the store keeps of the entry, its inode and the one copy
// of its name: the server lends every name to the store as a view of the
// request (wire.Decoder.StringRef), so the store's copy is the only one, and
// a REMOVE costs nothing.
func TestServerRepliesAreOneObject(t *testing.T) {
	_, srv, c := rig(t, 0)
	fs := srv.FS()
	root := srv.Root()
	if err := fs.WriteFile("/d/small", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/big", make([]byte, 32<<10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := fs.WriteFile("/d/many/entry-"+strings.Repeat("x", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	symlink(t, fs, "/d", "link", "/d/small")
	walk := func(p string) Handle {
		w, _, err := c.Walk("srv", root, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w.FH
	}
	dir, small, big, many, link := walk("d"), walk("d/small"), walk("d/big"), walk("d/many"), walk("d/link")
	stale := Handle{Gen: root.Gen + 1, Ino: small.Ino}

	request := func(proc Proc, args func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(64)
		e.PutUint32(uint32(proc))
		e.PutUint64(1)
		args(e)
		return e.Bytes()
	}
	read := func(h Handle, count int) func(e *wire.Encoder) {
		return func(e *wire.Encoder) {
			putHandle(e, h)
			e.PutInt64(0)
			e.PutUint32(uint32(count))
		}
	}
	for _, tc := range []struct {
		name   string
		req    []byte
		status Status
		objs   float64
	}{
		{"MNT", request(ProcMountRoot, func(*wire.Encoder) {}), OK, 1},
		{"GETATTR", request(ProcGetattr, func(e *wire.Encoder) { putHandle(e, small) }), OK, 1},
		{"LOOKUP", request(ProcLookup, func(e *wire.Encoder) { putHandle(e, dir); e.PutString("small") }), OK, 1},
		{"LOOKUPPATH", request(ProcLookupPath, func(e *wire.Encoder) { putHandle(e, root); putPath(e, "d/link") }), OK, 1},
		{"LOOKUPPATH carrying 5 bytes", request(ProcLookupPath, func(e *wire.Encoder) { putHandle(e, root); putPath(e, "d/small"); e.PutUint32(1 << 20) }), OK, 1},
		{"LOOKUPPATH carrying 32 KiB", request(ProcLookupPath, func(e *wire.Encoder) { putHandle(e, root); putPath(e, "d/big"); e.PutUint32(1 << 20) }), OK, 1},
		{"READLINK", request(ProcReadlink, func(e *wire.Encoder) { putHandle(e, link) }), OK, 1},
		{"READ of 5 bytes", request(ProcRead, read(small, 1<<20)), OK, 1},
		{"READ of 32 KiB", request(ProcRead, read(big, 1<<20)), OK, 1},
		// and the store's listing, which the reply is encoded from
		{"READDIRPLUS", request(ProcReaddirPlus, func(e *wire.Encoder) { putHandle(e, many); e.PutUint64(0); e.PutUint32(0) }), OK, 2},
		{"FSSTAT", request(ProcFSStat, func(e *wire.Encoder) { putHandle(e, root) }), OK, 1},
		{"GETATTR of a stale handle", request(ProcGetattr, func(e *wire.Encoder) { putHandle(e, stale) }), ErrStale, 0},
		{"LOOKUP of a missing name", request(ProcLookup, func(e *wire.Encoder) { putHandle(e, dir); e.PutString("none") }), ErrNoEnt, 0},
		{"READ of a stale handle", request(ProcRead, read(stale, 10)), ErrStale, 0},
		{"an unknown procedure", request(Proc(2), func(*wire.Encoder) {}), ErrInval, 0},
	} {
		var resp []byte
		var err error
		serve := func() { resp, _, err = srv.Handle("cli", tc.req) }
		serve()
		if err != nil || len(resp) < 4 || Status(wire.NewDecoder(resp).Uint32()) != tc.status {
			t.Fatalf("%s: reply %x, %v; want status %d", tc.name, resp[:min(len(resp), 8)], err, tc.status)
		}
		if tc.status != OK {
			if len(resp) != 4 || &resp[0] != &wire.StatusFrame(uint32(tc.status))[0] {
				t.Errorf("%s: a %d-byte failure reply, not the status's shared frame", tc.name, len(resp))
			}
		} else if cap(resp) >= len(resp)+32 {
			t.Errorf("%s: a %d-byte reply holds %d bytes of room", tc.name, len(resp), cap(resp))
		}
		if racetest.Enabled {
			continue
		}
		if n := testing.AllocsPerRun(100, serve); n != tc.objs {
			t.Errorf("%s: a served %d-byte reply allocates %.0f objects, want %.0f", tc.name, len(resp), n, tc.objs)
		}
	}
	// A CREATE of a new name keeps the entry's inode and its name, and the
	// REMOVE of it allocates nothing: its reply is the shared OK frame, and
	// the server looks the name up where it lies in the request (it decoded
	// a string for it before). Each goes under an xid of its own, so the
	// duplicate-request cache does not answer it.
	named := func(proc Proc, args func(e *wire.Encoder)) []byte {
		return request(proc, func(e *wire.Encoder) {
			putHandle(e, dir)
			e.PutString("a-new-file-name")
			args(e)
		})
	}
	create := named(ProcCreate, func(e *wire.Encoder) { e.PutUint32(0o644); e.PutBool(true) })
	remove := named(ProcRemove, func(*wire.Encoder) {})
	xid := uint64(1)
	call := func(req []byte) {
		xid++
		binary.BigEndian.PutUint64(req[4:12], xid)
		if resp, _, err := srv.Handle("cli", req); err != nil || Status(wire.NewDecoder(resp).Uint32()) != OK {
			t.Fatalf("proc %d: reply %x, %v", Proc(binary.BigEndian.Uint32(req)), resp[:min(len(resp), 8)], err)
		}
	}
	serve := func() {
		call(create)
		call(remove)
	}
	if serve(); racetest.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, serve); n != 3 {
		t.Errorf("a CREATE of a new name and its REMOVE allocate %.0f objects, want 3: the CREATE's reply, and the inode and name the store keeps", n)
	}
}
