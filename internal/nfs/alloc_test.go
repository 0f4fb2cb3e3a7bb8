package nfs

import (
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
	if len(procs) != 21 || procs[len(procs)-2] != ProcLookupPath {
		t.Fatalf("named procedures = %v, want all 21 with LOOKUPPATH the last below MNT", procs)
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
// RFC 1813 program (READSTREAM, LOOKUPPATH, MNT) included.
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
// simnet: the client's codec (one object holding the encoder, the decoder and
// the array the request frame is encoded into) and the reply frame, which
// the client borrows. A one-byte name decodes without allocating; a longer
// one adds its string. It was 3 while the request frame was allocated beside
// the codec, and 4 before that, while the encoder and the decoder were an
// object each.
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
	if n > 2 {
		t.Errorf("a LOOKUP round trip allocates %.1f times, want <= 2", n)
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

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGetWriteSpansBorrows pins the span decode to O(spans): the vector's
// headers are allocated, the data bytes are borrowed from the request.
func TestGetWriteSpansBorrows(t *testing.T) {
	spans := make([]WriteSpan, 4)
	for i := range spans {
		spans[i] = WriteSpan{Offset: int64(i) << 20, Data: make([]byte, 256<<10)}
	}
	e := wire.NewEncoder(0)
	PutWriteSpans(e, spans)
	req := e.Bytes()

	var got []WriteSpan
	n := allocatedBytes(func() { got = GetWriteSpans(wire.NewDecoder(req)) })
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
// its final size (2x before, when the store's copy came first), and so does
// a READSTREAM window: the store sizes the frame once from the bytes the
// file holds past the offset, where it used to double across the window's
// chunks (1.76x for four 1 MiB chunks, 2x for 32 KiB ones). A window that
// crosses EOF reserves only the bytes left, and the largest window the
// request can name, 2^32-1 chunks of 2^32-1 bytes, no more than the file.
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
	empty := allocatedBytes(func() { _, _, _, err = c.ReadStream("srv", fh, size, mib, 4) })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		off           int64
		chunk, chunks int
		want          int    // bytes read
		limit         uint64 // bytes allocated end to end
	}{
		{"a 1 MiB READ", 0, mib, 0, mib, mib * 11 / 10},
		{"a 4 x 1 MiB window", 0, mib, 4, size, size * 101 / 100},
		{"a 64 x 32 KiB window", 0, 32 << 10, 64, 2 * mib, 2 * mib * 101 / 100},
		{"a 4 x 1 MiB window across EOF", size - 3*mib/2, mib, 4, 3 * mib / 2, 3*mib/2 + page + empty},
		{"a 2^64-byte window", 0, 1<<32 - 1, 1<<32 - 1, size, size + page + empty},
	} {
		var data []byte
		n := allocatedBytes(func() {
			if tc.chunks == 0 {
				data, _, _, err = c.Read("srv", fh, tc.off, tc.chunk)
			} else {
				data, _, _, err = c.ReadStream("srv", fh, tc.off, tc.chunk, tc.chunks)
			}
		})
		if err != nil || len(data) != tc.want {
			t.Fatalf("%s: %d bytes err=%v, want %d", tc.name, len(data), err, tc.want)
		}
		if n > tc.limit {
			t.Errorf("%s allocated %d bytes end to end, %.3fx the %d bytes read, want <= %d",
				tc.name, n, float64(n)/float64(tc.want), tc.want, tc.limit)
		}
	}
	// A hostile window reserves nothing: the reply is sized by what the store
	// returned, never by chunk x chunks.
	var data []byte
	n := allocatedBytes(func() { data, _, _, err = c.ReadStream("srv", fh, size-10, 1<<20, 1<<30) })
	if err != nil || len(data) != 10 {
		t.Fatalf("tail window: %d bytes err=%v", len(data), err)
	}
	if n > 8<<10 {
		t.Errorf("a 10-byte reply to a 2^50-byte window allocated %d bytes", n)
	}
}

// TestListingFramesSizedOnce: a READDIR or READDIRPLUS reply is sized from its
// page before the first entry is encoded (pageSize), so the frame is
// allocated at its size instead of regrown: the sizes must be exact.
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
	for _, tc := range []struct {
		proc     Proc
		perEntry int
	}{{ProcReaddir, direntSize}, {ProcReaddirPlus, direntPlusSize}} {
		e := wire.NewEncoder(64)
		e.PutUint32(uint32(tc.proc))
		e.PutUint64(1)
		putHandle(e, srv.Root())
		e.PutUint64(0)
		e.PutUint32(0)
		resp, _, _ := srv.Handle("cli", e.Bytes())
		if want := pageSize(ents, tc.perEntry); len(resp) != want {
			t.Errorf("%s reply is %d bytes, pageSize says %d", tc.proc, len(resp), want)
		}
	}
}
