package nfs

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
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
// simnet: the request frame, the client's codec (one object holding the
// encoder and the decoder) and the reply frame, which the client borrows. A
// one-byte name decodes without allocating; a longer one adds its string.
// Before the codec object the encoder and the decoder were an object each: 4.
func TestLookupRoundTripAllocs(t *testing.T) {
	_, srv, c := rig(t, 0)
	if _, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false); err != nil {
		t.Fatal(err)
	}
	var err error
	n := testing.AllocsPerRun(1000, func() { _, _, _, err = c.Lookup("srv", srv.Root(), "f") })
	if err != nil {
		t.Fatal(err)
	}
	if n > 3 {
		t.Errorf("a LOOKUP round trip allocates %.1f times, want <= 3", n)
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
// its final size (2x before, when the store's copy came first). A window's
// frame doubles across its chunks: under 2x for four 1 MiB chunks, and for
// 32 KiB chunks about the 2x that joining the store's copies cost, plus the
// page tails of the doublings.
func TestDataFramesAllocatedOnce(t *testing.T) {
	_, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	const mib = 1 << 20
	const size = 4 * mib
	if _, _, err := c.Write("srv", fh, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		chunk, chunks int
		limit         float64 // bytes allocated end to end per byte read
	}{
		{"a 1 MiB READ", mib, 0, 1.1},
		{"a 4 x 1 MiB window", mib, 4, 1.99},
		{"a 64 x 32 KiB window", 32 << 10, 64, 2 + 1.0/64},
	} {
		var data []byte
		n := allocatedBytes(func() {
			if tc.chunks == 0 {
				data, _, _, err = c.Read("srv", fh, 0, tc.chunk)
			} else {
				data, _, _, err = c.ReadStream("srv", fh, 0, tc.chunk, tc.chunks)
			}
		})
		want := tc.chunk * max(tc.chunks, 1)
		if err != nil || len(data) != want {
			t.Fatalf("%s: %d bytes err=%v", tc.name, len(data), err)
		}
		if ratio := float64(n) / float64(want); ratio > tc.limit {
			t.Errorf("%s allocated %d bytes end to end, %.3fx the bytes read, want <= %.3fx", tc.name, n, ratio, tc.limit)
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
