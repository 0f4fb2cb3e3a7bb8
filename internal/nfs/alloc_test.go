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

// TestDataFramesAllocatedOnce: a READ or READSTREAM reply costs the pieces
// the store returns plus one frame at its final size — not a growing join
// buffer, a regrown encoder and a client-side copy on top (7x the bytes read
// before, 2x now).
func TestDataFramesAllocatedOnce(t *testing.T) {
	_, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	if _, _, err := c.Write("srv", fh, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	var data []byte
	var eof bool
	n := allocatedBytes(func() { data, eof, _, err = c.ReadStream("srv", fh, 0, 32<<10, 64) })
	if err != nil || len(data) != size || !eof {
		t.Fatalf("readstream: %d bytes eof=%v err=%v", len(data), eof, err)
	}
	if n > size*2+size/8 {
		t.Errorf("a %d-byte window allocated %d bytes end to end, want about 2x", size, n)
	}
	// A hostile window reserves nothing: the reply is sized by what the store
	// returned, never by chunk x chunks.
	n = allocatedBytes(func() { data, _, _, err = c.ReadStream("srv", fh, size-10, 1<<20, 1<<30) })
	if err != nil || len(data) != 10 {
		t.Fatalf("tail window: %d bytes err=%v", len(data), err)
	}
	if n > 8<<10 {
		t.Errorf("a 10-byte reply to a 2^50-byte window allocated %d bytes", n)
	}
}
