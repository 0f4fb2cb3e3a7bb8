package nfs

import (
	"testing"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// recorder is a transport that delivers to one server and keeps every
// request frame, so the fuzz corpus is seeded with exactly what Client puts
// on the wire for each procedure.
type recorder struct {
	srv  *Server
	reqs [][]byte
}

func (r *recorder) CallCtx(_ obs.TraceContext, from, _ simnet.Addr, _ string, req []byte) ([]byte, simnet.Cost, error) {
	r.reqs = append(r.reqs, append([]byte(nil), req...))
	return r.srv.Handle(from, req)
}

// fuzzServer is a small export with one of each kind of object. The store
// has a quota, as a contributed store does: a hostile SETATTR or WRITE far
// past the end is refused instead of allocated.
func fuzzServer(t testing.TB) *Server {
	fs := localfs.New(1<<20, simnet.Disk7200)
	if err := fs.WriteFile("/d/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	d, err := fs.LookupPath("/d")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Symlink(d.Ino, "l", "f"); err != nil {
		t.Fatal(err)
	}
	return NewServer(fs, 1)
}

// FuzzServerHandleNoPanic drives arbitrary bytes through Server.Handle, the
// decoder a daemon exposes to the network. The seed corpus holds one valid
// request per procedure and one for a retired number; whatever the mutator
// makes of them, the handler must answer or refuse, never panic. Run longer
// with
//
//	go test ./internal/nfs -run '^$' -fuzz FuzzServerHandleNoPanic -fuzztime 30s
func FuzzServerHandleNoPanic(f *testing.F) {
	rec := &recorder{srv: fuzzServer(f)}
	c := NewClient(rec, "cli")
	root := rec.srv.Root()
	dir, _, _, _ := c.Lookup("srv", root, "d")
	file, _, _, _ := c.Lookup("srv", dir, "f")
	link, _, _, _ := c.Lookup("srv", dir, "l")
	size := int64(4)
	c.Null("srv")
	c.MountRoot("srv")
	c.Getattr("srv", file)
	c.Setattr("srv", file, localfs.SetAttr{Size: &size})
	c.Walk("srv", root, "/d/l", 0)
	c.Walk("srv", root, "/d/f", 1<<20) // a reading walk: readMax after the components
	c.Access("srv", dir, AccessLookup|AccessRead)
	c.Readlink("srv", link)
	c.Read("srv", file, 1, 2)
	c.Write("srv", file, 2, []byte("xy"))
	c.Create("srv", dir, "g", 0o644, true)
	c.Mkdir("srv", dir, "sub", 0o755)
	c.Symlink("srv", dir, "l2", "g")
	c.Rename("srv", dir, "g", dir, "h")
	c.Remove("srv", dir, "h")
	c.Rmdir("srv", dir, "sub")
	c.Readdir("srv", dir, 0, 2)
	c.ReaddirPlus("srv", dir, 0, 2)
	c.FSStat("srv", root)
	c.FSInfo("srv", root)
	c.ReadStream("srv", file, 0, 2, 2)
	seen := map[Proc]bool{}
	for _, req := range rec.reqs {
		seen[Proc(wire.NewDecoder(req).Uint32())] = true
		f.Add(req)
	}
	for _, p := range namedProcs() {
		if !seen[p] {
			f.Fatalf("no seed request for %s", p)
		}
	}
	// The retired WRITEBATCH frame (proc 41: xid, handle, two spans) stays in
	// the corpus: a retired number is refused like any unknown one.
	e := wire.NewEncoder(64)
	e.PutUint32(41)
	e.PutUint64(1)
	putHandle(e, file)
	PutWriteSpans(e, []WriteSpan{{Offset: 0, Data: []byte("ab")}, {Offset: 6, Data: []byte("cd")}})
	if resp, _, _ := rec.srv.Handle("cli", e.Bytes()); Status(wire.NewDecoder(resp).Uint32()) != ErrInval {
		f.Fatalf("retired proc 41 answered %x, want NFS3ERR_INVAL", resp)
	}
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, req []byte) {
		srv := fuzzServer(t)
		resp, _, err := srv.Handle("fuzz", req)
		if err != nil || len(resp) < 4 {
			t.Fatalf("Handle(%x) = %x, %v: every request gets a status word", req, resp, err)
		}
	})
}

// TestLookupPathBoundsItsComponentCount: the count word is checked against
// MaxPathComponents and against the bytes that follow it before any name is
// decoded, so neither a huge count nor a count the frame cannot hold makes
// the server do work.
func TestLookupPathBoundsItsComponentCount(t *testing.T) {
	srv := fuzzServer(t)
	request := func(count uint32, names int) []byte {
		e := wire.NewEncoder(0)
		e.PutUint32(uint32(ProcLookupPath))
		e.PutUint64(1)
		putHandle(e, srv.Root())
		e.PutUint32(count)
		for i := 0; i < names; i++ {
			e.PutString("d")
		}
		return e.Bytes()
	}
	status := func(req []byte) (Status, simnet.Cost) {
		resp, cost, err := srv.Handle("cli", req)
		if err != nil {
			t.Fatal(err)
		}
		return Status(wire.NewDecoder(resp).Uint32()), cost
	}
	if st, _ := status(request(1, 1)); st != OK {
		t.Fatalf("a well-formed request: %v", st)
	}
	for name, req := range map[string][]byte{
		"count beyond the frame":     request(1000, 1),
		"count beyond the constant":  request(MaxPathComponents+1, MaxPathComponents+1),
		"count beyond wire.MaxItems": request(1<<31, 0),
	} {
		if st, cost := status(req); st != ErrInval || cost != 0 {
			t.Errorf("%s: status %v cost %v, want NFS3ERR_INVAL before any disk access", name, st, cost)
		}
	}
	huge := request(wire.MaxItems, 1)
	if n := testing.AllocsPerRun(100, func() { srv.Handle("cli", huge) }); n > 4 {
		t.Errorf("refusing a count of %d allocates %.0f times, want the error reply alone", wire.MaxItems, n)
	}
}
