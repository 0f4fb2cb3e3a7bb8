package nfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// recorder is a transport that delivers to one server and keeps every
// request frame, joined, with the split of the one body it lends and the
// room of the sink it lends, so the fuzz corpus is seeded with exactly what
// Client puts on the wire for each procedure and hands the server in
// process.
type recorder struct {
	srv  *Server
	reqs []recorded
}

type recorded struct {
	req  []byte
	lend uint32 // lendSplit's argument
	sink uint32 // withSink's argument
}

func (r *recorder) CallCtx(_ obs.TraceContext, from, _ simnet.Addr, _ string, req []byte) ([]byte, simnet.Cost, error) {
	f := wire.FrameOf(req)
	rec := recorded{req: f.AppendTo(nil)}
	for _, l := range f.Lent {
		if len(l.Body) == 0 {
			rec.sink = uint32(cap(l.Body)) + 1
		} else {
			rec.lend = uint32(l.At)<<16 | uint32(len(l.Body))
		}
	}
	r.reqs = append(r.reqs, rec)
	return r.srv.Handle(from, req)
}

// withSink returns f lending a sink of sink-1 bytes of room, at most 64 KiB,
// as ReadInto lends its destination's spare capacity; sink = 0 lends none,
// and neither does a frame with no head to lend it from.
func withSink(f wire.Frame, sink uint32) (wire.Frame, []byte) {
	if sink == 0 || len(f.Head) == 0 {
		return f, nil
	}
	room := make([]byte, 0, min(sink-1, 64<<10))
	f.Lent = append(f.Lent[:len(f.Lent):len(f.Lent)], wire.Lent{At: len(f.Head), Body: room})
	return f, room
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

// fuzzServer is a small export with one of each kind of object. The store
// has a quota, as a contributed store does: a hostile WRITE far past the end
// is refused instead of allocated.
func fuzzServer(t testing.TB) *Server {
	fs := localfs.New(1<<20, simnet.Disk7200)
	if err := fs.WriteFile("/d/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/one", []byte("1")); err != nil {
		t.Fatal(err)
	}
	symlink(t, fs, "/d", "l", "f")
	return NewServer(fs, 1)
}

// FuzzServerHandleNoPanic drives arbitrary bytes through Server.Handle, the
// decoder a daemon exposes to the network, split by lend into a head and a
// lent body as an in-process client lends a WRITE's data (lendSplit), and
// lending a sink of sink-1 bytes as an in-process READ does (withSink). The
// seed corpus holds one valid request per procedure, the WRITE also as the
// client lends it, READs lending a sink of no room, of less than the count
// and of the count, READs of nothing, of a readahead window and of the
// largest count, and the retired numbers' frames; whatever the mutator makes
// of them, the handler must answer or refuse, never panic, and a reply body
// it lends lies in the sink. Run longer with
//
//	go test ./internal/nfs -run '^$' -fuzz FuzzServerHandleNoPanic -fuzztime 30s
func FuzzServerHandleNoPanic(f *testing.F) {
	rec := &recorder{srv: fuzzServer(f)}
	c := NewClient(rec, "cli")
	root := rec.srv.Root()
	dir, _, _, _ := c.Lookup("srv", root, "d")
	file, _, _, _ := c.Lookup("srv", dir, "f")
	link, _, _, _ := c.Lookup("srv", dir, "l")
	c.MountRoot("srv")
	c.Getattr("srv", file)
	c.Walk("srv", root, "/d/l", 0)
	c.Walk("srv", root, "/d/f", 1<<20) // a reading walk: readMax after the components
	c.Readlink("srv", link)
	c.Read("srv", file, 1, 2)
	// READs lending a sink of no room, of less than the window and of
	// exactly the count.
	for _, room := range []int{0, 1, 2} {
		c.ReadInto("srv", file, 1, 2, make([]byte, 0, room))
	}
	c.Write("srv", file, 2, []byte("xy"))
	c.Create("srv", dir, "g", 0o644, true)
	c.Mkdir("srv", dir, "sub", 0o755)
	c.Rename("srv", dir, "g", dir, "h")
	c.Remove("srv", dir, "h")
	c.Rmdir("srv", dir, "sub")
	c.ReaddirPlus("srv", dir, 0, 2)
	c.FSStat("srv", root)
	c.Read("srv", file, 0, 4<<20) // a readahead window's count: four units
	c.Read("srv", file, 0, 0)
	// The largest count a READ can name, from offset 0 of a file of several
	// bytes: the store sizes the reply by the bytes left.
	if data, eof, _, err := c.Read("srv", file, 0, 1<<32-1); err != nil || string(data) != "01xy456789" || !eof {
		f.Fatalf("a READ of 2^32-1 bytes on a 10-byte file: %q eof=%v err=%v", data, eof, err)
	}
	// The largest count, against a 1-byte file: the reply is sized by the
	// byte the store returns.
	one, err := rec.srv.FS().LookupPath("/d/one")
	if err != nil {
		f.Fatal(err)
	}
	if data, eof, _, err := c.Read("srv", Handle{Gen: root.Gen, Ino: one.Ino}, 0, 1<<32-1); err != nil || string(data) != "1" || !eof {
		f.Fatalf("a READ of 2^32-1 bytes on a 1-byte file: %q eof=%v err=%v", data, eof, err)
	}
	seen := map[Proc]bool{}
	lent, sinks := 0, 0
	for _, r := range rec.reqs {
		seen[Proc(wire.NewDecoder(r.req).Uint32())] = true
		f.Add(r.req, uint32(0), uint32(0))
		if r.lend != 0 {
			f.Add(r.req, r.lend, uint32(0))
			lent++
		}
		if r.sink != 0 {
			f.Add(r.req, uint32(0), r.sink)
			sinks++
		}
	}
	if lent != 1 || sinks != 3 {
		f.Fatalf("%d recorded requests lend a body and %d a sink, want 1 (the WRITE) and 3 (the READs into a sink)", lent, sinks)
	}
	for _, p := range namedProcs() {
		if !seen[p] {
			f.Fatalf("no seed request for %s", p)
		}
	}
	// The retired frames stay in the corpus, each refused like any unknown
	// number.
	for _, proc := range retiredProcs {
		req := retiredRequest(f, rec.srv, proc)
		if resp, _, _ := rec.srv.Handle("cli", req); Status(wire.NewDecoder(resp).Uint32()) != ErrInval {
			f.Fatalf("retired proc %d answered %x, want NFS3ERR_INVAL", proc, resp)
		}
		f.Add(req, uint32(0), uint32(0))
	}

	f.Fuzz(func(t *testing.T, req []byte, lend, sink uint32) {
		srv := fuzzServer(t)
		frame, room := withSink(lendSplit(req, lend), sink)
		head := wire.Lend(frame)
		resp, _, err := srv.Handle("fuzz", head)
		reply := wire.ReplyOf(head, resp)
		wire.EndLend(frame)
		if err != nil || reply.Len() < 4 {
			t.Fatalf("Handle(%x) = %x, %v: every request gets a status word", req, resp, err)
		}
		for _, l := range reply.Lent {
			if len(l.Body) > cap(room) || &l.Body[0] != &room[:1][0] {
				t.Fatalf("Handle(%x) lent a %d-byte reply body outside the %d-byte sink", req, len(l.Body), cap(room))
			}
		}
	})
}

// retiredProcs are the numbers the server does not define whose frames the
// corpus keeps: SETATTR (2), SYMLINK (10) and READDIR (16), which nothing
// sends since every mutation between nodes is a kosha apply and a listing a
// READDIRPLUS; READSTREAM (40) and WRITEBATCH (41); and NULL (0), ACCESS (4)
// and FSINFO (19), which Kosha never sent.
var retiredProcs = []Proc{2, 10, 16, 40, 41, 0, 4, 19}

// retiredRequest is a frame of proc, xid 1, laid out as its sender did: a
// SETATTR's handle and setattr record, a SYMLINK's directory handle, name
// and target, a READDIR's directory handle, cookie and count, READSTREAM's
// handle, offset and a window of 2^32-1 chunks of 2^32-1 bytes,
// WRITEBATCH's handle and two spans, ACCESS's handle and mask, FSINFO's
// handle, and NULL's xid alone. Its handles name fuzzServer's objects.
func retiredRequest(t testing.TB, srv *Server, proc Proc) []byte {
	handle := func(p string) Handle {
		a, err := srv.FS().LookupPath(p)
		if err != nil {
			t.Fatal(err)
		}
		return Handle{Gen: srv.Root().Gen, Ino: a.Ino}
	}
	dir, file := handle("/d"), handle("/d/f")
	e := wire.NewEncoder(64)
	e.PutUint32(uint32(proc))
	e.PutUint64(1)
	switch proc {
	case 2:
		size := int64(4)
		putHandle(e, file)
		PutSetAttr(e, localfs.SetAttr{Size: &size})
	case 10:
		putHandle(e, dir)
		e.PutString("l2")
		e.PutString("g")
	case 16:
		putHandle(e, dir)
		e.PutUint64(0)
		e.PutUint32(2)
	case 40:
		putHandle(e, file)
		e.PutInt64(0)
		e.PutUint32(1<<32 - 1)
		e.PutUint32(1<<32 - 1)
	case 41:
		putHandle(e, file)
		PutWriteSpans(e, []WriteSpan{{Offset: 0, Data: []byte("ab")}, {Offset: 6, Data: []byte("cd")}})
	case 4:
		putHandle(e, dir)
		e.PutUint32(0x03)
	case 19:
		putHandle(e, srv.Root())
	}
	return e.Frame().AppendTo(nil)
}

// TestRetiredProcsAreRefused: a request numbered SETATTR, SYMLINK, READDIR
// or any other retired procedure gets the unknown-procedure reply, the bare
// NFS3ERR_INVAL word, at no disk cost, and changes nothing: the store is as
// it was, and the duplicate-request cache records nothing, so a
// retransmission is refused again rather than replayed.
func TestRetiredProcsAreRefused(t *testing.T) {
	srv := fuzzServer(t)
	before, err := srv.FS().ReadFile("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range retiredProcs {
		req := retiredRequest(t, srv, proc)
		for try := 0; try < 2; try++ {
			resp, cost, err := srv.Handle("cli", req)
			if err != nil || !bytes.Equal(resp, srv.fail(ErrInval)) || cost != 0 {
				t.Fatalf("%s (try %d) = %x cost %v err %v, want the bare NFS3ERR_INVAL word at no cost", proc, try, resp, cost, err)
			}
		}
	}
	if n := len(srv.drc); n != 0 || srv.Replays() != 0 {
		t.Fatalf("the duplicate-request cache holds %d replies and replayed %d, want none", n, srv.Replays())
	}
	if _, err := srv.FS().LookupPath("/d/l2"); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatalf("a refused SYMLINK left /d/l2 behind: %v", err)
	}
	if after, err := srv.FS().ReadFile("/d/f"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("/d/f is %q after the refused requests (err=%v), was %q", after, err, before)
	}
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
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() { srv.Handle("cli", huge) }); n > 4 {
		t.Errorf("refusing a count of %d allocates %.0f times, want the error reply alone", wire.MaxItems, n)
	}
}
