package nfs

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// joinedTap delivers every call to one server and keeps each exchange as
// the wire would carry it: the joined request frame and the joined reply.
type joinedTap struct {
	srv       *Server
	req, resp [][]byte
}

func (j *joinedTap) CallCtx(_ obs.TraceContext, from, _ simnet.Addr, _ string, req []byte) ([]byte, simnet.Cost, error) {
	resp, cost, err := j.srv.Handle(from, req)
	j.req = append(j.req, wire.FrameOf(req).AppendTo(nil))
	j.resp = append(j.resp, wire.ReplyOf(req, resp).AppendTo(nil))
	return resp, cost, err
}

// sinkRig is a server holding one file of size bytes, 0, 1, 2, ... in each
// byte, and a client that reaches it through a joinedTap.
func sinkRig(t *testing.T, size int) (*joinedTap, Client, Handle, []byte) {
	t.Helper()
	_, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, _, err := c.Write("srv", fh, 0, payload); err != nil {
		t.Fatal(err)
	}
	tap := &joinedTap{srv: srv}
	return tap, NewClient(tap, "cli"), fh, payload
}

// TestReadIntoFillsTheSink: a READ that lends a sink with room for the
// bytes gets them in the caller's buffer, after what it held; one whose sink
// is too small, or has no room, gets the flat reply, appended. Either way
// the request (its xid aside) and the reply are byte for byte a plain
// Read's, and the client counts the same bytes.
func TestReadIntoFillsTheSink(t *testing.T) {
	const size, count = 40 << 10, 32 << 10
	tap, c, fh, payload := sinkRig(t, size)
	for _, tc := range []struct {
		name     string
		off      int64
		room     int
		inPlace  bool
		wantData []byte
	}{
		{"room for count", 0, count, true, payload[:count]},
		{"room for the bytes left", count, size - count, true, payload[count:]},
		{"room short of the window", 0, count - 1, false, payload[:count]},
		{"no room", 0, 0, false, payload[:count]},
	} {
		tap.req, tap.resp = nil, nil
		before := c.Stats()
		flat, feof, _, err := c.Read("srv", fh, tc.off, count)
		if err != nil || !bytes.Equal(flat, tc.wantData) {
			t.Fatalf("%s: Read %d bytes err=%v", tc.name, len(flat), err)
		}
		plain := c.Stats().Sub(before)
		dst := append(make([]byte, 0, 3+tc.room), "abc"...)
		before = c.Stats()
		got, eof, _, err := c.ReadInto("srv", fh, tc.off, count, dst)
		if err != nil || eof != feof || string(got[:3]) != "abc" || !bytes.Equal(got[3:], tc.wantData) {
			t.Fatalf("%s: ReadInto %d bytes eof=%v err=%v", tc.name, len(got), eof, err)
		}
		if inPlace := &got[0] == &dst[0]; inPlace != tc.inPlace {
			t.Errorf("%s: data in the caller's buffer %v, want %v", tc.name, inPlace, tc.inPlace)
		}
		if !bytes.Equal(withoutXID(tap.req[0]), withoutXID(tap.req[1])) || !bytes.Equal(tap.resp[0], tap.resp[1]) {
			t.Errorf("%s: the exchange differs from a plain Read's on the wire", tc.name)
		}
		if into := c.Stats().Sub(before); into != plain {
			t.Errorf("%s: ReadInto counted %+v, Read %+v", tc.name, into, plain)
		}
	}
}

// withoutXID is a request frame less its transaction id, the one word two
// calls of the same procedure with the same arguments differ in.
func withoutXID(req []byte) []byte { return append(req[:4:4], req[12:]...) }

// TestSimnetChargesTheJoinedReply: over simnet a READ whose data the server
// put in the sink costs, and counts, exactly what the flat READ does.
func TestSimnetChargesTheJoinedReply(t *testing.T) {
	net, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Write("srv", fh, 0, make([]byte, 32<<10)); err != nil {
		t.Fatal(err)
	}
	before := net.Stats()
	_, _, flatCost, err := c.Read("srv", fh, 0, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	flat := net.Stats()
	got, _, sinkCost, err := c.ReadInto("srv", fh, 0, 32<<10, make([]byte, 0, 32<<10))
	if err != nil || len(got) != 32<<10 {
		t.Fatalf("ReadInto: %d bytes err=%v", len(got), err)
	}
	after := net.Stats()
	if flatCost != sinkCost || after.Bytes-flat.Bytes != flat.Bytes-before.Bytes || after.Messages-flat.Messages != 1 {
		t.Errorf("the sink READ cost %v and %d bytes, the flat one %v and %d", sinkCost, after.Bytes-flat.Bytes, flatCost, flat.Bytes-before.Bytes)
	}
}

// TestDuplicateReadLeavesTheSinkToTheFirst: under LinkFault.Dup the READ is
// delivered twice, and a write lands between the two deliveries. The first
// delivery takes the sink; the second finds it taken and replies flat, with
// the new bytes, to nobody. dst holds exactly what the first reply's head
// describes.
func TestDuplicateReadLeavesTheSinkToTheFirst(t *testing.T) {
	net, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, 32<<10)
	if _, _, err := c.Write("srv", fh, 0, old); err != nil {
		t.Fatal(err)
	}
	deliveries := 0
	net.RegisterCtx("srv", Service, func(_ obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		resp, cost, err := srv.Handle(from, req)
		if deliveries++; deliveries == 1 {
			if _, _, err := srv.FS().Write(fh.Ino, 0, bytes.Repeat([]byte{0xBB}, 40<<10)); err != nil {
				t.Error(err)
			}
		}
		return resp, cost, err
	})
	net.SetFaults(func(_, _ simnet.Addr, _ string) simnet.LinkFault { return simnet.LinkFault{Dup: true} })
	dst := make([]byte, 0, 40<<10)
	got, eof, _, err := c.ReadInto("srv", fh, 0, 40<<10, dst)
	if err != nil || deliveries != 2 {
		t.Fatalf("ReadInto: err=%v after %d deliveries", err, deliveries)
	}
	if !eof || !bytes.Equal(got, old) || &got[0] != &dst[:1][0] {
		t.Fatalf("dst holds %d bytes (eof %v), want the first reply's %d bytes of 0xAA in place", len(got), eof, len(old))
	}
	if rest := dst[len(old):cap(dst)]; bytes.Count(rest, []byte{0}) != len(rest) {
		t.Error("the duplicate delivery wrote the sink past the first reply's bytes")
	}
}

// hostileRead answers every call with a flat READ reply carrying n bytes of
// 0x5A, whatever the count.
type hostileRead struct{ n int }

func (h hostileRead) CallCtx(_ obs.TraceContext, _, _ simnet.Addr, _ string, _ []byte) ([]byte, simnet.Cost, error) {
	e := wire.NewEncoder(0)
	e.PutUint32(uint32(OK))
	e.PutBool(true)
	e.PutOpaque(bytes.Repeat([]byte{0x5A}, h.n))
	return e.Bytes(), 0, nil
}

// TestReadIntoRefusesALongReply: a flat reply whose opaque is longer than the
// count asked for is a bad reply, whether or not a sink was lent, and
// nothing is written into the caller's buffer; a reply within the count but
// longer than the sink's room is appended into a grown buffer, leaving the
// caller's storage as it was.
func TestReadIntoRefusesALongReply(t *testing.T) {
	const count = 100
	buf := bytes.Repeat([]byte{0xEE}, 2*count)
	dst := buf[:10:count]
	for _, n := range []int{count + 1, 2 * count} {
		c := NewClient(hostileRead{n: n}, "cli")
		if got, _, _, err := c.ReadInto("srv", Handle{Gen: 1, Ino: 2}, 0, count, dst); err == nil || len(got) != len(dst) {
			t.Errorf("a %d-byte reply to a count of %d: %d bytes, err=%v, want a bad reply", n, count, len(got), err)
		}
		if _, _, _, err := c.Read("srv", Handle{Gen: 1, Ino: 2}, 0, count); err == nil {
			t.Errorf("Read took a %d-byte reply to a count of %d", n, count)
		}
	}
	if bytes.Count(buf, []byte{0xEE}) != len(buf) {
		t.Fatal("a refused reply wrote into the caller's buffer")
	}
	c := NewClient(hostileRead{n: count}, "cli")
	got, _, _, err := c.ReadInto("srv", Handle{Gen: 1, Ino: 2}, 0, count, dst)
	if err != nil || len(got) != 10+count || bytes.Count(got[10:], []byte{0x5A}) != count {
		t.Fatalf("a reply within the count: %d bytes err=%v", len(got), err)
	}
	if bytes.Count(buf, []byte{0xEE}) != len(buf) {
		t.Fatal("a reply longer than the room was written past the caller's storage")
	}
}

// cannedReply answers every call with the same reply bytes.
type cannedReply []byte

func (r cannedReply) CallCtx(_ obs.TraceContext, _, _ simnet.Addr, _ string, _ []byte) ([]byte, simnet.Cost, error) {
	return append([]byte(nil), r...), 0, nil
}

// TestWindowRefusesABadReply: a readahead window is a READ of the window's
// byte count, so it gets READ's reply checks. A reply cut short of the
// length its opaque declares, or one that carries more than the window, is
// a bad reply, with a sink lent or without. READSTREAM, which fetched
// windows before, took the first as an empty window and the second whole,
// both without an error.
func TestWindowRefusesABadReply(t *testing.T) {
	const window = 4 << 20
	reply := func(n int) []byte {
		e := wire.NewEncoder(0)
		e.PutUint32(uint32(OK))
		e.PutBool(false)
		e.PutOpaque(make([]byte, n))
		return e.Bytes()
	}
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"a reply cut short", reply(window)[:4+4+4+1000]}, // status, eof, length and 1000 bytes
		{"a reply past the window", reply(window + 1)},
	} {
		c := NewClient(cannedReply(tc.reply), "cli")
		for _, dst := range [][]byte{nil, make([]byte, 0, window)} {
			data, _, _, err := c.ReadInto("srv", Handle{Gen: 1, Ino: 2}, 0, window, dst)
			if err == nil || !strings.Contains(err.Error(), "bad reply") || len(data) != 0 {
				t.Errorf("%s to a %d-byte window (sink %v): %d bytes err=%v, want a bad reply",
					tc.name, window, dst != nil, len(data), err)
			}
		}
	}
}

// TestReadIntoAllocs: a 32 KiB READ into a sink allocates the server's reply
// codec, 416 bytes end to end, where a plain Read allocates a reply frame the
// size of the data; the client's codec is a pooled one (832 bytes while every
// call allocated its own).
func TestReadIntoAllocs(t *testing.T) {
	_, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Write("srv", fh, 0, make([]byte, 32<<10)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 32<<10)
	read := func() {
		if got, _, _, err := c.ReadInto("srv", fh, 0, 32<<10, dst); err != nil || len(got) != 32<<10 || &got[0] != &dst[:1][0] {
			t.Fatalf("ReadInto: %d bytes err=%v", len(got), err)
		}
	}
	read()
	racetest.SkipAllocs(t)
	const reads = 100
	if per := allocatedBytes(func() {
		for i := 0; i < reads; i++ {
			read()
		}
	}) / reads; per > 416 {
		t.Errorf("a 32 KiB ReadInto allocated %d bytes end to end, want <= 416", per)
	}
}

// TestSinkReplyHead: the head of a reply whose data sits in the sink is the
// status, the eof word, the length word and the padding, nothing else.
func TestSinkReplyHead(t *testing.T) {
	tap, c, fh, _ := sinkRig(t, 7)
	var heads [][]byte
	c = NewClient(headTap{tap, &heads}, "cli")
	if got, _, _, err := c.ReadInto("srv", fh, 0, 32, make([]byte, 0, 32)); err != nil || len(got) != 7 {
		t.Fatalf("ReadInto: %d bytes err=%v", len(got), err)
	}
	want := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(OK)), 1), 7)
	if len(heads) != 1 || !bytes.Equal(heads[0], append(want, 0)) {
		t.Errorf("reply head %x, want %x00", heads, want)
	}
}

// headTap keeps the response slices as they cross the transport.
type headTap struct {
	*joinedTap
	heads *[][]byte
}

func (h headTap) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, svc string, req []byte) ([]byte, simnet.Cost, error) {
	resp, cost, err := h.joinedTap.CallCtx(ctx, from, to, svc, req)
	*h.heads = append(*h.heads, append([]byte(nil), resp...))
	return resp, cost, err
}
