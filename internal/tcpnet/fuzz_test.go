package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// wireBytes returns what one request puts on a connection — length header
// and envelope — by running the client half of a real exchange against a
// pipe.
func wireBytes(t testing.TB, ctx obs.TraceContext, service string, req []byte) []byte {
	cli, srv := net.Pipe()
	got := make(chan []byte)
	go func() {
		frame, err := readFrame(srv)
		srv.Close()
		if err != nil {
			frame = nil
		}
		got <- frame
	}()
	Dialer("client", simnet.LAN100).exchange(&conn{c: cli}, ctx, service, req) // fails reading the reply: srv hung up
	frame := <-got
	if frame == nil {
		t.Fatal("the request did not cross the pipe")
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...)
}

// FuzzFrameNoPanic feeds arbitrary bytes to what a listening koshad runs on
// everything a connection delivers, before any service sees it: the frame
// reader and the request-envelope decoder. Whatever arrives is a frame or an
// error, never a panic; and memory is reserved for bytes that arrived, not
// for the length a header claims — a header may promise maxFrame (96 MiB),
// the reader commits at most frameStep beyond what it has actually read.
// Run longer with
//
//	go test ./internal/tcpnet -run '^$' -fuzz FuzzFrameNoPanic -fuzztime 30s
func FuzzFrameNoPanic(f *testing.F) {
	f.Add(wireBytes(f, obs.TraceContext{}, "echo", []byte("hi")))
	f.Add(wireBytes(f, obs.TraceContext{Hi: 1, Lo: 2, Span: 3}, "kosha", make([]byte, 32<<10)))
	f.Add(wireBytes(f, obs.TraceContext{}, "", nil))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))     // a header and nothing else
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))   // over the limit
	f.Add(append(binary.BigEndian.AppendUint32(nil, 8), 1)) // a short frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame, err := readFrame(bytes.NewReader(data))
		if err == nil {
			if want := data[4 : 4+len(frame)]; !bytes.Equal(frame, want) {
				t.Fatalf("frame is not the %d bytes after the header", len(frame))
			}
			_, _, _, req, err := decodeRequest(frame)
			if err == nil && len(req) > len(frame) {
				t.Fatalf("a %d-byte envelope yielded a %d-byte request", len(frame), len(req))
			}
		}
		runtime.ReadMemStats(&after)
		// Geometric growth holds at most twice the bytes read plus the first
		// step; the envelope decoder copies the request once.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(frameStep+64<<10+4*len(data)); got > limit {
			t.Fatalf("%d bytes on the wire allocated %d (limit %d)", len(data), got, limit)
		}
	})
}

// TestReadFrameGrowsPastFirstStep: a frame larger than frameStep is read
// through several growth steps and comes out byte for byte.
func TestReadFrameGrowsPastFirstStep(t *testing.T) {
	want := make([]byte, 2*frameStep+frameStep/4+3)
	for i := range want {
		want[i] = byte(i * 2654435761 >> 24)
	}
	var wire bytes.Buffer
	if err := writeFrame(&wire, want); err != nil {
		t.Fatal(err)
	}
	wire.WriteString("next frame")
	got, err := readFrame(&wire)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d of %d bytes, err=%v", len(got), len(want), err)
	}
	if wire.String() != "next frame" {
		t.Fatalf("reader consumed past its frame: %d bytes left", wire.Len())
	}
}
