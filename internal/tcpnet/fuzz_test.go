package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// streamConn is a net.Conn over in-memory streams, for running the framing
// without a socket: reads come from r, writes go to w, deadlines are
// accepted and ignored. Nothing else of net.Conn is implemented.
type streamConn struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (s streamConn) Read(p []byte) (int, error)     { return s.r.Read(p) }
func (s streamConn) Write(p []byte) (int, error)    { return s.w.Write(p) }
func (streamConn) SetDeadline(time.Time) error      { return nil }
func (streamConn) SetReadDeadline(time.Time) error  { return nil }
func (streamConn) SetWriteDeadline(time.Time) error { return nil }

// wireBytes returns what one request puts on a connection — length word and
// envelope — by running the client half of a real exchange on the frame req
// carries.
func wireBytes(t testing.TB, ctx obs.TraceContext, service string, req []byte) []byte {
	var sent bytes.Buffer
	l := &link{c: streamConn{r: bytes.NewReader(nil), w: &sent}}
	Dialer("client", simnet.LAN100).exchange(l, ctx, service, wire.FrameOf(req)) // fails reading the reply: there is none
	if sent.Len() == 0 {
		t.Fatal("the request was not written")
	}
	return sent.Bytes()
}

// within reports whether p lies inside frame, as a slice decoded in place does.
func within(p, frame []byte) bool {
	if len(p) == 0 {
		return true
	}
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p))) - uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	return at <= uintptr(len(frame)-len(p))
}

// FuzzFrameNoPanic feeds arbitrary bytes to what a listening koshad runs on
// everything a connection delivers, before any handler sees it: the frame
// reader, the in-place envelope decoder and the service resolution. Whatever
// arrives is a frame or an error, never a panic. A request that opens is
// from, service and request bytes inside its frame; it reaches the
// registered "echo" handler, which hands back the very bytes it borrowed, or
// is refused as no such service. Memory is reserved for bytes that arrived,
// not for the length a header claims — a header may promise maxFrame
// (96 MiB), the reader commits at most frameStep beyond what it has actually
// read — and opening an envelope allocates nothing.
// Run longer with
//
//	go test ./internal/tcpnet -run '^$' -fuzz FuzzFrameNoPanic -fuzztime 30s
func FuzzFrameNoPanic(f *testing.F) {
	f.Add(wireBytes(f, obs.TraceContext{}, "echo", []byte("hi")))
	f.Add(wireBytes(f, obs.TraceContext{Hi: 1, Lo: 2, Span: 3}, "kosha", make([]byte, 32<<10)))
	f.Add(wireBytes(f, obs.TraceContext{}, "", nil))
	f.Add(wireBytes(f, obs.TraceContext{}, "echo", nil))            // a zero-length request
	f.Add(wireBytes(f, obs.TraceContext{}, "ghost", []byte("boo"))) // an unregistered service
	f.Add(append(wireBytes(f, obs.TraceContext{}, "echo", []byte("one")), wireBytes(f, obs.TraceContext{}, "echo", []byte("two"))...))
	overrun := wireBytes(f, obs.TraceContext{}, "echo", []byte("hi"))
	binary.BigEndian.PutUint32(overrun[len(overrun)-8:], 1<<20) // the request's length word: past the frame's end
	f.Add(overrun)
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))     // a header and nothing else
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))   // over the limit
	f.Add(append(binary.BigEndian.AppendUint32(nil, 8), 1)) // a short frame

	srv := Dialer("server", simnet.LAN100)
	srv.Register(srv.Addr(), "echo", func(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) { return req, 0, nil })
	f.Fuzz(func(t *testing.T, data []byte) {
		type opened struct {
			frame []byte
			env   envelope
		}
		l := &link{c: streamConn{r: bytes.NewReader(data)}}
		reqs := make([]opened, 0, len(data)/40+1) // a request frame is 40 bytes at least
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for read := 0; ; {
			frame, err := l.recv()
			if err != nil {
				break
			}
			if want := data[read+4 : read+4+len(frame)]; !bytes.Equal(frame, want) {
				t.Fatalf("frame is not the %d bytes after its header", len(frame))
			}
			read += 4 + len(frame)
			env, err := decodeRequest(frame)
			if err != nil {
				break // the server hangs up on an envelope it cannot open
			}
			reqs = append(reqs, opened{frame, env})
		}
		runtime.ReadMemStats(&after)
		// Geometric growth holds at most twice the bytes read plus the first
		// step; the envelope is opened in place.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(frameStep+64<<10+2*len(data)); got > limit {
			t.Fatalf("%d bytes on the wire allocated %d (limit %d)", len(data), got, limit)
		}
		for _, r := range reqs {
			if !within(r.env.from, r.frame) || !within(r.env.service, r.frame) || !within(r.env.req, r.frame) {
				t.Fatalf("a %d-byte envelope yielded a %d-byte request outside it", len(r.frame), len(r.env.req))
			}
			resp, _, err := serve(srv, r.env.ctx, simnet.Addr(r.env.from), r.env.service, r.env.req)
			if string(r.env.service) != "echo" {
				if !errors.Is(err, simnet.ErrNoSuchService) {
					t.Fatalf("service %q: err = %v, want ErrNoSuchService", r.env.service, err)
				}
				continue
			}
			if err != nil || len(resp) != len(r.env.req) || !within(resp, r.frame) {
				t.Fatalf("echo of %d request bytes: %d bytes, err = %v, want the request borrowed", len(r.env.req), len(resp), err)
			}
		}
	})
}

// TestRecvGrowsPastFirstStep: a frame larger than frameStep is read through
// several growth steps and comes out byte for byte, the bytes after it left
// on the stream.
func TestRecvGrowsPastFirstStep(t *testing.T) {
	want := make([]byte, 2*frameStep+frameStep/4+3)
	for i := range want {
		want[i] = byte(i * 2654435761 >> 24)
	}
	stream := bytes.NewBuffer(binary.BigEndian.AppendUint32(nil, uint32(len(want))))
	stream.Write(want)
	stream.WriteString("next frame")
	got, err := (&link{c: streamConn{r: stream}}).recv()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d of %d bytes, err=%v", len(got), len(want), err)
	}
	if stream.String() != "next frame" {
		t.Fatalf("reader consumed past its frame: %d bytes left", stream.Len())
	}
}
