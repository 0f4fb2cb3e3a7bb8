package tcpnet

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/simnet"
)

type recSink struct {
	mu   sync.Mutex
	next uint64
	recs []obs.Span
}

func (s *recSink) NextSpanID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next += 100
	return s.next
}

func (s *recSink) RecordServerSpan(ctx obs.TraceContext, span uint64, service string, from simnet.Addr, req []byte, cost simnet.Cost, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, obs.Span{Hi: ctx.Hi, Lo: ctx.Lo, Parent: ctx.Span, ID: span, Name: service, From: string(from)})
}

// TestTraceContextCrossesWire proves the propagation header survives the TCP
// frame: the remote handler sees the caller's trace re-parented under the
// server span the remote sink allocated.
func TestTraceContextCrossesWire(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sink := &recSink{}
	srv.SetSpanSink(srv.Addr(), sink)

	ctxCh := make(chan obs.TraceContext, 1)
	srv.RegisterCtx(srv.Addr(), "echo", func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		ctxCh <- ctx
		return req, simnet.Cost(1), nil
	})

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	parent := obs.TraceContext{Hi: 0xdead, Lo: 0xbeef, Span: 7}
	if _, _, err := cli.CallCtx(parent, "client", srv.Addr(), "echo", []byte("hi")); err != nil {
		t.Fatal(err)
	}

	got := <-ctxCh
	if got.Hi != parent.Hi || got.Lo != parent.Lo {
		t.Fatalf("trace id mangled by framing: %+v", got)
	}
	if got.Span == parent.Span || got.Span == 0 {
		t.Fatalf("handler ctx not re-parented under a server span: %+v", got)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.recs) != 1 {
		t.Fatalf("server recorded %d spans, want 1", len(sink.recs))
	}
	r := sink.recs[0]
	if r.Hi != parent.Hi || r.Lo != parent.Lo || r.Parent != parent.Span || r.ID != got.Span {
		t.Fatalf("server span misfiled: %+v", r)
	}
	if r.From != "client" {
		t.Fatalf("From = %q", r.From)
	}
}

// TestZeroContextOverTCPStaysUntraced: plain Call must not fabricate spans.
func TestZeroContextOverTCPStaysUntraced(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sink := &recSink{}
	srv.SetSpanSink(srv.Addr(), sink)
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	if _, _, err := cli.Call("client", srv.Addr(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.recs) != 0 {
		t.Fatalf("untraced call recorded %d spans", len(sink.recs))
	}
}
