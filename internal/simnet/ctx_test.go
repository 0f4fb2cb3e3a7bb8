package simnet

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// testSink records every server span the transport hands it and hands out
// sequential span ids.
type testSink struct {
	mu   sync.Mutex
	next uint64
	recs []obs.Span
}

func (s *testSink) NextSpanID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return s.next
}

func (s *testSink) RecordServerSpan(ctx obs.TraceContext, span uint64, service string, from Addr, req []byte, cost Cost, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := obs.Span{Hi: ctx.Hi, Lo: ctx.Lo, Parent: ctx.Span, ID: span, Name: service, From: string(from), DurNS: int64(cost)}
	if err != nil {
		rec.Err = err.Error()
	}
	s.recs = append(s.recs, rec)
}

func (s *testSink) spans() []obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Span(nil), s.recs...)
}

func TestCallCtxPropagatesAndRecordsServerSpan(t *testing.T) {
	n := New(LAN100)
	n.AddNode("a")
	n.AddNode("b")
	sink := &testSink{}
	n.SetSpanSink("b", sink)

	var handlerCtx obs.TraceContext
	n.RegisterCtx("b", "svc", func(ctx obs.TraceContext, from Addr, req []byte) ([]byte, Cost, error) {
		handlerCtx = ctx
		return []byte("ok"), Cost(5), nil
	})

	parent := obs.TraceContext{Hi: 11, Lo: 22, Span: 33}
	if _, _, err := n.CallCtx(parent, "a", "b", "svc", []byte("req")); err != nil {
		t.Fatal(err)
	}
	recs := sink.spans()
	if len(recs) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(recs))
	}
	r := recs[0]
	if r.Hi != 11 || r.Lo != 22 || r.Parent != 33 {
		t.Fatalf("span not parented under caller context: %+v", r)
	}
	if r.ID == 0 || r.From != "a" || r.DurNS != 5 {
		t.Fatalf("span fields: %+v", r)
	}
	// The handler saw the same trace re-parented under the server span, so its
	// nested RPCs descend from this exchange.
	if handlerCtx.Hi != 11 || handlerCtx.Lo != 22 || handlerCtx.Span != r.ID {
		t.Fatalf("handler ctx = %+v, want child of span %d", handlerCtx, r.ID)
	}
}

func TestCallCtxZeroContextSkipsSink(t *testing.T) {
	n := New(LAN100)
	n.AddNode("a")
	n.AddNode("b")
	sink := &testSink{}
	n.SetSpanSink("b", sink)
	n.RegisterCtx("b", "svc", func(ctx obs.TraceContext, from Addr, req []byte) ([]byte, Cost, error) {
		if ctx.Valid() {
			t.Errorf("handler received a fabricated context: %+v", ctx)
		}
		return nil, 0, nil
	})
	// Plain Call and zero-context CallCtx both stay untraced.
	if _, _, err := n.Call("a", "b", "svc", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.CallCtx(obs.TraceContext{}, "a", "b", "svc", nil); err != nil {
		t.Fatal(err)
	}
	if got := sink.spans(); len(got) != 0 {
		t.Fatalf("untraced calls recorded %d spans", len(got))
	}
}

func TestDupFaultRecordsSingleServerSpan(t *testing.T) {
	n := New(LAN100)
	n.AddNode("a")
	n.AddNode("b")
	sink := &testSink{}
	n.SetSpanSink("b", sink)
	calls := 0
	n.RegisterCtx("b", "svc", func(ctx obs.TraceContext, from Addr, req []byte) ([]byte, Cost, error) {
		calls++
		return nil, 0, nil
	})
	n.SetFaults(func(from, to Addr, service string) LinkFault { return LinkFault{Dup: true} })

	if _, _, err := n.CallCtx(obs.TraceContext{Hi: 1, Lo: 2, Span: 3}, "a", "b", "svc", nil); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + retransmit)", calls)
	}
	// The duplicate is the same logical exchange: exactly one server span, so
	// DRC-deduplicated replays cannot double-count in the assembled tree.
	if got := sink.spans(); len(got) != 1 {
		t.Fatalf("dup fault recorded %d spans, want 1", len(got))
	}
}
