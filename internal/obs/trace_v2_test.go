package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceIDFormatParse(t *testing.T) {
	hi, lo := uint64(0x0123456789abcdef), uint64(0xfedcba9876543210)
	s := FormatTraceID(hi, lo)
	if len(s) != 32 {
		t.Fatalf("FormatTraceID length = %d, want 32 (%q)", len(s), s)
	}
	gh, gl, err := ParseTraceID(s)
	if err != nil || gh != hi || gl != lo {
		t.Fatalf("round trip: got (%x, %x) err=%v", gh, gl, err)
	}
	// Short form: fewer than 16 digits parse as a bare lo.
	gh, gl, err = ParseTraceID("beef")
	if err != nil || gh != 0 || gl != 0xbeef {
		t.Fatalf("short form: got (%x, %x) err=%v", gh, gl, err)
	}
	// 17 digits split across hi and lo.
	gh, gl, err = ParseTraceID("10000000000000002")
	if err != nil || gh != 1 || gl != 2 {
		t.Fatalf("17 digits: got (%x, %x) err=%v", gh, gl, err)
	}
	if _, _, err := ParseTraceID(strings.Repeat("f", 33)); err == nil {
		t.Fatal("33 digits accepted")
	}
	if _, _, err := ParseTraceID("xyz"); err == nil {
		t.Fatal("non-hex accepted")
	}
}

func TestTraceContextChildAndValid(t *testing.T) {
	var zero TraceContext
	if zero.Valid() {
		t.Fatal("zero context reports valid")
	}
	c := TraceContext{Hi: 1, Lo: 2, Span: 3}
	if !c.Valid() {
		t.Fatal("context not valid")
	}
	ch := c.Child(9)
	if ch.Hi != 1 || ch.Lo != 2 || ch.Span != 9 {
		t.Fatalf("Child = %+v", ch)
	}
}

func TestTracerSeededIDDeterminism(t *testing.T) {
	mk := func(seed uint64) []uint64 {
		tr := NewTracer(8)
		tr.SeedIDs(seed)
		var out []uint64
		for i := 0; i < 4; i++ {
			op := tr.Start("READ", "/p", "n")
			out = append(out, op.Hi, op.Lo, op.Span, tr.NextSpanID())
		}
		return out
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id %d differs across same-seed tracers: %x vs %x", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("id %d is zero — indistinguishable from no-trace", i)
		}
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical id streams")
	}
}

func TestSpanRingSpansFor(t *testing.T) {
	tr := NewTracer(4) // span ring = 4 * spanRingFactor = 16
	for i := 0; i < 10; i++ {
		tr.RecordSpan(Span{Hi: 1, Lo: 1, ID: uint64(i + 1), Name: "a"})
		tr.RecordSpan(Span{Hi: 2, Lo: 2, ID: uint64(i + 100), Name: "b"})
	}
	got := tr.SpansFor(1, 1)
	// 20 records through a 16-slot ring: the oldest 4 are gone; of the 16
	// retained, half belong to trace (1,1).
	if len(got) != 8 {
		t.Fatalf("SpansFor(1,1) = %d records, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].ID < got[i-1].ID {
			t.Fatalf("spans not oldest-first: %v", got)
		}
	}
	if len(tr.SpansFor(3, 3)) != 0 {
		t.Fatal("unknown trace returned spans")
	}
}

func TestSlowFlightRecorder(t *testing.T) {
	tr := NewTracer(2) // tiny main ring so chatter wraps it quickly
	tr.SetSlowThreshold(int64(time.Millisecond))

	slow := tr.Start("WRITE", "/slow", "n0")
	tr.Finish(slow, 5*time.Millisecond, nil)
	// Flood the main ring with fast ops.
	for i := 0; i < 10; i++ {
		tr.Finish(tr.Start("READ", "/fast", "n0"), time.Microsecond, nil)
	}
	got := tr.Slow(0)
	if len(got) != 1 || got[0].Path != "/slow" {
		t.Fatalf("Slow = %+v, want the one slow op", got)
	}
	// The main ring evicted it, but FindTrace still resolves via the recorder.
	if _, ok := tr.FindTrace(slow.Hi, slow.Lo); !ok {
		t.Fatal("slow trace evicted despite flight recorder")
	}
	// Below-threshold ops never enter the recorder.
	if len(tr.Slow(0)) != 1 {
		t.Fatal("fast ops leaked into the slow ring")
	}
}

func TestAssembleTree(t *testing.T) {
	origin := &Trace{Hi: 7, Lo: 8, Span: 100, Node: "n0", Op: "WRITE"}
	frags := []Span{
		{Hi: 7, Lo: 8, Parent: 100, ID: 2, Name: "pastry.next-hop", Node: "n1"},
		{Hi: 7, Lo: 8, Parent: 100, ID: 1, Name: "nfs.WRITE", Node: "n2"},
		{Hi: 7, Lo: 8, Parent: 1, ID: 3, Name: "kosha.mirror", Node: "n3"},
		{Hi: 7, Lo: 8, Parent: 1, ID: 3, Name: "kosha.mirror", Node: "n3"}, // duplicate
		{Hi: 9, Lo: 9, Parent: 100, ID: 4, Name: "other-trace", Node: "n4"},
		{Hi: 7, Lo: 8, Parent: 999, ID: 5, Name: "orphan", Node: "n4"}, // evicted parent
	}
	at := Assemble(7, 8, origin, frags)
	if at.SpanCount != 4 {
		t.Fatalf("SpanCount = %d, want 4 (dedup + foreign filtered)", at.SpanCount)
	}
	// n0 (origin), n1, n2, n3, n4.
	if at.NodeCount != 5 {
		t.Fatalf("NodeCount = %d, want 5", at.NodeCount)
	}
	// Roots: spans 1, 2 (children of origin) and 5 (orphan), sorted by id.
	if len(at.Roots) != 3 || at.Roots[0].Span.ID != 1 || at.Roots[1].Span.ID != 2 || at.Roots[2].Span.ID != 5 {
		t.Fatalf("roots = %+v", at.Roots)
	}
	kids := at.Roots[0].Children
	if len(kids) != 1 || kids[0].Span.Name != "kosha.mirror" {
		t.Fatalf("children of serving span = %+v", kids)
	}
	var walked []uint64
	at.Walk(func(depth int, n *TraceNode) {
		if n.Span.ID == 3 && depth != 1 {
			t.Fatalf("mirror at depth %d", depth)
		}
		walked = append(walked, n.Span.ID)
	})
	if len(walked) != 4 {
		t.Fatalf("Walk visited %d nodes", len(walked))
	}
	// The origin's client-side stages are spans of the same type and join
	// the tree as children of the root span, beside the server spans.
	origin.AddSpan("route", "n1", time.Millisecond)
	origin.AddSpan("apply", "n2", time.Millisecond)
	at = Assemble(7, 8, origin, frags)
	if at.SpanCount != 6 || len(at.Roots) != 5 || at.NodeCount != 5 {
		t.Fatalf("with client stages: spans=%d roots=%d nodes=%d", at.SpanCount, len(at.Roots), at.NodeCount)
	}
	for _, st := range origin.Spans {
		if st.Hi != 7 || st.Lo != 8 || st.Parent != 100 || st.From != "n0" || st.ID == 0 {
			t.Fatalf("client stage not a full span: %+v", st)
		}
	}
	if origin.Spans[0].ID == origin.Spans[1].ID {
		t.Fatal("client stages share a span id")
	}
	// Without an origin, children of the (unknown) root span become roots.
	at = Assemble(7, 8, nil, frags)
	if len(at.Roots) != 3 || at.NodeCount != 4 {
		t.Fatalf("no-origin assemble: roots=%d nodes=%d", len(at.Roots), at.NodeCount)
	}
}

func TestSamplerDeltasAndRing(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 3)
	t0 := time.Unix(1000, 0)
	if sm := s.TickNow(t0); sm.Rates != nil || sm.Gauges != nil {
		t.Fatalf("baseline tick recorded data: %+v", sm)
	}
	if len(s.Recent(0)) != 0 {
		t.Fatal("baseline tick entered the ring")
	}

	reg.Counter("net.messages").Add(10)
	reg.Gauge("overlay.leafset.size").Set(4)
	reg.Observe("op.READ", 3*time.Millisecond)
	sm := s.TickNow(t0.Add(2 * time.Second))
	if got := sm.Rates["net.messages"]; got != 5 {
		t.Fatalf("rate = %v, want 5/s", got)
	}
	if sm.Gauges["overlay.leafset.size"] != 4 {
		t.Fatalf("gauge = %v", sm.Gauges)
	}
	h, ok := sm.Hists["op.READ"]
	if !ok || h.Count != 1 || h.P50NS <= 0 {
		t.Fatalf("hist sample = %+v", h)
	}

	// An idle interval reports no counter movement or hist activity.
	sm = s.TickNow(t0.Add(3 * time.Second))
	if len(sm.Rates) != 0 || len(sm.Hists) != 0 {
		t.Fatalf("idle interval not empty: %+v", sm)
	}

	// Ring stays bounded at capacity, oldest-first.
	for i := 0; i < 5; i++ {
		reg.Counter("net.messages").Add(1)
		s.TickNow(t0.Add(time.Duration(4+i) * time.Second))
	}
	got := s.Recent(0)
	if len(got) != 3 {
		t.Fatalf("ring size = %d, want cap 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i].T.After(got[i-1].T) {
			t.Fatalf("Recent not oldest-first: %v then %v", got[i-1].T, got[i].T)
		}
	}
}

func TestSamplerFuncMergesSources(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	merged := func() Snapshot {
		sa, sb := a.Snapshot(), b.Snapshot()
		out := Snapshot{Counters: map[string]uint64{}}
		for k, v := range sa.Counters {
			out.Counters[k] += v
		}
		for k, v := range sb.Counters {
			out.Counters[k] += v
		}
		return out
	}
	s := NewSamplerFunc(merged, 8)
	t0 := time.Unix(0, 0)
	s.TickNow(t0)
	a.Counter("x").Add(3)
	b.Counter("x").Add(4)
	sm := s.TickNow(t0.Add(time.Second))
	if sm.Rates["x"] != 7 {
		t.Fatalf("merged rate = %v, want 7", sm.Rates["x"])
	}
}

func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("net.messages").Add(12)
	reg.Gauge("overlay.leafset.size").Set(9)
	reg.Observe("op.READ", 500*time.Nanosecond) // bucket 0
	reg.Observe("op.READ", 3*time.Microsecond)  // bucket 2

	var b strings.Builder
	if err := WriteProm(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE kosha_net_messages_total counter",
		"kosha_net_messages_total 12",
		"# TYPE kosha_overlay_leafset_size gauge",
		"kosha_overlay_leafset_size 9",
		"# TYPE kosha_op_read_ns histogram",
		"kosha_op_read_ns_bucket{le=\"+Inf\"} 2",
		"kosha_op_read_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: bucket 2's le line includes bucket 0's count.
	le2 := "kosha_op_read_ns_bucket{le=\"" + "4000" + "\"} 2"
	if !strings.Contains(out, le2) {
		t.Fatalf("cumulative bucket %q missing:\n%s", le2, out)
	}
}

func TestWriteSamplesCSVLongForm(t *testing.T) {
	s := []Sample{{
		T:      time.Unix(5, 0),
		DurNS:  int64(time.Second),
		Rates:  map[string]float64{"net.messages": 2.5},
		Gauges: map[string]int64{"overlay.replica.lag": 1},
		Hists:  map[string]HistSample{"op.READ": {Count: 3, P50NS: 10, P95NS: 20, P99NS: 30}},
	}}
	var b strings.Builder
	if err := WriteSamplesCSV(&b, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "t_unix_ns,metric,kind,value" {
		t.Fatalf("header = %q", lines[0])
	}
	want := map[string]bool{
		"5000000000,net.messages,rate,2.500":     false,
		"5000000000,overlay.replica.lag,gauge,1": false,
		"5000000000,op.READ.count,hist,3":        false,
	}
	for _, ln := range lines[1:] {
		if _, ok := want[ln]; ok {
			want[ln] = true
		}
	}
	for ln, seen := range want {
		if !seen {
			t.Fatalf("CSV missing row %q:\n%s", ln, b.String())
		}
	}
}
