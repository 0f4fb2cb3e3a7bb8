package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
)

// DefaultTraceBuf is the default capacity of the per-node trace ring buffer.
const DefaultTraceBuf = 256

// DefaultSlowBuf is the capacity of the slow-op flight recorder ring: traces
// exceeding the SLO threshold are copied here so a burst of fast chatter
// cannot evict the interesting outliers from observation.
const DefaultSlowBuf = 64

// spanRingFactor sizes the server-span fragment ring relative to the trace
// ring: one traced op can fan out to several server spans (route hops, the
// serving RPC, K mirrors), so fragments need proportionally more room.
const spanRingFactor = 4

// Hop is one overlay routing step: the node contacted, its nodeId, and how
// many nodeId digits it shares with the destination key (the prefix-match
// depth that Pastry routing is improving at each step).
type Hop struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Prefix int    `json:"prefix"`
}

// Span is one timed piece of a traced operation, and the only span shape in
// the system: the trace it belongs to (Hi, Lo), its position in the causal
// tree (Parent -> ID), and what ran where — From issued it, Node served it.
// The transport records one on the serving node for every traced exchange, so
// every service (nfs, kosha, pastry, ctl) gets spans without per-handler
// instrumentation; the originating node records its own client-side stages
// (route, apply) in the same shape through Trace.AddSpan.
type Span struct {
	Hi     uint64 `json:"hi"`
	Lo     uint64 `json:"lo"`
	Parent uint64 `json:"parent"`
	ID     uint64 `json:"span"`
	Name   string `json:"name"`
	From   string `json:"from,omitempty"`
	Node   string `json:"node"`
	DurNS  int64  `json:"dur_ns"`
	Err    string `json:"err,omitempty"`
}

// Trace follows one virtual-mount operation end to end: Mount resolve →
// pastry route (hop by hop) → NFS RPC → replica fan-out. A trace is built by
// a single goroutine (the one running the op) and published to the ring
// buffer by Finish.
type Trace struct {
	ID uint64 `json:"id"`
	// Hi/Lo are the cluster-wide 128-bit trace id carried across RPC
	// boundaries by TraceContext; Span is the id of the trace's root span
	// (every server-side fragment of this op descends from it). Drawn from
	// the tracer's seeded generator so runs replay deterministically.
	Hi        uint64    `json:"hi,omitempty"`
	Lo        uint64    `json:"lo,omitempty"`
	Span      uint64    `json:"span,omitempty"`
	Op        string    `json:"op"`
	Path      string    `json:"path"`
	Node      string    `json:"node"` // originating node
	Start     time.Time `json:"start"`
	TotalNS   int64     `json:"total_ns"`
	Hops      []Hop     `json:"hops,omitempty"`
	Spans     []Span    `json:"spans,omitempty"`
	ServedBy  string    `json:"served_by,omitempty"` // node that served the final NFS RPC
	Replicas  int       `json:"replicas,omitempty"`  // replica fan-out of the final apply
	Failovers int       `json:"failovers,omitempty"`
	Err       string    `json:"err,omitempty"`
}

// All mutators are nil-safe so instrumentation points never need to guard
// against tracing being disabled.

// AddHop appends an overlay hop.
func (t *Trace) AddHop(id, addr string, prefix int) {
	if t == nil {
		return
	}
	t.Hops = append(t.Hops, Hop{ID: id, Addr: addr, Prefix: prefix})
}

// AddSpan records a client-side stage served by node as a child of the
// trace's root span. Its id is a function of the root span id and the stage
// index alone, so a replayed run names its stages identically and the id
// cannot collide with the tracer-drawn ids of server spans in practice.
func (t *Trace) AddSpan(name, node string, d time.Duration) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{
		Hi: t.Hi, Lo: t.Lo, Parent: t.Span, ID: mix64(t.Span + uint64(len(t.Spans)) + 1),
		Name: name, From: t.Node, Node: node, DurNS: int64(d),
	})
}

// SetServedBy records the node that served the operation's final NFS RPC.
func (t *Trace) SetServedBy(node string) {
	if t == nil || node == "" {
		return
	}
	t.ServedBy = node
}

// SetReplicas records the replica fan-out width of the final apply.
func (t *Trace) SetReplicas(k int) {
	if t == nil {
		return
	}
	t.Replicas = k
}

// Failover counts a transparent failover retry.
func (t *Trace) Failover() {
	if t == nil {
		return
	}
	t.Failovers++
}

// Ctx returns the propagation context for RPCs issued under this trace: the
// trace id parented at the root span. Nil-safe: a disabled trace yields the
// zero context, which transports treat as "do not record".
func (t *Trace) Ctx() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return TraceContext{Hi: t.Hi, Lo: t.Lo, Span: t.Span}
}

// Tracer hands out traces and keeps the most recent ones in a bounded ring
// buffer. A zero-capacity tracer is disabled and returns nil traces (every
// Trace mutator is nil-safe, so instrumented paths pay one nil check).
type Tracer struct {
	seq     atomic.Uint64
	idState atomic.Uint64 // splitmix64 state behind trace/span ids
	slowNS  atomic.Int64  // SLO threshold; 0 disables the flight recorder

	recent traceRing // finished traces
	slow   traceRing // the flight recorder: finished traces over slowNS

	spanMu sync.Mutex
	spans  ring[Span] // server-side fragments
}

// NewTracer returns a tracer retaining up to capacity traces; capacity <= 0
// disables tracing.
func NewTracer(capacity int) *Tracer {
	t := &Tracer{}
	t.recent.max = capacity
	t.slow.max = DefaultSlowBuf
	t.spans.max = capacity * spanRingFactor
	return t
}

// SeedIDs seeds the deterministic generator behind trace and span ids. Nodes
// seed with a per-node derivation of the run seed, so ids are unique across
// the cluster yet identical between replays of the same schedule.
func (t *Tracer) SeedIDs(seed uint64) {
	if t == nil {
		return
	}
	t.idState.Store(seed)
}

// rand3 derives three id words (trace hi/lo + root span) from ONE advance of
// the stream: Start runs on every client operation, often from many
// goroutines at once, and a single atomic RMW on the shared state keeps the
// contention there no worse than the pre-tracing sequence counter.
func (t *Tracer) rand3() (a, b, c uint64) {
	base := t.idState.Add(id.SplitMixGamma)
	return mix64(base), mix64(base ^ 0x94d049bb133111eb), mix64(base ^ 0xbf58476d1ce4e5b9)
}

// mix64 is id.Mix64, zero-guarded so a drawn id is always
// distinguishable from the zero ("no trace") context.
func mix64(z uint64) uint64 {
	z = id.Mix64(z)
	if z == 0 {
		z = 1
	}
	return z
}

// NextSpanID hands out a span id for a server-side span; called by the
// transport before it invokes the handler so nested calls can be parented
// under the not-yet-recorded span. Nil-safe.
func (t *Tracer) NextSpanID() uint64 {
	if t == nil {
		return 0
	}
	return mix64(t.idState.Add(id.SplitMixGamma))
}

// SetSlowThreshold arms the slow-op flight recorder: finished traces whose
// total meets or exceeds ns are copied into a separate ring that op chatter
// never evicts. ns <= 0 disarms it.
func (t *Tracer) SetSlowThreshold(ns int64) {
	if t == nil {
		return
	}
	t.slowNS.Store(ns)
}

// RecordSpan publishes one server-side span fragment into the span ring.
func (t *Tracer) RecordSpan(sp Span) {
	if t == nil {
		return
	}
	t.spanMu.Lock()
	t.spans.put(sp)
	t.spanMu.Unlock()
}

// SpansFor returns the retained span fragments belonging to trace (hi, lo),
// oldest first.
func (t *Tracer) SpansFor(hi, lo uint64) []Span {
	if t == nil {
		return nil
	}
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	var out []Span
	for i := range t.spans.buf {
		if sp := t.spans.at(i); sp.Hi == hi && sp.Lo == lo {
			out = append(out, *sp)
		}
	}
	return out
}

// traceRing is a locked ring of finished traces. The ring aliases each
// trace's Hops and Spans (the op goroutine is done with them by Finish), so
// everything copied out is detached: a caller may hold or mutate a snapshot.
type traceRing struct {
	mu sync.Mutex
	ring[Trace]
}

func detach(tr *Trace) {
	tr.Hops = append([]Hop(nil), tr.Hops...)
	tr.Spans = append([]Span(nil), tr.Spans...)
}

func (r *traceRing) add(tr *Trace) {
	r.mu.Lock()
	r.put(*tr)
	r.mu.Unlock()
}

func (r *traceRing) newest(n int) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.newestFirst(n)
	for i := range out {
		detach(&out[i])
	}
	return out
}

func (r *traceRing) lookup(hi, lo uint64) (Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.find(func(tr *Trace) bool { return tr.Hi == hi && tr.Lo == lo })
	if p == nil {
		return Trace{}, false
	}
	tr := *p
	detach(&tr)
	return tr, true
}

// Recent returns up to n of the most recent traces, newest first. n <= 0
// means all retained traces.
func (t *Tracer) Recent(n int) []Trace {
	if t == nil || t.recent.max <= 0 {
		return nil
	}
	return t.recent.newest(n)
}

// Slow returns up to n traces from the flight recorder, newest first (n <= 0
// means all).
func (t *Tracer) Slow(n int) []Trace {
	if t == nil {
		return nil
	}
	return t.slow.newest(n)
}

// FindTrace looks up a retained trace by its cluster-wide id, searching the
// main ring and then the flight recorder.
func (t *Tracer) FindTrace(hi, lo uint64) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	if tr, ok := t.recent.lookup(hi, lo); ok {
		return tr, true
	}
	return t.slow.lookup(hi, lo)
}

// Enabled reports whether the tracer retains traces; instrumentation can
// skip building trace labels when it does not.
func (t *Tracer) Enabled() bool { return t != nil && t.recent.max > 0 }

// Start begins a trace for one operation, or returns nil if disabled.
func (t *Tracer) Start(op, path, node string) *Trace {
	if t == nil || t.recent.max <= 0 {
		return nil
	}
	hi, lo, span := t.rand3()
	return &Trace{
		ID:    t.seq.Add(1),
		Hi:    hi,
		Lo:    lo,
		Span:  span,
		Op:    op,
		Path:  path,
		Node:  node,
		Start: time.Now(),
	}
}

// Finish records the total duration and publishes the trace into the ring,
// and into the flight recorder when it met the slow threshold.
func (t *Tracer) Finish(tr *Trace, total time.Duration, err error) {
	if t == nil || tr == nil {
		return
	}
	tr.TotalNS = int64(total)
	if err != nil {
		tr.Err = err.Error()
	}
	if slow := t.slowNS.Load(); slow > 0 && tr.TotalNS >= slow {
		t.slow.add(tr)
	}
	t.recent.add(tr)
}
