// Package simnet provides the message-passing substrate for the Kosha
// reproduction: an in-process network with a deterministic latency/bandwidth
// cost model, plus failure injection (node crashes, partitions).
//
// The paper evaluated Kosha on eight FreeBSD machines behind a 100 Mb/s
// switch. This package substitutes that testbed with multi-node emulation on
// one box: every node registers a service handler, calls are synchronous
// request/response exchanges, and each exchange returns the simulated time
// it would have taken on the modeled link (see Cost). Correctness is
// exercised by real execution; timing is modeled, so measured overheads are
// reproducible on any host.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Addr identifies a node on the network.
type Addr string

// ErrUnreachable is returned when the destination is down or partitioned
// away from the sender. The associated Cost reflects the RPC timeout the
// caller would have burned discovering this.
var ErrUnreachable = errors.New("simnet: destination unreachable")

// ErrNoSuchService is returned when the destination is alive but has no
// handler for the requested service.
var ErrNoSuchService = errors.New("simnet: no such service")

// HandlerCtx processes one request and returns the response payload together
// with the simulated cost of local processing (disk ops, nested calls). ctx
// is the trace context of the exchange, already re-parented under the server
// span the transport allocated for this request, so any nested calls the
// handler issues nest correctly in the causal tree; it is the zero context
// on an untraced exchange.
//
// req is the request as the caller sent it: a flat frame, or the head of a
// frame that lends bodies (wire.Lend). A handler decodes wire.FrameOf(req),
// which hands it the lent bodies by reference. A request that lends a sink
// (wire.Encoder.LendSink) lets the first run that takes it (wire.TakeSink)
// put the reply's data there and return wire.LendReply's head.
//
// Buffer ownership (both transports; DESIGN.md §10): a request or response
// buffer, and every body a request frame lends, is immutable once handed to
// a transport, and no transport recycles one — this network passes the
// sender's frame to the handler and the handler's slice back to the caller,
// so one frame may be sent to several destinations or delivered twice
// (LinkFault.Dup). A handler may alias req or a lent body only until it
// returns, unless it copies; the caller owns resp. Only the one handler run
// that takes a sink writes it, and only before the call returns.
type HandlerCtx func(ctx obs.TraceContext, from Addr, req []byte) (resp []byte, cost Cost, err error)

// Handler is a HandlerCtx with no use for the trace context.
type Handler func(from Addr, req []byte) (resp []byte, cost Cost, err error)

// Ctx adapts h to the form transports register.
func (h Handler) Ctx() HandlerCtx {
	return func(_ obs.TraceContext, from Addr, req []byte) ([]byte, Cost, error) { return h(from, req) }
}

// Caller is the client side of the transport, implemented by *Network, by
// the TCP transport in internal/tcpnet and by core's retrier.
type Caller interface {
	// CallCtx sends req from one node to another node's named service and
	// waits for the response. req is a flat frame or a lent frame's head
	// (wire.Lend): a transport sends, counts and charges the joined frame
	// wire.FrameOf(req) returns, reading lent bodies where they lie, and
	// the joined reply wire.ReplyOf(req, resp) returns. cost
	// covers the round trip plus the remote handler's own reported cost,
	// and is meaningful even on error. A valid ctx rides the envelope: the
	// receiving transport records a server span (if the destination
	// installed a SpanSink) and hands the handler a re-parented child
	// context. The zero context is an untraced call.
	CallCtx(ctx obs.TraceContext, from, to Addr, service string, req []byte) (resp []byte, cost Cost, err error)
}

// Transport is the full substrate surface a node needs: issuing calls and
// serving its own services. *Network implements it for in-process
// emulation; internal/tcpnet implements it for multi-process deployment.
type Transport interface {
	Caller
	// RegisterCtx installs a service handler reachable at addr.
	RegisterCtx(addr Addr, service string, h HandlerCtx)
	// SetSpanSink installs the span recorder for a node: the transport
	// consults it on every traced exchange delivered to addr.
	SetSpanSink(addr Addr, s SpanSink)
}

// CtxCaller and CtxTransport name the same interfaces: every caller and
// every transport carries the trace context.
type (
	CtxCaller    = Caller
	CtxTransport = Transport
)

// SpanSink is how a node plugs its tracer into the transport. The transport
// drives it around every traced exchange: NextSpanID before the handler runs
// (the id parents the handler's nested calls), RecordServerSpan once after
// it returns, with the request frame's head. One exchange records exactly
// one span even if fault injection delivers the request twice — the
// duplicate-request path must not inflate the causal tree.
type SpanSink interface {
	NextSpanID() uint64
	RecordServerSpan(ctx obs.TraceContext, span uint64, service string, from Addr, req []byte, cost Cost, err error)
}

// Downer is implemented by transports that support failure injection.
type Downer interface {
	SetDown(addr Addr, down bool)
}

// LinkFault describes the fault injected into one message exchange. The zero
// value means "deliver normally".
type LinkFault struct {
	// Drop loses the exchange: the caller burns the RPC timeout and gets
	// ErrUnreachable, the handler never runs.
	Drop bool
	// Dup delivers the request to the handler twice (back to back); the
	// caller sees only the first response. This models a retransmitted
	// datagram reaching a server that already executed the request. The NFS
	// server's duplicate-request cache replays its mutating procedures; the
	// kosha service has no such cache and re-executes, every op kind being
	// harmless the second time (DESIGN.md §8).
	Dup bool
	// Delay is added to the exchange's wire cost (a latency spike).
	Delay Cost
}

// FaultInjector decides, per exchange, what fault (if any) to inject on the
// from->to link for the given service. It is consulted on every non-local
// Call and must be safe for concurrent use; implementations that want
// determinism should derive decisions from their own seeded state.
type FaultInjector func(from, to Addr, service string) LinkFault

// Stats aggregates traffic counters for experiments.
type Stats struct {
	Messages uint64 // round trips attempted
	Bytes    uint64 // request + response payload bytes
	Failures uint64 // calls that returned an error
}

type node struct {
	mu       sync.RWMutex
	services map[string]HandlerCtx
	sink     SpanSink
	down     atomic.Bool
}

// Network is an in-process transport shared by all simulated nodes.
type Network struct {
	Link LinkModel
	// Timeout is the simulated cost charged for discovering that a peer is
	// unreachable (client RPC timeout).
	Timeout Cost

	mu        sync.RWMutex
	nodes     map[Addr]*node
	partition func(a, b Addr) bool // true when a cannot reach b
	faults    FaultInjector        // nil means no fault injection

	// All traffic counters live in one obs.Registry; the fields below are
	// cached pointers so the Call hot path pays only atomic adds.
	reg      *obs.Registry
	messages *obs.Counter
	bytes    *obs.Counter
	failures *obs.Counter
	dropped  *obs.Counter // exchanges lost by fault injection
	duped    *obs.Counter // requests delivered twice by fault injection
	delayed  *obs.Counter // exchanges given an injected latency spike
	perSvc   sync.Map     // service name -> *svcCounter
}

// svcCounter caches the registry counters for one service name.
type svcCounter struct {
	messages *obs.Counter
	bytes    *obs.Counter
	failures *obs.Counter
}

// New creates a network with the given link model and a 1 s RPC timeout.
func New(link LinkModel) *Network {
	reg := obs.NewRegistry()
	return &Network{
		Link:     link,
		Timeout:  Cost(time.Second),
		nodes:    make(map[Addr]*node),
		reg:      reg,
		messages: reg.Counter("net.messages"),
		bytes:    reg.Counter("net.bytes"),
		failures: reg.Counter("net.failures"),
		dropped:  reg.Counter("net.fault.dropped"),
		duped:    reg.Counter("net.fault.duped"),
		delayed:  reg.Counter("net.fault.delayed"),
	}
}

// AddNode registers addr on the network. It is a no-op if already present.
func (n *Network) AddNode(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; !ok {
		n.nodes[addr] = &node{services: make(map[string]HandlerCtx)}
	}
}

// Register installs a context-free service handler on addr.
func (n *Network) Register(addr Addr, service string, h Handler) {
	n.RegisterCtx(addr, service, h.Ctx())
}

// RegisterCtx installs a service handler on addr, adding the node if needed.
func (n *Network) RegisterCtx(addr Addr, service string, h HandlerCtx) {
	n.AddNode(addr)
	n.mu.RLock()
	nd := n.nodes[addr]
	n.mu.RUnlock()
	nd.mu.Lock()
	nd.services[service] = h
	nd.mu.Unlock()
}

// SetSpanSink installs addr's span recorder (nil clears it). Traced
// exchanges delivered to addr record one server span through it.
func (n *Network) SetSpanSink(addr Addr, s SpanSink) {
	n.AddNode(addr)
	n.mu.RLock()
	nd := n.nodes[addr]
	n.mu.RUnlock()
	nd.mu.Lock()
	nd.sink = s
	nd.mu.Unlock()
}

// SetDown marks addr as crashed (true) or revived (false). Calls to a down
// node fail with ErrUnreachable after the timeout cost. Handlers and state
// are preserved, modeling a machine that is off but intact.
func (n *Network) SetDown(addr Addr, down bool) {
	n.mu.RLock()
	nd := n.nodes[addr]
	n.mu.RUnlock()
	if nd != nil {
		nd.down.Store(down)
	}
}

// IsDown reports whether addr is currently marked crashed.
func (n *Network) IsDown(addr Addr) bool {
	n.mu.RLock()
	nd := n.nodes[addr]
	n.mu.RUnlock()
	return nd == nil || nd.down.Load()
}

// SetPartition installs a reachability predicate; nil clears it. The
// predicate returns true when a cannot reach b. The predicate is directional:
// blocking a->b leaves b->a open, so asymmetric partitions are expressible.
func (n *Network) SetPartition(blocked func(a, b Addr) bool) {
	n.mu.Lock()
	n.partition = blocked
	n.mu.Unlock()
}

// SetFaults installs a per-exchange fault injector; nil clears it. The
// injector runs after the down/partition checks and never applies to local
// (from == to) calls, mirroring SetPartition: loopback traffic between a
// client and its own koshad does not cross the network.
func (n *Network) SetFaults(f FaultInjector) {
	n.mu.Lock()
	n.faults = f
	n.mu.Unlock()
}

// FaultStats reports how many exchanges fault injection has dropped,
// duplicated, and delayed since the last counter reset.
func (n *Network) FaultStats() (dropped, duped, delayed uint64) {
	return n.dropped.Load(), n.duped.Load(), n.delayed.Load()
}

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Messages: n.messages.Load(),
		Bytes:    n.bytes.Load(),
		Failures: n.failures.Load(),
	}
}

// ServiceStats returns a snapshot of traffic counters for one service name
// (e.g. nfs.Service), letting experiments attribute round trips to the
// protocol that issued them.
func (n *Network) ServiceStats(service string) Stats {
	v, ok := n.perSvc.Load(service)
	if !ok {
		return Stats{}
	}
	c := v.(*svcCounter)
	return Stats{
		Messages: c.messages.Load(),
		Bytes:    c.bytes.Load(),
		Failures: c.failures.Load(),
	}
}

// ResetStats zeroes the traffic counters, including per-service ones. The
// counters are zeroed in place — service entries are never deleted — so a
// concurrent Call holding a counter pointer keeps incrementing a live metric
// and no service entry is ever lost across a reset.
func (n *Network) ResetStats() {
	n.reg.Reset()
}

func (n *Network) svc(service string) *svcCounter {
	if v, ok := n.perSvc.Load(service); ok {
		return v.(*svcCounter)
	}
	c := &svcCounter{
		messages: n.reg.Counter("svc." + service + ".messages"),
		bytes:    n.reg.Counter("svc." + service + ".bytes"),
		failures: n.reg.Counter("svc." + service + ".failures"),
	}
	v, _ := n.perSvc.LoadOrStore(service, c)
	return v.(*svcCounter)
}

// Call is CallCtx with the zero context: an untraced call.
func (n *Network) Call(from, to Addr, service string, req []byte) ([]byte, Cost, error) {
	return n.CallCtx(obs.TraceContext{}, from, to, service, req)
}

// CallCtx implements Caller. Local calls (from == to) skip the link cost but
// still pay the handler's processing cost, mirroring a loopback RPC. The
// handler is handed req itself, so a lent body reaches it uncopied and a
// sink the request lends is there to take; the counters and the link cost
// see the joined frames, the reply's as wire.ReplyOf gives it.
func (n *Network) CallCtx(ctx obs.TraceContext, from, to Addr, service string, req []byte) ([]byte, Cost, error) {
	size := wire.FrameOf(req).Len()
	n.messages.Add(1)
	n.bytes.Add(uint64(size))
	sc := n.svc(service)
	sc.messages.Add(1)
	sc.bytes.Add(uint64(size))

	n.mu.RLock()
	dst := n.nodes[to]
	blocked := n.partition
	inject := n.faults
	n.mu.RUnlock()

	if dst == nil || dst.down.Load() || (blocked != nil && from != to && blocked(from, to)) {
		n.failures.Add(1)
		return nil, n.Timeout, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}

	var fault LinkFault
	if inject != nil && from != to {
		fault = inject(from, to, service)
	}
	if fault.Drop {
		n.failures.Add(1)
		n.dropped.Add(1)
		return nil, n.Timeout, fmt.Errorf("%w: %s -> %s (dropped)", ErrUnreachable, from, to)
	}

	dst.mu.RLock()
	h := dst.services[service]
	sink := dst.sink
	dst.mu.RUnlock()
	if h == nil {
		n.failures.Add(1)
		return nil, n.Timeout, fmt.Errorf("%w: %q on %s", ErrNoSuchService, service, to)
	}

	// A traced exchange gets a server span: allocate its id up front so the
	// handler's nested calls parent under it, record it once afterwards.
	hctx := ctx
	var span uint64
	if ctx.Valid() && sink != nil {
		span = sink.NextSpanID()
		hctx = ctx.Child(span)
	}

	var wireCost Cost
	if from != to {
		wireCost = n.Link.MessageCost(size)
	}
	if fault.Delay > 0 {
		n.delayed.Add(1)
		wireCost = Seq(wireCost, fault.Delay)
	}
	resp, procCost, err := h(hctx, from, req)
	if span != 0 {
		sink.RecordServerSpan(ctx, span, service, from, req, procCost, err)
	}
	if fault.Dup {
		// Deliver the retransmitted copy after the original; the caller only
		// ever sees the first response. A server must therefore either
		// replay (nfs.Server's duplicate-request cache) or make a second
		// execution harmless (the kosha service; see LinkFault.Dup). The
		// duplicate is the same exchange, so it records no second server
		// span.
		n.duped.Add(1)
		h(hctx, from, req)
	}
	if err != nil {
		n.failures.Add(1)
		return nil, Seq(wireCost, procCost), err
	}
	rsize := wire.ReplyOf(req, resp).Len()
	n.bytes.Add(uint64(rsize))
	sc.bytes.Add(uint64(rsize))
	if from != to {
		wireCost = Seq(wireCost, n.Link.MessageCost(rsize))
	}
	return resp, Seq(wireCost, procCost), nil
}
