// Package tcpnet is the multi-process transport: the same request/response
// service surface as internal/simnet's in-process network, carried over
// real TCP connections. It lets the Kosha daemon (cmd/koshad) run one node
// per OS process on one box or across machines, with node addresses that
// are literally their host:port strings.
//
// Simulated costs still flow end-to-end: a reply carries the remote
// handler's reported cost, and the caller adds the calibrated link-model
// cost for the message sizes, so benchmark numbers remain comparable to
// the in-process emulation regardless of real wire latency.
//
// A call takes an idle connection to its peer, or dials one, and returns it
// after a clean exchange, so calls never queue behind each other: a handler
// may call back into the node whose call it is serving.
//
// A round trip allocates one buffer each way: the frame each side reads off
// its socket. Everything else is written from where it lies or decoded in
// place. The envelope head (from, service, trace words and the payload's
// length) is encoded into the connection's own scratch and sent with the
// payload's pieces in one writev: a request frame's head and each body it
// lends (wire.FrameOf) go out from where they lie, uncopied, so a primary
// forwards the data it was sent to its replicas without copying it. The
// server reads one contiguous frame, opens it in place, resolves the service
// it names to the registered name and reuses the connection's last sender
// address while the bytes match, and hands the handler its request as a
// one-piece frame; the caller is handed the reply as a sub-slice of the
// frame it read.
//
// Buffer ownership follows simnet.HandlerCtx's rule: every frame read off a
// connection gets a freshly allocated slice that is never recycled, so a
// handler borrows its request, a sub-slice of that frame, for the duration
// of the call, and a caller owns the response it is handed, a sub-slice of
// the reply frame; buffers passed in, lent bodies included, are only read.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// maxFrame bounds one request or response frame. frameStep bounds what a
// frame header alone can make the reader allocate: frames up to frameStep
// are allocated once at their stated size, larger ones grow geometrically
// as their bytes arrive. It holds the reply to a READ of a 4 MiB readahead
// window (four localfs.ReadUnit pieces, the largest window the benchmark
// reads) with the envelope and reply words ahead of the data (frameHead),
// so every frame but a larger window's is read into one allocation.
const (
	maxFrame  = 96 << 20
	frameHead = 4 << 10
	frameStep = 4<<20 + frameHead
)

// maxIdle bounds the idle client connections kept per peer. A call takes an
// idle connection or dials one, so calls to one peer never wait on each
// other — a handler that calls back into its caller while the caller waits
// on it included — and only this many stay open between bursts: two, the
// concurrent callers to one peer the benchmark measures (tcpnet.rtt_us.c2).
const maxIdle = 2

// Net is a TCP-backed simnet.Transport. Handlers registered for the local
// address are served from the listener; calls to other addresses dial out.
type Net struct {
	Link    simnet.LinkModel
	Timeout time.Duration // dial/IO deadline; default 5s

	local simnet.Addr
	ln    net.Listener

	mu       sync.Mutex
	services map[string]endpoint
	sink     simnet.SpanSink
	idle     map[simnet.Addr][]*link // client connections between calls
	inbound  map[net.Conn]struct{}

	closed  chan struct{}
	wg      sync.WaitGroup
	onceOff sync.Once
}

// endpoint is one registered handler under its service name, so a request
// that names the service by bytes off the wire resolves to the name's string
// without building one.
type endpoint struct {
	name string
	h    simnet.HandlerCtx
}

// zeros pads a frame's trailing opaque to a 4-byte boundary.
var zeros [3]byte

// link is one connection's framing: the socket and the scratch a frame's
// head is encoded into, a received frame's length word is read into and the
// writev vector is built in. Whoever holds the connection uses its scratch —
// a caller that took it from the idle pool, the server in the connection's
// goroutine. The scratch is not a pool: it belongs to the socket and dies
// with it, holds a frame's head but never its payload past the send that
// wrote it, and lends nothing, so no buffer passes from one message or
// connection to another through it.
type link struct {
	c    net.Conn
	head wire.Encoder // the outgoing frame's length word and envelope head
	hdr  [4]byte      // an incoming frame's length word
	vec  [][]byte     // head, the payload's pieces and padding, for one writev
	out  net.Buffers  // vec, as WriteTo consumes it
}

// start begins a frame in the scratch: a length word, filled in by send,
// then whatever the caller encodes.
func (l *link) start() *wire.Encoder {
	l.head.Reset()
	l.head.PutUint32(0)
	return &l.head
}

// send writes the frame whose head the scratch holds, then body — the joined
// bytes of the opaque item whose length word ends the head — and its
// padding, in one writev. body's pieces are written from where they lie, not
// copied.
func (l *link) send(body wire.Frame) error {
	head := l.head.Bytes()
	n := body.Len()
	pad := -n & 3
	binary.BigEndian.PutUint32(head, uint32(len(head)-4+n+pad))
	l.vec = append(body.AppendPieces(append(l.vec[:0], head)), zeros[:pad])
	l.out = l.vec
	_, err := l.out.WriteTo(l.c)
	clear(l.vec) // a failed write leaves the pieces in the vector
	return err
}

// recv reads one frame into a freshly allocated slice. The frame's length is
// only a claim: the slice grows toward it as the bytes arrive, so four bytes
// from a peer cannot reserve 96 MiB here.
func (l *link) recv() ([]byte, error) {
	if _, err := io.ReadFull(l.c, l.hdr[:]); err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(l.hdr[:]))
	if size > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", size)
	}
	p := make([]byte, min(size, frameStep))
	for got := 0; ; {
		if _, err := io.ReadFull(l.c, p[got:]); err != nil {
			return nil, err
		}
		if got = len(p); got == size {
			return p, nil
		}
		grown := make([]byte, min(size, 2*got))
		copy(grown, p)
		p = grown
	}
}

// Listen starts a transport bound to listenAddr ("host:port"; port 0 picks
// a free port). The advertised node address is the listener's address.
func Listen(listenAddr string, model simnet.LinkModel) (*Net, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	n := &Net{
		Link:     model,
		Timeout:  5 * time.Second,
		local:    simnet.Addr(ln.Addr().String()),
		ln:       ln,
		services: make(map[string]endpoint),
		idle:     make(map[simnet.Addr][]*link),
		inbound:  make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Dialer returns a client-only transport (no listener) that originates
// calls from the given logical address, for tools like koshactl.
func Dialer(from simnet.Addr, model simnet.LinkModel) *Net {
	return &Net{
		Link:     model,
		Timeout:  5 * time.Second,
		local:    from,
		services: make(map[string]endpoint),
		idle:     make(map[simnet.Addr][]*link),
		inbound:  make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
}

// Addr returns the transport's local (advertised) address.
func (n *Net) Addr() simnet.Addr { return n.local }

// Close shuts the listener, the idle client connections and the inbound
// ones. A connection in a call when Close runs is closed when the call
// returns it.
func (n *Net) Close() error {
	n.onceOff.Do(func() { close(n.closed) })
	if n.ln != nil {
		n.ln.Close()
	}
	n.mu.Lock()
	for _, idle := range n.idle {
		for _, l := range idle {
			l.c.Close()
		}
	}
	n.idle = make(map[simnet.Addr][]*link)
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

// Register installs a context-free service handler at the local address.
func (n *Net) Register(addr simnet.Addr, service string, h simnet.Handler) {
	n.RegisterCtx(addr, service, h.Ctx())
}

// RegisterCtx implements simnet.Transport. Only the local address can host
// services; registering for another address is a programming error.
func (n *Net) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	if addr != n.local {
		panic(fmt.Sprintf("tcpnet: cannot register %q for remote address %s (local %s)", service, addr, n.local))
	}
	n.mu.Lock()
	n.services[service] = endpoint{service, h}
	n.mu.Unlock()
}

// SetSpanSink installs the local node's span recorder (nil clears it).
func (n *Net) SetSpanSink(addr simnet.Addr, s simnet.SpanSink) {
	if addr != n.local {
		panic(fmt.Sprintf("tcpnet: cannot set span sink for remote address %s (local %s)", addr, n.local))
	}
	n.mu.Lock()
	n.sink = s
	n.mu.Unlock()
}

// serve dispatches one delivered request to the local handler of the
// service named, recording a server span when the envelope carries a trace
// context and a sink is installed. Shared by the loopback path, which names
// the service by a string, and the listener, which names it by the frame's
// bytes: the map is indexed by them directly, which does not allocate.
func serve[S string | []byte](n *Net, ctx obs.TraceContext, from simnet.Addr, service S, req []byte) ([]byte, simnet.Cost, error) {
	n.mu.Lock()
	ep, sink := n.services[string(service)], n.sink
	n.mu.Unlock()
	if ep.h == nil {
		return nil, simnet.Cost(time.Second), fmt.Errorf("%w: %q on %s", simnet.ErrNoSuchService, service, n.local)
	}
	hctx := ctx
	var span uint64
	if ctx.Valid() && sink != nil {
		span = sink.NextSpanID()
		hctx = ctx.Child(span)
	}
	resp, cost, err := ep.h(hctx, from, req)
	if span != 0 {
		sink.RecordServerSpan(ctx, span, ep.name, from, req, cost, err)
	}
	return resp, cost, err
}

// Call is CallCtx with the zero context: an untraced call.
func (n *Net) Call(from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	return n.CallCtx(obs.TraceContext{}, from, to, service, req)
}

// CallCtx implements simnet.Caller. Local calls dispatch directly (loopback);
// remote calls go over TCP, the trace context riding the request frame to be
// rehydrated by the serving side. Cost composes the modeled link cost with
// the remote handler's reported processing cost.
func (n *Net) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	if to == n.local {
		return serve(n, ctx, from, service, req)
	}

	f := wire.FrameOf(req)
	wireCost := n.Link.MessageCost(f.Len())
	resp, procCost, err := n.roundTrip(ctx, to, service, f)
	if err != nil {
		return nil, simnet.Cost(time.Second), err
	}
	wireCost = simnet.Seq(wireCost, n.Link.MessageCost(len(resp)))
	return resp, simnet.Seq(wireCost, procCost), nil
}

// take returns an idle connection to a peer, or dials one if none is idle.
// fresh reports whether it was just dialed: an IO error on a fresh
// connection is a real reachability problem, while one on an idle connection
// may just mean the peer closed it while idle.
func (n *Net) take(to simnet.Addr) (l *link, fresh bool, err error) {
	n.mu.Lock()
	if idle := n.idle[to]; len(idle) > 0 {
		l = idle[len(idle)-1]
		idle[len(idle)-1] = nil
		n.idle[to] = idle[:len(idle)-1]
		n.mu.Unlock()
		return l, false, nil
	}
	n.mu.Unlock()
	raw, err := net.DialTimeout("tcp", string(to), n.Timeout)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %s -> %s: %v", simnet.ErrUnreachable, n.local, to, err)
	}
	return &link{c: raw}, true, nil
}

// put returns a connection after a clean exchange. It is closed instead when
// maxIdle connections to the peer are already idle or the transport is
// closed.
func (n *Net) put(to simnet.Addr, l *link) {
	n.mu.Lock()
	select {
	case <-n.closed:
	default:
		if idle := n.idle[to]; len(idle) < maxIdle {
			n.idle[to] = append(idle, l)
			n.mu.Unlock()
			return
		}
	}
	n.mu.Unlock()
	l.c.Close()
}

// dropIdle closes every idle connection to a peer.
func (n *Net) dropIdle(to simnet.Addr) {
	n.mu.Lock()
	idle := n.idle[to]
	delete(n.idle, to)
	n.mu.Unlock()
	for _, l := range idle {
		l.c.Close()
	}
}

// roundTrip sends one framed request on a connection of its own and reads
// the response. One in-flight request per connection keeps framing trivial.
// An idle connection can have been closed by the peer (server restart,
// keepalive timeout), and then so were the others idle beside it: an IO
// failure on one closes them all and redials once before the failure is
// reported as unreachability. A timeout is not a stale connection: the
// peer may be running the request still, so it is reported at once and
// never resent.
func (n *Net) roundTrip(ctx obs.TraceContext, to simnet.Addr, service string, req wire.Frame) ([]byte, simnet.Cost, error) {
	var frame []byte
	for attempt := 0; ; attempt++ {
		l, fresh, err := n.take(to)
		if err != nil {
			return nil, 0, err
		}
		frame, err = n.exchange(l, ctx, service, req)
		if err == nil {
			n.put(to, l)
			break
		}
		l.c.Close()
		if !fresh && attempt == 0 && !errors.Is(err, os.ErrDeadlineExceeded) {
			n.dropIdle(to)
			continue // stale idle connection; retry on a fresh dial
		}
		return nil, 0, fmt.Errorf("%w: %s -> %s: %v", simnet.ErrUnreachable, n.local, to, err)
	}
	var d wire.Decoder
	d.Reset(frame)
	ok := d.Bool()
	cost := simnet.Cost(d.Int64())
	if !ok {
		msg := d.String()
		if d.Err() != nil {
			return nil, cost, d.Err()
		}
		return nil, cost, decodeRemoteError(msg)
	}
	resp := d.OpaqueRef() // the caller owns the frame it was read into
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	return resp, cost, nil
}

// exchange performs one framed request/response on a connection. The trace
// context travels as three fixed words after the service name. The head is
// encoded into the connection's scratch and req is sent after it as the
// envelope's last item, its pieces uncopied.
func (n *Net) exchange(l *link, ctx obs.TraceContext, service string, req wire.Frame) ([]byte, error) {
	e := l.start()
	e.PutString(string(n.local))
	e.PutString(service)
	e.PutUint64(ctx.Hi)
	e.PutUint64(ctx.Lo)
	e.PutUint64(ctx.Span)
	e.PutUint32(uint32(req.Len()))

	l.c.SetDeadline(time.Now().Add(n.Timeout))
	if err := l.send(req); err != nil {
		return nil, err
	}
	return l.recv()
}

// decodeRemoteError rehydrates sentinel errors that cross the wire as
// strings so errors.Is keeps working for failover decisions.
func decodeRemoteError(msg string) error {
	switch {
	case strings.Contains(msg, simnet.ErrNoSuchService.Error()):
		return fmt.Errorf("%w: %s", simnet.ErrNoSuchService, msg)
	case strings.Contains(msg, simnet.ErrUnreachable.Error()):
		return fmt.Errorf("%w: %s", simnet.ErrUnreachable, msg)
	default:
		return errors.New(msg)
	}
}

func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		raw, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			continue
		}
		n.mu.Lock()
		n.inbound[raw] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(raw)
	}
}

func (n *Net) serveConn(raw net.Conn) {
	defer n.wg.Done()
	defer func() {
		raw.Close()
		n.mu.Lock()
		delete(n.inbound, raw)
		n.mu.Unlock()
	}()
	n.serveLink(&link{c: raw})
}

// serveLink answers the requests that arrive on one connection until it
// fails or sends a frame that does not open. A request is served from its
// frame in place and the reply's head goes into the link's scratch, the
// handler's reply sent after it uncopied.
func (n *Net) serveLink(l *link) {
	var from simnet.Addr
	for {
		l.c.SetReadDeadline(time.Now().Add(10 * time.Minute))
		frame, err := l.recv()
		if err != nil {
			return
		}
		env, err := decodeRequest(frame)
		if err != nil {
			return
		}
		if string(env.from) != string(from) {
			from = simnet.Addr(env.from)
		}

		resp, cost, herr := serve(n, env.ctx, from, env.service, env.req)
		e := l.start()
		if herr != nil {
			e.PutBool(false)
			e.PutInt64(int64(cost))
			e.PutString(herr.Error())
			resp = nil
		} else {
			e.PutBool(true)
			e.PutInt64(int64(cost))
			e.PutUint32(uint32(len(resp)))
		}
		l.c.SetWriteDeadline(time.Now().Add(n.Timeout))
		if err := l.send(wire.Frame{Head: resp}); err != nil {
			return
		}
	}
}

// envelope is a request frame opened in place: from, service and req are
// sub-slices of the frame.
type envelope struct {
	from, service []byte
	ctx           obs.TraceContext
	req           []byte
}

// decodeRequest opens the request envelope exchange builds. Bytes after the
// request are ignored.
func decodeRequest(frame []byte) (envelope, error) {
	var d wire.Decoder
	d.Reset(frame)
	var env envelope
	env.from = d.OpaqueRef()
	env.service = d.OpaqueRef()
	env.ctx = obs.TraceContext{Hi: d.Uint64(), Lo: d.Uint64(), Span: d.Uint64()}
	env.req = d.OpaqueRef()
	return env, d.Err()
}
