package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func TestRoundTripOverTCP(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return append([]byte("echo:"), req...), simnet.Cost(42), nil
	})

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	resp, cost, err := cli.Call("client", srv.Addr(), "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:ping" {
		t.Fatalf("resp = %q", resp)
	}
	if cost < simnet.Cost(42) {
		t.Fatalf("cost %v lost the remote processing component", cost)
	}
}

func TestLocalDispatchSkipsSocket(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, simnet.Cost(7), nil
	})
	resp, cost, err := srv.Call(srv.Addr(), srv.Addr(), "echo", []byte("x"))
	if err != nil || string(resp) != "x" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if cost != simnet.Cost(7) {
		t.Fatalf("local cost = %v, want handler cost only", cost)
	}
}

func TestHandlerErrorCrossesWire(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "fail", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return nil, 0, errors.New("handler exploded")
	})
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	_, _, err = cli.Call("client", srv.Addr(), "fail", nil)
	if err == nil || err.Error() != "handler exploded" {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownServiceAndDeadPeer(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()

	if _, _, err := cli.Call("client", srv.Addr(), "ghost", nil); !errors.Is(err, simnet.ErrNoSuchService) {
		t.Fatalf("unknown service err = %v", err)
	}
	addr := srv.Addr()
	srv.Close()
	if _, _, err := cli.Call("client", addr, "echo", nil); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("dead peer err = %v", err)
	}
}

func TestConcurrentCallers(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := Dialer(simnet.Addr(fmt.Sprintf("c%d", g)), simnet.LAN100)
			defer cli.Close()
			payload := bytes.Repeat([]byte{byte(g)}, 1000)
			for i := 0; i < 40; i++ {
				resp, _, err := cli.Call(cli.Addr(), srv.Addr(), "echo", payload)
				if err != nil || !bytes.Equal(resp, payload) {
					t.Errorf("g%d i%d: err=%v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLargePayload(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	payload := bytes.Repeat([]byte{0xab}, 4<<20)
	resp, _, err := cli.Call("client", srv.Addr(), "echo", payload)
	if err != nil || !bytes.Equal(resp, payload) {
		t.Fatalf("4MiB round trip failed: %v", err)
	}
}

// TestKoshaClusterOverTCP runs a full three-node Kosha deployment over real
// TCP sockets — the multi-process topology cmd/koshad provides, collapsed
// into one test process.
func TestKoshaClusterOverTCP(t *testing.T) {
	state := uint64(99)
	var nodes []*core.Node
	var nets []*Net
	for i := 0; i < 3; i++ {
		tn, err := Listen("127.0.0.1:0", simnet.LAN100)
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		nets = append(nets, tn)
		nd := core.NewNode(tn.Addr(), id.Rand128(&state), tn, core.Config{Replicas: 1})
		nd.AttachCtl()
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			nd.Overlay().Stabilize()
		}
	}
	for _, nd := range nodes {
		nd.SyncReplicas()
	}

	// Direct mount I/O across TCP nodes.
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/wan/hello.txt", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	data, _, err := nodes[2].NewMount().ReadFile("/wan/hello.txt")
	if err != nil || string(data) != "over tcp" {
		t.Fatalf("read %q err=%v", data, err)
	}

	// External koshactl client against a remote daemon.
	cli := Dialer("ctl-client", simnet.LAN100)
	defer cli.Close()
	ctl := &core.CtlClient{Net: cli, From: cli.Addr(), To: nodes[1].Addr()}
	if _, err := ctl.WriteFile("/wan/ctl.txt", []byte("from koshactl")); err != nil {
		t.Fatal(err)
	}
	got, _, err := ctl.ReadFile("/wan/ctl.txt")
	if err != nil || string(got) != "from koshactl" {
		t.Fatalf("ctl read %q err=%v", got, err)
	}
	ents, _, err := ctl.List("/wan")
	if err != nil || len(ents) != 2 {
		t.Fatalf("ctl list %v err=%v", ents, err)
	}
	st, _, err := ctl.Status()
	if err != nil || st.NodeID == "" {
		t.Fatalf("ctl status %+v err=%v", st, err)
	}
	if _, err := ctl.RemoveAll("/wan"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctl.Stat("/wan"); err == nil {
		t.Fatal("stat of removed dir should fail")
	}
}

// TestStalePooledConnRedials covers the pool-staleness path: a peer that
// closed an idle pooled connection (restart, keepalive timeout) must not
// surface as unreachable when a fresh dial would succeed. The test warms
// the pool, kills the pooled socket out from under the client, and expects
// the next call to transparently evict, redial, and succeed.
func TestStalePooledConnRedials(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, simnet.Cost(1), nil
	})

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	if _, _, err := cli.Call("client", srv.Addr(), "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Kill the idle socket the way a restarted peer would: the link survives
	// in the pool but its transport is dead.
	cli.mu.Lock()
	idle := cli.idle[srv.Addr()]
	cli.mu.Unlock()
	if len(idle) != 1 {
		t.Fatalf("%d idle connections after one call, want 1", len(idle))
	}
	pooled := idle[0]
	pooled.c.Close()

	resp, _, err := cli.Call("client", srv.Addr(), "echo", []byte("after"))
	if err != nil {
		t.Fatalf("call after pooled-conn death: %v", err)
	}
	if string(resp) != "after" {
		t.Fatalf("resp = %q", resp)
	}

	// The dead conn must have been evicted, not resurrected.
	cli.mu.Lock()
	repooled := cli.idle[srv.Addr()]
	cli.mu.Unlock()
	for _, l := range repooled {
		if l == pooled {
			t.Fatal("stale connection still pooled")
		}
	}
}

// TestTimeoutOnPooledConnIsNotResent: a call that times out on a reused
// connection is not taken for a stale one. The peer may still be running
// the request, so the call fails at once as unreachable and the request is
// not sent again: the handler runs once.
func TestTimeoutOnPooledConnIsNotResent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const timeout = 200 * time.Millisecond
	var runs atomic.Int32
	done := make(chan struct{})
	srv.Register(srv.Addr(), "slow", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		if string(req) == "slow" && runs.Add(1) == 1 {
			time.Sleep(timeout + timeout/2)
			close(done)
		}
		return req, simnet.Cost(1), nil
	})

	cli := Dialer("client", simnet.LAN100)
	cli.Timeout = timeout
	defer cli.Close()
	if _, _, err := cli.Call("client", srv.Addr(), "slow", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Call("client", srv.Addr(), "slow", []byte("slow")); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	<-done
	if n := runs.Load(); n != 1 {
		t.Fatalf("the handler ran %d times, want once", n)
	}
}

// TestFreshDialFailureIsUnreachable ensures the redial loop does not spin:
// an IO failure on a connection that was just dialed reports unreachability
// immediately.
func TestFreshDialFailureIsUnreachable(t *testing.T) {
	// A listener that accepts and instantly closes: dials succeed but the
	// first exchange always fails, so every attempt is on a "fresh" conn.
	ln, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close() // nothing is listening anymore

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	if _, _, err := cli.Call("client", addr, "echo", []byte("x")); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

// frameCounter sits on one pooled connection and counts the length-prefixed
// frames that cross it in each direction.
type frameCounter struct {
	net.Conn
	out, in   int // frames written, frames read
	outLeft   int // bytes of the current outbound frame still to come
	inLeft    int
	outH, inH []byte // partial 4-byte headers
}

// scan advances one direction's frame parser over p.
func scan(p []byte, left *int, hdr *[]byte, frames *int) {
	for len(p) > 0 {
		if *left > 0 {
			n := min(*left, len(p))
			*left -= n
			p = p[n:]
			continue
		}
		n := min(4-len(*hdr), len(p))
		*hdr = append(*hdr, p[:n]...)
		p = p[n:]
		if len(*hdr) == 4 {
			*left = int(binary.BigEndian.Uint32(*hdr))
			*hdr = (*hdr)[:0]
			*frames++
		}
	}
}

func (f *frameCounter) Write(p []byte) (int, error) {
	n, err := f.Conn.Write(p)
	scan(p[:n], &f.outLeft, &f.outH, &f.out)
	return n, err
}

func (f *frameCounter) Read(p []byte) (int, error) {
	n, err := f.Conn.Read(p)
	scan(p[:n], &f.inLeft, &f.inH, &f.in)
	return n, err
}

// TestLookupPathIsOneFrameEachWay runs the whole stack over loopback TCP: a
// 5-component Mount.LookupPath whose placement is already resolved costs one
// NFS RPC, which is one frame out and one frame back on the socket to the
// storing node, and leaves exactly one server span, nfs.LOOKUPPATH, under
// the operation's trace id.
func TestLookupPathIsOneFrameEachWay(t *testing.T) {
	state := uint64(2024)
	var nodes []*core.Node
	var nets []*Net
	for i := 0; i < 3; i++ {
		tn, err := Listen("127.0.0.1:0", simnet.LAN100)
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		nets = append(nets, tn)
		nd := core.NewNode(tn.Addr(), id.Rand128(&state), tn, core.Config{NoMetadataCache: true})
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			nd.Overlay().Stabilize()
		}
	}

	// Find a home directory another node stores, so the lookup crosses a
	// socket (a node's calls to itself are dispatched in process).
	m := nodes[0].NewMount()
	var file string
	var holder simnet.Addr
	for k := 0; k < 16 && holder == ""; k++ {
		file = fmt.Sprintf("/home%d/a/b/c/notes.txt", k)
		if _, err := m.WriteFile(file, []byte("five deep")); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := m.LookupPath(file); err != nil { // also warms the resolver
			t.Fatal(err)
		}
		if by := nodes[0].Tracer().Recent(1)[0].ServedBy; by != string(nodes[0].Addr()) {
			holder = simnet.Addr(by)
		}
	}
	if holder == "" {
		t.Fatal("every candidate directory hashed to the client's own node")
	}
	// Count frames on the idle connection the next call takes: the last one
	// returned.
	nets[0].mu.Lock()
	idle := nets[0].idle[holder]
	if len(idle) == 0 {
		nets[0].mu.Unlock()
		t.Fatalf("no idle connection to %s", holder)
	}
	pooled := idle[len(idle)-1]
	fc := &frameCounter{Conn: pooled.c}
	pooled.c = fc
	nets[0].mu.Unlock()

	rpcs := nodes[0].NFSStats().RPCs
	walks := nodes[0].NFSProcCount(nfs.ProcLookupPath)
	vh, attr, _, err := m.LookupPath(file)
	if err != nil || attr.Size != 9 {
		t.Fatalf("lookup %s: %+v err=%v", file, attr, err)
	}
	m.Forget(vh)
	if d, w := nodes[0].NFSStats().RPCs-rpcs, nodes[0].NFSProcCount(nfs.ProcLookupPath)-walks; d != 1 || w != 1 {
		t.Errorf("a 5-component lookup issued %d NFS RPCs (%d LOOKUPPATH), want exactly one", d, w)
	}
	if fc.out != 1 || fc.in != 1 {
		t.Errorf("%d frames out, %d back on the socket to %s, want 1 and 1", fc.out, fc.in, holder)
	}

	tr := nodes[0].Tracer().Recent(1)[0]
	if tr.Path != file || tr.Hi == 0 && tr.Lo == 0 {
		t.Fatalf("newest trace is %s %s (id %x:%x), want the lookup's", tr.Op, tr.Path, tr.Hi, tr.Lo)
	}
	var spans []string
	for _, nd := range nodes {
		for _, rec := range nd.Tracer().SpansFor(tr.Hi, tr.Lo) {
			if rec.Node != string(holder) || rec.Parent != tr.Span {
				t.Errorf("span %s recorded by %s under parent %x, want %s under the op's root span %x",
					rec.Name, rec.Node, rec.Parent, holder, tr.Span)
			}
			spans = append(spans, rec.Name)
		}
	}
	if len(spans) != 1 || spans[0] != "nfs.LOOKUPPATH" {
		t.Errorf("server spans under the lookup's trace id = %v, want exactly [nfs.LOOKUPPATH]", spans)
	}
}

// TestFramesMatchTheEnvelope: the bytes on the socket are the envelope as the
// wire codec lays it out, item by item — a request is length, from, service,
// the three trace words and the payload as an opaque; a reply is length, ok,
// cost and the handler's reply as an opaque or its error as a string — at
// every padding, although the head is built in the connection's scratch and
// the payload written after it from where it lies.
func TestFramesMatchTheEnvelope(t *testing.T) {
	srv := Dialer("server", simnet.LAN100)
	srv.Register(srv.Addr(), "echo", func(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, simnet.Cost(42), nil
	})
	srv.Register(srv.Addr(), "fail", func(simnet.Addr, []byte) ([]byte, simnet.Cost, error) {
		return nil, simnet.Cost(7), errors.New("handler exploded")
	})
	frame := func(build func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(0)
		build(e)
		return append(binary.BigEndian.AppendUint32(nil, uint32(e.Len())), e.Bytes()...)
	}
	tc := obs.TraceContext{Hi: 0xdead, Lo: 0xbeef, Span: 7}
	_, _, ghostErr := serve(srv, tc, "client", "ghost", nil)
	// A request that lends two bodies whose lengths are not multiples of 4,
	// so the padding after each is the head's.
	lends := wire.NewEncoder(0)
	lends.PutUint32(1)
	lends.PutOpaqueRef(bytes.Repeat([]byte{7}, 5))
	lends.PutString("between")
	lends.PutOpaqueRef(bytes.Repeat([]byte{8}, 1023))
	lends.PutUint32(2)
	flat := func(b []byte) wire.Frame { return wire.Frame{Head: b} }
	for _, c := range []struct {
		service string
		req     wire.Frame
		reply   func(e *wire.Encoder, req []byte)
	}{
		{"echo", flat(nil), nil},
		{"echo", flat([]byte("a")), nil},
		{"echo", flat([]byte("abc")), nil},
		{"echo", flat([]byte("abcd")), nil},
		{"echo", flat(bytes.Repeat([]byte{9}, 1021)), nil},
		{"echo", lends.Frame(), nil},
		{"fail", flat([]byte("x")), func(e *wire.Encoder, _ []byte) {
			e.PutBool(false)
			e.PutInt64(7)
			e.PutString("handler exploded")
		}},
		{"ghost", flat([]byte("xy")), func(e *wire.Encoder, _ []byte) {
			e.PutBool(false)
			e.PutInt64(int64(time.Second))
			e.PutString(ghostErr.Error())
		}},
	} {
		if c.reply == nil {
			c.reply = func(e *wire.Encoder, req []byte) {
				e.PutBool(true)
				e.PutInt64(42)
				e.PutOpaque(req)
			}
		}
		joined := c.req.AppendTo(nil)
		sent := wireBytes(t, tc, c.service, wire.Lend(c.req))
		wire.EndLend(c.req)
		want := frame(func(e *wire.Encoder) {
			e.PutString("client")
			e.PutString(c.service)
			e.PutUint64(tc.Hi)
			e.PutUint64(tc.Lo)
			e.PutUint64(tc.Span)
			e.PutOpaque(joined)
		})
		if !bytes.Equal(sent, want) {
			t.Errorf("%s %d bytes in %d lent: request frame\n%x, want\n%x", c.service, len(joined), len(c.req.Lent), sent, want)
		}
		var replied bytes.Buffer
		srv.serveLink(&link{c: streamConn{r: bytes.NewReader(sent), w: &replied}})
		if want := frame(func(e *wire.Encoder) { c.reply(e, joined) }); !bytes.Equal(replied.Bytes(), want) {
			t.Errorf("%s %d bytes: reply frame\n%x, want\n%x", c.service, len(joined), replied.Bytes(), want)
		}
	}
}

// TestRoundTripAllocs pins what a loopback round trip allocates, caller and
// server together: the frame each side reads off its socket, and nothing
// for the envelope, at 64 B and 32 KiB alike. It was 12 and 13 while every
// frame was built in an encoder of its own, the payload copied into the
// envelope and out of it each way.
func TestRoundTripAllocs(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) { return req, 0, nil })
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	racetest.SkipAllocs(t)
	// Two flat requests and one whose 32 KiB body is lent: it goes out from
	// the caller's array, so it costs no more than the flat one.
	lent := wire.NewEncoder(16)
	lent.PutUint32(3)
	lent.PutOpaqueRef(bytes.Repeat([]byte{0xa5}, 32<<10))
	for _, req := range []wire.Frame{
		{Head: bytes.Repeat([]byte{0x5a}, 64)},
		{Head: bytes.Repeat([]byte{0x5a}, 32<<10)},
		lent.Frame(),
	} {
		var resp []byte
		call := func() {
			resp, _, err = cli.Call("client", srv.Addr(), "echo", wire.Lend(req))
			wire.EndLend(req)
		}
		call() // dial, and size the connections' scratch
		n := testing.AllocsPerRun(200, call)
		if want := req.AppendTo(nil); err != nil || !bytes.Equal(resp, want) {
			t.Fatalf("%d-byte echo (%d lent): %d bytes back, err=%v", len(want), len(req.Lent), len(resp), err)
		}
		if n > 4 {
			t.Errorf("a %d-byte loopback round trip (%d lent) allocates %.1f times, want <= 4", req.Len(), len(req.Lent), n)
		}
	}
}

// BenchmarkRoundTrip measures one loopback echo; run with -benchmem.
func BenchmarkRoundTrip(b *testing.B) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		b.Skipf("no loopback TCP: %v", err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) { return req, 0, nil })
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	if _, _, err := cli.Call("client", srv.Addr(), "echo", nil); err != nil { // dial outside the timings
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		size int
	}{{"64B", 64}, {"32KiB", 32 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			req := make([]byte, c.size)
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := cli.Call("client", srv.Addr(), "echo", req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadIntoOverTCP: a READ into a sink over TCP reads the same bytes as
// over simnet. Nothing changes on the wire: the server reads a flat request
// and sends a flat reply, which the client copies into the destination's
// room. A call the listener makes to itself dispatches in process, where the
// server fills the sink.
func TestReadIntoOverTCP(t *testing.T) {
	payload := make([]byte, 40<<10+5)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	fs := localfs.New(0, simnet.Disk7200)
	if err := fs.WriteFile("/f", payload); err != nil {
		t.Fatal(err)
	}
	attr, err := fs.LookupPath("/f")
	if err != nil {
		t.Fatal(err)
	}
	srv := nfs.NewServer(fs, 1)
	fh := nfs.Handle{Gen: 1, Ino: attr.Ino}
	sim := simnet.New(simnet.LAN100)
	srv.Attach(sim, "srv")
	sim.AddNode("cli")
	tcp, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer tcp.Close()
	srv.Attach(tcp, tcp.Addr())
	dialer := Dialer("cli", simnet.LAN100)
	defer dialer.Close()
	for _, c := range []struct {
		name string
		cl   nfs.Client
		to   simnet.Addr
	}{
		{"simnet", nfs.NewClient(sim, "cli"), "srv"},
		{"tcp", nfs.NewClient(dialer, "cli"), tcp.Addr()},
		{"tcp loopback", nfs.NewClient(tcp, tcp.Addr()), tcp.Addr()},
	} {
		for _, off := range []int64{0, 32 << 10} {
			dst := make([]byte, 2, 2+32<<10)
			got, eof, _, err := c.cl.ReadInto(c.to, fh, off, 32<<10, dst)
			want := payload[off:min(off+32<<10, int64(len(payload)))]
			if err != nil || !bytes.Equal(got[2:], want) || eof != (off > 0) || &got[0] != &dst[0] {
				t.Errorf("%s at %d: %d bytes eof=%v err=%v, in dst %v", c.name, off, len(got), eof, err, len(got) > 0 && &got[0] == &dst[0])
			}
		}
	}
}

// TestCrossCallsDoNotWaitOnEachOther: two transports call each other at the
// same moment, and each handler calls back into its caller before it
// answers, as two neighbours refreshing each other do when each one's pull
// lists the other's copy. Every call gets a connection of its own, so all
// four finish far inside the deadline. With one connection per peer, held
// for a whole call, each callback waited on the other side's outer call
// until the deadline and failed.
func TestCrossCallsDoNotWaitOnEachOther(t *testing.T) {
	var nets [2]*Net
	for i := range nets {
		n, err := Listen("127.0.0.1:0", simnet.LAN100)
		if err != nil {
			t.Skipf("no loopback TCP: %v", err)
		}
		defer n.Close()
		nets[i] = n
	}
	// Each handler calls back only once both outer calls are in flight.
	both := make(chan struct{})
	var arrived atomic.Int32
	for _, n := range nets {
		n.Register(n.Addr(), "back", func(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
			return req, 0, nil
		})
		n.Register(n.Addr(), "outer", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-time.After(n.Timeout):
				return nil, 0, errors.New("the other outer call never arrived")
			}
			resp, _, err := n.Call(n.Addr(), from, "back", req)
			return resp, 0, err
		})
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(nets))
	for i, n := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, err := n.Call(n.Addr(), nets[1-i].Addr(), "outer", []byte{byte(i)})
			if err == nil && !bytes.Equal(resp, []byte{byte(i)}) {
				err = fmt.Errorf("reply %v", resp)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("outer call from %d: %v", i, err)
		}
	}
	if d, limit := time.Since(start), nets[0].Timeout/5; d > limit {
		t.Fatalf("the crossed calls took %v, want well inside the %v deadline (< %v)", d, nets[0].Timeout, limit)
	}
}

// rottedReplicaOverTCP is three koshads over real sockets, whose transports
// use the given deadline, holding /tcpsync with one replica, and that
// replica's copy of the blob rotted in place. It returns the subtree's primary
// and replica and its physical root.
func rottedReplicaOverTCP(t *testing.T, timeout time.Duration) (primary, rep *core.Node, root string) {
	t.Helper()
	state := uint64(4242)
	var nodes []*core.Node
	for i := 0; i < 3; i++ {
		tn, err := Listen("127.0.0.1:0", simnet.LAN100)
		if err != nil {
			t.Skipf("no loopback TCP: %v", err)
		}
		t.Cleanup(func() { tn.Close() })
		tn.Timeout = timeout
		nd := core.NewNode(tn.Addr(), id.Rand128(&state), tn, core.Config{Replicas: 1})
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			nd.Overlay().Stabilize()
		}
	}
	m := nodes[0].NewMount()
	blob := bytes.Repeat([]byte("over real sockets "), 16<<10)
	for p, data := range map[string][]byte{"/tcpsync/a.txt": []byte("a"), "/tcpsync/sub/blob.bin": blob} {
		if _, err := m.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
	}
	pl, _, err := nodes[0].ResolvePath("/tcpsync")
	if err != nil {
		t.Fatal(err)
	}
	byAddr := map[simnet.Addr]*core.Node{}
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	primary, root = byAddr[pl.Node], pl.SubtreeRoot()
	rep = byAddr[primary.Overlay().ReplicaCandidates(1)[0].Addr]
	rotted := core.RepPath(root + "/sub/blob.bin")
	if got, err := rep.Store().ReadFile(rotted); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("the replica never received the blob: %d bytes, %v", len(got), err)
	}
	if err := rep.Store().WriteFile(rotted, []byte("rot")); err != nil {
		t.Fatal(err)
	}
	return primary, rep, root
}

// wantPulled fails unless rep's replica of root is the primary's, unflagged,
// rebuilt by exactly one file pull.
func wantPulled(t *testing.T, primary, rep *core.Node, root string) {
	t.Helper()
	want := primary.Repl().DigestLocal(root, true)
	got := rep.Repl().DigestLocal(core.RepPath(root), true)
	if !got.Exists || got.Flag || got.Root != want.Root {
		t.Fatalf("replica after the refresh: %+v, want the primary's digest %x unflagged", got, want.Root)
	}
	if n := rep.Obs().Counter("repl.fetch.bytes").Load(); n == 0 {
		t.Fatal("the replica fetched nothing from the primary")
	}
	if n := rep.Obs().Counter("repl.sync.files.sent").Load(); n != 1 {
		t.Fatalf("the replica rebuilt %d files, want the rotted one", n)
	}
}

// TestRefreshPullsOverTCP: a replica's copy rots in place, and the primary's
// Sync has the replica pull the primary's copy over real sockets — the
// pull's listing and block calls go back into the primary while the primary
// waits on the kPull. Afterwards the replica's root digest is the primary's.
func TestRefreshPullsOverTCP(t *testing.T) {
	primary, rep, root := rottedReplicaOverTCP(t, 5*time.Second)
	primary.SyncReplicas()
	wantPulled(t, primary, rep, root)
}

// TestPullOutlivingItsDeadlineIsNotDoubled: a replica's pull runs longer than
// the transport deadline, so the primary's kPull fails while the replica
// keeps pulling; the transport does not resend a timed-out request. The
// next Sync's kPull, which finds the copy flagged, is answered busy at once
// instead of starting a second walk over the same copy. The first pull then
// completes alone: the copy is the primary's, unflagged, and one file was
// rebuilt.
func TestPullOutlivingItsDeadlineIsNotDoubled(t *testing.T) {
	const deadline = 500 * time.Millisecond
	primary, rep, root := rottedReplicaOverTCP(t, deadline)
	held, release := make(chan struct{}), make(chan struct{})
	var fetches atomic.Int32
	rep.Repl().SetFetchHook(func(simnet.Addr, int) {
		if fetches.Add(1) == 1 {
			close(held)
			<-release
		}
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	primary.SyncReplicas() // returns once the kPull hits the deadline
	select {
	case <-held:
	case <-time.After(5 * deadline):
		t.Fatal("the replica never started pulling")
	}
	// The failed kPull marked the replica dead at the primary; it is back
	// among the candidates after stabilisation.
	for round := 0; primary.Overlay().ReplicaCandidates(1)[0].Addr != rep.Addr(); round++ {
		if round == 10 {
			t.Fatal("the replica never came back among the primary's candidates")
		}
		primary.Overlay().Stabilize()
		rep.Overlay().Stabilize()
	}
	misses := primary.Obs().Counter("repl.sync.digest.misses").Load()
	start := time.Now()
	primary.SyncReplicas()
	if primary.Obs().Counter("repl.sync.digest.misses").Load() == misses {
		t.Fatal("the second Sync did not find the replica's copy behind")
	}
	if d := time.Since(start); d >= deadline {
		t.Fatalf("the second Sync took %v: its kPull waited instead of being answered busy", d)
	}
	if n := fetches.Load(); n != 1 {
		t.Fatalf("%d CHUNK_FETCH round trips while the first pull was held, want its one: a second walk ran", n)
	}

	close(release)
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		if got := rep.Repl().DigestLocal(core.RepPath(root), true); got.Exists && !got.Flag {
			break
		}
		if time.Since(start) > 10*deadline {
			t.Fatal("the first pull never completed")
		}
	}
	wantPulled(t, primary, rep, root)
}

// TestFourMiBReadIsOneFrameEachWay: the reply to a READ of a 4 MiB window,
// the data and the words ahead of it, fits in frameStep, so over loopback
// TCP the READ allocates the server's reply frame and the client's read
// frame and little else. When frameStep was 4 MiB flat, the client read
// the first 4 MiB, then allocated the whole frame again and copied it over:
// 3.00 times the bytes.
func TestFourMiBReadIsOneFrameEachWay(t *testing.T) {
	const count = 4 << 20
	fs := localfs.New(0, simnet.Disk7200)
	if err := fs.WriteFile("/f", bytes.Repeat([]byte{0x3c}, count+1)); err != nil {
		t.Fatal(err)
	}
	attr, err := fs.LookupPath("/f")
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer tcp.Close()
	nfs.NewServer(fs, 1).Attach(tcp, tcp.Addr())
	dialer := Dialer("cli", simnet.LAN100)
	defer dialer.Close()
	racetest.SkipAllocs(t)
	cl, fh := nfs.NewClient(dialer, "cli"), nfs.Handle{Gen: 1, Ino: attr.Ino}
	read := func() {
		data, eof, _, err := cl.Read(tcp.Addr(), fh, 0, count)
		if err != nil || len(data) != count || eof {
			t.Fatalf("READ of %d bytes: %d bytes, eof=%v, err=%v", count, len(data), eof, err)
		}
	}
	least := uint64(math.MaxUint64)
	for range 5 {
		runtime.GC()
		read()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if ratio := float64(least) / count; ratio > 2.05 {
		t.Errorf("a %d-byte READ over loopback TCP allocates %d bytes, %.2f times its data, want <= 2.05", count, least, ratio)
	}
}
