package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
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

	// Kill the pooled socket the way a restarted peer would: the cached
	// conn object survives in the pool but its transport is dead.
	cli.mu.Lock()
	pooled := cli.conns[srv.Addr()]
	cli.mu.Unlock()
	if pooled == nil {
		t.Fatal("no pooled connection after first call")
	}
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
	repooled := cli.conns[srv.Addr()]
	cli.mu.Unlock()
	if repooled == pooled {
		t.Fatal("stale connection still pooled")
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
	nets[0].mu.Lock()
	pooled := nets[0].conns[holder]
	nets[0].mu.Unlock()
	if pooled == nil {
		t.Fatalf("no pooled connection to %s", holder)
	}
	fc := &frameCounter{Conn: pooled.c}
	pooled.mu.Lock()
	pooled.c = fc
	pooled.mu.Unlock()

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
	for _, c := range []struct {
		service string
		req     []byte
		reply   func(e *wire.Encoder, req []byte)
	}{
		{"echo", nil, nil},
		{"echo", []byte("a"), nil},
		{"echo", []byte("abc"), nil},
		{"echo", []byte("abcd"), nil},
		{"echo", bytes.Repeat([]byte{9}, 1021), nil},
		{"fail", []byte("x"), func(e *wire.Encoder, _ []byte) {
			e.PutBool(false)
			e.PutInt64(7)
			e.PutString("handler exploded")
		}},
		{"ghost", []byte("xy"), func(e *wire.Encoder, _ []byte) {
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
		sent := wireBytes(t, tc, c.service, c.req)
		want := frame(func(e *wire.Encoder) {
			e.PutString("client")
			e.PutString(c.service)
			e.PutUint64(tc.Hi)
			e.PutUint64(tc.Lo)
			e.PutUint64(tc.Span)
			e.PutOpaque(c.req)
		})
		if !bytes.Equal(sent, want) {
			t.Errorf("%s %d bytes: request frame\n%x, want\n%x", c.service, len(c.req), sent, want)
		}
		var replied bytes.Buffer
		srv.serveLink(&link{c: streamConn{r: bytes.NewReader(sent), w: &replied}})
		if want := frame(func(e *wire.Encoder) { c.reply(e, c.req) }); !bytes.Equal(replied.Bytes(), want) {
			t.Errorf("%s %d bytes: reply frame\n%x, want\n%x", c.service, len(c.req), replied.Bytes(), want)
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
	for _, size := range []int{64, 32 << 10} {
		req := bytes.Repeat([]byte{0x5a}, size)
		var resp []byte
		call := func() { resp, _, err = cli.Call("client", srv.Addr(), "echo", req) }
		call() // dial, and size the connections' scratch
		n := testing.AllocsPerRun(200, call)
		if err != nil || !bytes.Equal(resp, req) {
			t.Fatalf("%d-byte echo: %d bytes back, err=%v", size, len(resp), err)
		}
		if n > 4 {
			t.Errorf("a %d-byte loopback round trip allocates %.1f times, want <= 4", size, n)
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
