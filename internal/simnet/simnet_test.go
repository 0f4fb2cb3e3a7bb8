package simnet

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

func echoHandler(procCost Cost) Handler {
	return func(from Addr, req []byte) ([]byte, Cost, error) {
		return req, procCost, nil
	}
}

func TestCallRoundTrip(t *testing.T) {
	n := New(LAN100)
	n.Register("b", "echo", echoHandler(0))
	n.AddNode("a")
	resp, cost, err := n.Call("a", "b", "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello" {
		t.Fatalf("resp = %q", resp)
	}
	if cost < Cost(2*LAN100.Propagation) {
		t.Fatalf("cost %v below two propagation delays", cost)
	}
}

func TestLocalCallSkipsLink(t *testing.T) {
	n := New(LAN100)
	proc := Cost(3 * time.Millisecond)
	n.Register("a", "echo", echoHandler(proc))
	_, cost, err := n.Call("a", "a", "echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if cost != proc {
		t.Fatalf("local call cost = %v, want %v", cost, proc)
	}
}

func TestRemoteCostExceedsLocal(t *testing.T) {
	n := New(LAN100)
	n.Register("a", "echo", echoHandler(0))
	n.Register("b", "echo", echoHandler(0))
	_, local, _ := n.Call("a", "a", "echo", []byte("x"))
	_, remote, _ := n.Call("a", "b", "echo", []byte("x"))
	if remote <= local {
		t.Fatalf("remote %v should exceed local %v", remote, local)
	}
}

func TestLargeMessagePaysBandwidth(t *testing.T) {
	n := New(LAN100)
	n.Register("b", "echo", echoHandler(0))
	n.AddNode("a")
	small := make([]byte, 10)
	big := make([]byte, 1<<20)
	_, cs, _ := n.Call("a", "b", "echo", small)
	_, cb, _ := n.Call("a", "b", "echo", big)
	// 1 MiB at 12.5 MB/s each way is ~168 ms; must dominate.
	if cb < 10*cs {
		t.Fatalf("big-message cost %v not >> small-message cost %v", cb, cs)
	}
}

func TestDownNodeUnreachable(t *testing.T) {
	n := New(LAN100)
	n.Register("b", "echo", echoHandler(0))
	n.AddNode("a")
	n.SetDown("b", true)
	_, cost, err := n.Call("a", "b", "echo", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if cost != n.Timeout {
		t.Fatalf("cost = %v, want timeout %v", cost, n.Timeout)
	}
	if !n.IsDown("b") {
		t.Fatal("IsDown(b) should be true")
	}
	n.SetDown("b", false)
	if _, _, err := n.Call("a", "b", "echo", nil); err != nil {
		t.Fatalf("after revive: %v", err)
	}
}

func TestUnknownNodeAndService(t *testing.T) {
	n := New(LAN100)
	n.AddNode("a")
	if _, _, err := n.Call("a", "ghost", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown node err = %v", err)
	}
	n.AddNode("b")
	if _, _, err := n.Call("a", "b", "echo", nil); !errors.Is(err, ErrNoSuchService) {
		t.Fatalf("unknown service err = %v", err)
	}
}

func TestPartition(t *testing.T) {
	n := New(LAN100)
	n.Register("a", "echo", echoHandler(0))
	n.Register("b", "echo", echoHandler(0))
	n.SetPartition(func(x, y Addr) bool { return x == "a" && y == "b" })
	if _, _, err := n.Call("a", "b", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned call err = %v", err)
	}
	// Reverse direction unaffected.
	if _, _, err := n.Call("b", "a", "echo", nil); err != nil {
		t.Fatalf("reverse call: %v", err)
	}
	// Self-call unaffected even if predicate is badly written.
	n.SetPartition(func(x, y Addr) bool { return true })
	if _, _, err := n.Call("a", "a", "echo", nil); err != nil {
		t.Fatalf("self call under partition: %v", err)
	}
	n.SetPartition(nil)
	if _, _, err := n.Call("a", "b", "echo", nil); err != nil {
		t.Fatalf("after clearing partition: %v", err)
	}
}

// TestPartitionAsymmetric pins the directional contract of SetPartition:
// blocking A->B must leave B->A fully usable, including replies flowing back
// to B (the response of a B-initiated exchange is not a separate A->B send).
func TestPartitionAsymmetric(t *testing.T) {
	n := New(LAN100)
	n.Register("a", "echo", echoHandler(0))
	n.Register("b", "echo", echoHandler(0))
	n.SetPartition(func(x, y Addr) bool { return x == "a" && y == "b" })

	for i := 0; i < 3; i++ {
		if _, _, err := n.Call("a", "b", "echo", []byte("x")); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("a->b attempt %d: err = %v, want ErrUnreachable", i, err)
		}
		resp, _, err := n.Call("b", "a", "echo", []byte("y"))
		if err != nil {
			t.Fatalf("b->a attempt %d: %v", i, err)
		}
		if string(resp) != "y" {
			t.Fatalf("b->a resp = %q", resp)
		}
	}
	// Third parties are unaffected in both directions.
	n.Register("c", "echo", echoHandler(0))
	if _, _, err := n.Call("a", "c", "echo", nil); err != nil {
		t.Fatalf("a->c: %v", err)
	}
	if _, _, err := n.Call("c", "b", "echo", nil); err != nil {
		t.Fatalf("c->b: %v", err)
	}
}

func TestFaultDrop(t *testing.T) {
	n := New(LAN100)
	var delivered int
	n.Register("b", "echo", func(from Addr, req []byte) ([]byte, Cost, error) {
		delivered++
		return req, 0, nil
	})
	n.AddNode("a")
	n.SetFaults(func(from, to Addr, service string) LinkFault {
		return LinkFault{Drop: from == "a" && to == "b"}
	})
	_, cost, err := n.Call("a", "b", "echo", []byte("x"))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dropped call err = %v, want ErrUnreachable", err)
	}
	if cost != n.Timeout {
		t.Fatalf("dropped call cost = %v, want timeout %v", cost, n.Timeout)
	}
	if delivered != 0 {
		t.Fatalf("handler ran %d times on a dropped exchange", delivered)
	}
	if d, _, _ := n.FaultStats(); d != 1 {
		t.Fatalf("dropped counter = %d, want 1", d)
	}
	// Reverse direction and clearing both restore delivery.
	if _, _, err := n.Call("b", "b", "echo", nil); err != nil {
		t.Fatalf("local call under faults: %v", err)
	}
	n.SetFaults(nil)
	if _, _, err := n.Call("a", "b", "echo", nil); err != nil {
		t.Fatalf("after clearing faults: %v", err)
	}
}

func TestFaultDup(t *testing.T) {
	n := New(LAN100)
	var delivered int
	n.Register("b", "count", func(from Addr, req []byte) ([]byte, Cost, error) {
		delivered++
		return []byte{byte(delivered)}, 0, nil
	})
	n.AddNode("a")
	n.SetFaults(func(from, to Addr, service string) LinkFault {
		return LinkFault{Dup: true}
	})
	resp, _, err := n.Call("a", "b", "count", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("handler delivered %d times, want 2 (original + dup)", delivered)
	}
	if len(resp) != 1 || resp[0] != 1 {
		t.Fatalf("caller saw resp %v, want the first reply [1]", resp)
	}
	if _, d, _ := n.FaultStats(); d != 1 {
		t.Fatalf("duped counter = %d, want 1", d)
	}
}

func TestFaultDelay(t *testing.T) {
	n := New(LAN100)
	n.Register("b", "echo", echoHandler(0))
	n.AddNode("a")
	_, base, err := n.Call("a", "b", "echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	spike := Cost(250 * time.Millisecond)
	n.SetFaults(func(from, to Addr, service string) LinkFault {
		return LinkFault{Delay: spike}
	})
	_, slow, err := n.Call("a", "b", "echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if slow != base+spike {
		t.Fatalf("delayed cost = %v, want %v + %v", slow, base, spike)
	}
	if _, _, d := n.FaultStats(); d != 1 {
		t.Fatalf("delayed counter = %d, want 1", d)
	}
}

// Local calls bypass fault injection entirely, like partitions: the loopback
// hop between a client and its own koshad never crosses the network.
func TestFaultSkipsLocalCalls(t *testing.T) {
	n := New(LAN100)
	var delivered int
	n.Register("a", "echo", func(from Addr, req []byte) ([]byte, Cost, error) {
		delivered++
		return req, 0, nil
	})
	n.SetFaults(func(from, to Addr, service string) LinkFault {
		return LinkFault{Drop: true, Dup: true}
	})
	if _, _, err := n.Call("a", "a", "echo", nil); err != nil {
		t.Fatalf("local call under blanket faults: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("local delivery count = %d, want exactly 1", delivered)
	}
}

func TestHandlerError(t *testing.T) {
	n := New(LAN100)
	boom := errors.New("boom")
	n.Register("b", "fail", func(from Addr, req []byte) ([]byte, Cost, error) {
		return nil, Cost(time.Millisecond), boom
	})
	n.AddNode("a")
	_, cost, err := n.Call("a", "b", "fail", []byte("req"))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if cost < Cost(time.Millisecond) {
		t.Fatalf("error path must still carry cost, got %v", cost)
	}
}

func TestNestedCallsAreReentrant(t *testing.T) {
	// b's handler calls c; must not deadlock and must compose costs.
	n := New(LAN100)
	n.Register("c", "leaf", echoHandler(Cost(time.Millisecond)))
	n.Register("b", "mid", func(from Addr, req []byte) ([]byte, Cost, error) {
		resp, cost, err := n.Call("b", "c", "leaf", req)
		return resp, cost, err
	})
	n.AddNode("a")
	resp, cost, err := n.Call("a", "b", "mid", []byte("deep"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "deep" {
		t.Fatalf("resp = %q", resp)
	}
	// Two round trips plus processing: at least 4 propagation delays + 1 ms.
	min := Cost(4*LAN100.Propagation) + Cost(time.Millisecond)
	if cost < min {
		t.Fatalf("nested cost %v below %v", cost, min)
	}
}

func TestStatsCounters(t *testing.T) {
	n := New(LAN100)
	n.Register("b", "echo", echoHandler(0))
	n.AddNode("a")
	n.Call("a", "b", "echo", make([]byte, 100))
	n.SetDown("b", true)
	n.Call("a", "b", "echo", make([]byte, 50))
	s := n.Stats()
	if s.Messages != 2 {
		t.Errorf("messages = %d", s.Messages)
	}
	if s.Failures != 1 {
		t.Errorf("failures = %d", s.Failures)
	}
	if s.Bytes != 250 { // 100 req + 100 resp + 50 failed req
		t.Errorf("bytes = %d", s.Bytes)
	}
	n.ResetStats()
	if s := n.Stats(); s.Messages != 0 || s.Bytes != 0 || s.Failures != 0 {
		t.Errorf("reset failed: %+v", s)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := New(LAN100)
	n.Register("srv", "echo", echoHandler(0))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addr := Addr(rune('a' + i%8))
			n.AddNode(addr)
			for j := 0; j < 50; j++ {
				if _, _, err := n.Call(addr, "srv", "echo", []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s := n.Stats(); s.Messages != 32*50 {
		t.Errorf("messages = %d", s.Messages)
	}
}

func TestSeqParCombinators(t *testing.T) {
	a, b, c := Cost(1), Cost(5), Cost(3)
	if Seq(a, b, c) != 9 {
		t.Errorf("Seq = %v", Seq(a, b, c))
	}
	if Par(a, b, c) != 5 {
		t.Errorf("Par = %v", Par(a, b, c))
	}
	if Seq() != 0 || Par() != 0 {
		t.Error("empty combinators should be zero")
	}
}

func TestPropSeqParLaws(t *testing.T) {
	f := func(xs []int16) bool {
		costs := make([]Cost, len(xs))
		var sum Cost
		var max Cost
		for i, x := range xs {
			c := Cost(int64(x) &^ (1 << 15)) // non-negative
			if x < 0 {
				c = Cost(-int64(x))
			}
			costs[i] = c
			sum += c
			if c > max {
				max = c
			}
		}
		return Seq(costs...) == sum && Par(costs...) == max && Par(costs...) <= Seq(costs...)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkModelMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return LAN100.MessageCost(x) <= LAN100.MessageCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiskModelCost(t *testing.T) {
	c0 := Disk7200.OpCost(0)
	if c0 != Cost(Disk7200.PerOp) {
		t.Errorf("zero-byte op = %v", c0)
	}
	c1 := Disk7200.OpCost(35_000_000)
	want := Cost(Disk7200.PerOp) + Cost(time.Second)
	if c1 != want {
		t.Errorf("35 MB op = %v, want %v", c1, want)
	}
}

func BenchmarkCallRemote(b *testing.B) {
	n := New(LAN100)
	n.Register("b", "echo", echoHandler(0))
	n.AddNode("a")
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Call("a", "b", "echo", payload)
	}
}

// Regression test for ResetStats: per-service counters must be zeroed in
// place, never deleted, so a Send racing with a reset can never lose the
// service entry. Run under -race; the final sends must always be visible.
func TestResetStatsConcurrentServiceEntry(t *testing.T) {
	n := New(LAN100)
	n.Register("b", "echo", echoHandler(0))
	n.AddNode("a")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.Call("a", "b", "echo", []byte("x"))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.ResetStats()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// After the race settles, the service entry must still be live: new
	// traffic lands in both the totals and the per-service counters.
	n.ResetStats()
	const k = 5
	for i := 0; i < k; i++ {
		if _, _, err := n.Call("a", "b", "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Stats().Messages; got != k {
		t.Fatalf("total messages after reset = %d, want %d", got, k)
	}
	if got := n.ServiceStats("echo").Messages; got != k {
		t.Fatalf("service messages after reset = %d, want %d (entry lost?)", got, k)
	}
}

// TestLentFrameCountsItsJoinedLength: a request frame that lends its body
// reaches the handler by reference, the body the sender's own array, and is
// counted and charged at its joined length, as the same frame sent flat is.
func TestLentFrameCountsItsJoinedLength(t *testing.T) {
	body := bytes.Repeat([]byte{0x5a}, 10_001)
	lent, flat := wire.NewEncoder(0), wire.NewEncoder(0)
	lent.PutUint32(1)
	lent.PutOpaqueRef(body)
	flat.PutUint32(1)
	flat.PutOpaque(body)
	f := lent.Frame()

	n := New(LAN100)
	var seen *byte
	n.RegisterCtx("b", "svc", func(_ obs.TraceContext, _ Addr, req []byte) ([]byte, Cost, error) {
		var d wire.Decoder
		d.ResetFrame(wire.FrameOf(req))
		d.Uint32()
		if got := d.OpaqueRef(); len(got) > 0 {
			seen = &got[0]
		}
		return []byte("ok"), 0, d.Done()
	})
	_, lentCost, err := n.Call("a", "b", "svc", wire.Lend(f))
	wire.EndLend(f)
	if err != nil {
		t.Fatal(err)
	}
	if seen != &body[0] {
		t.Error("the handler read a copy of the lent body")
	}
	lentStats := n.Stats()
	n.ResetStats()
	_, flatCost, err := n.Call("a", "b", "svc", flat.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lentStats, n.Stats(); got != want || lentCost != flatCost {
		t.Errorf("lent frame: %+v, cost %v; flat frame: %+v, cost %v", got, lentCost, want, flatCost)
	}
	if want := uint64(f.Len() + 2); lentStats.Bytes != want {
		t.Errorf("counted %d bytes, want the joined frame and the reply, %d", lentStats.Bytes, want)
	}
}
