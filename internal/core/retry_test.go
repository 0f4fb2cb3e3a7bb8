package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/simnet"
)

func retryRig(t *testing.T) (*simnet.Network, *obs.Registry) {
	t.Helper()
	net := simnet.New(simnet.LAN100)
	net.Register("srv", "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	net.AddNode("cli")
	return net, obs.NewRegistry()
}

func TestRetrierRecoversFromTransientDrop(t *testing.T) {
	net, reg := retryRig(t)
	var calls atomic.Int64
	net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		// Lose only the first transmission.
		return simnet.LinkFault{Drop: calls.Add(1) == 1}
	})
	r := newRetrier(net, 7, reg)
	resp, cost, err := r.CallCtx(obs.TraceContext{}, "cli", "srv", "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if string(resp) != "hi" {
		t.Fatalf("resp = %q", resp)
	}
	if got := reg.Counter(obs.CtrRetries).Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := reg.Counter(obs.CtrGiveups).Load(); got != 0 {
		t.Fatalf("giveups = %d, want 0", got)
	}
	// The first try burned the RPC timeout, plus a backoff before retry two.
	if cost <= net.Timeout {
		t.Fatalf("cost %v should exceed the burned timeout %v", cost, net.Timeout)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	net, reg := retryRig(t)
	var calls atomic.Int64
	net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		calls.Add(1)
		return simnet.LinkFault{Drop: true}
	})
	r := newRetrier(net, 7, reg)
	_, _, err := r.CallCtx(obs.TraceContext{}, "cli", "srv", "echo", []byte("hi"))
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if got := calls.Load(); got != RetryAttempts {
		t.Fatalf("transmissions = %d, want %d (budget)", got, RetryAttempts)
	}
	if got := reg.Counter(obs.CtrGiveups).Load(); got != 1 {
		t.Fatalf("giveups = %d, want 1", got)
	}
}

func TestRetrierDoesNotRetryRealAnswers(t *testing.T) {
	net, reg := retryRig(t)
	boom := errors.New("handler says no")
	var served atomic.Int64
	net.Register("srv", "fail", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		served.Add(1)
		return nil, 0, boom
	})
	r := newRetrier(net, 0, reg)
	_, _, err := r.CallCtx(obs.TraceContext{}, "cli", "srv", "fail", nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times; errors from a live peer must not be retried", served.Load())
	}
	if reg.Counter(obs.CtrRetries).Load() != 0 {
		t.Fatal("retries counted for a non-transient error")
	}
}

// Backoff sequences are a pure function of the seed: same seed, same pauses —
// the property that makes chaos schedules replayable from one logged value.
func TestRetrierBackoffDeterministic(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		_, reg := retryRig(t)
		r := newRetrier(nil, seed, reg)
		var out []time.Duration
		for try := 0; try < 6; try++ {
			out = append(out, r.backoff(try))
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("try %d: %v != %v for identical seeds", i, a[i], b[i])
		}
	}
	for i, d := range a {
		if d < RetryBackoff/2 || d > RetryBackoffCap {
			t.Fatalf("try %d: backoff %v outside [%v/2, %v]", i, d, RetryBackoff, RetryBackoffCap)
		}
	}
}

// Nodes built from one zero Config (every koshad) seed their jitter from
// their ids, so their retries do not back off in lockstep.
func TestRetrierSeedDerivedFromNodeID(t *testing.T) {
	net := simnet.New(simnet.LAN100)
	a := NewNode("a", id.HashKey("a"), net, Config{})
	b := NewNode("b", id.HashKey("b"), net, Config{})
	if da, db := a.rpc.backoff(0), b.rpc.backoff(0); da == db {
		t.Fatalf("nodes with different ids drew the same first backoff %v", da)
	}
}
