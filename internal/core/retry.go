package core

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// retrier wraps a simnet.Caller with a bounded retry budget and capped
// exponential backoff for transient transport failures. It exists so a
// single lost message (a dropped datagram, a blip of asymmetric partition)
// does not surface as ErrUnreachable to koshad's client paths, where
// noteErr/withFailover would falsely mark a live node dead and fail over —
// exactly the churn amplification a lossy link must not cause.
//
// Only simnet.ErrUnreachable is retried: NFS status errors and kosha
// protocol errors are real answers from a live peer. The overlay's own
// liveness probes (pastry Stabilize pings) deliberately bypass the retrier —
// failure detection must keep seeing raw timeouts.
//
// Backoff is charged as simulated cost on the returned Cost, keeping runs
// deterministic; jitter comes from a seeded splitmix64 sequence so a failing
// schedule replays from one logged seed.
type retrier struct {
	net     simnet.Caller
	state   atomic.Uint64 // splitmix64 jitter state, seeded from Config.Seed
	retries *obs.Counter
	giveups *obs.Counter
}

// newRetrier builds the node's retrying caller (budget: RetryAttempts,
// RetryBackoff, RetryBackoffCap). reg hosts the retry counters so they
// surface in node snapshots and cluster stats.
func newRetrier(net simnet.Caller, seed uint64, reg *obs.Registry) *retrier {
	r := &retrier{
		net:     net,
		retries: reg.Counter(obs.CtrRetries),
		giveups: reg.Counter(obs.CtrGiveups),
	}
	r.state.Store(seed ^ id.SplitMixGamma)
	return r
}

// splitmix64 is id.SplitMix64 on the jitter state, advanced atomically so
// concurrent mounts on one node draw from one deterministic sequence without
// a lock (the interleaving under real concurrency is scheduling-dependent,
// but single-goroutine harness runs — the reproduction path — are exact).
func (r *retrier) splitmix64() uint64 {
	return id.Mix64(r.state.Add(id.SplitMixGamma))
}

// backoff returns the pause before retry number try (0-based): exponential
// growth capped at RetryBackoffCap, with the upper half jittered so retry
// storms from many callers decorrelate.
func (r *retrier) backoff(try int) time.Duration {
	d := RetryBackoff
	for i := 0; i < try && d < RetryBackoffCap; i++ {
		d *= 2
	}
	if d > RetryBackoffCap {
		d = RetryBackoffCap
	}
	half := d / 2
	return half + time.Duration(r.splitmix64()%uint64(half+1))
}

// CallCtx implements simnet.Caller. Transient unreachability is retried up to
// the budget, each retry preceded by a backoff charged to the returned cost;
// any other outcome (success, handler error, status error) returns
// immediately with the accumulated cost. Every attempt carries the same
// trace context, so a retried exchange still records its server span under
// the originating trace.
func (r *retrier) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	var total simnet.Cost
	for try := 0; ; try++ {
		resp, cost, err := r.net.CallCtx(ctx, from, to, service, req)
		total = simnet.Seq(total, cost)
		if err == nil || !errors.Is(err, simnet.ErrUnreachable) {
			return resp, total, err
		}
		if try >= RetryAttempts-1 {
			r.giveups.Add(1)
			return resp, total, err
		}
		total = simnet.Seq(total, simnet.Cost(r.backoff(try)))
		r.retries.Add(1)
	}
}
