package core

import (
	"encoding/binary"

	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Overlay-health gauge names published by ProbeHealth. They live here (not
// obs) because only core can compute them; the exposition layer and tests
// reference the constants instead of retyping strings.
const (
	GaugeLeafSize     = "overlay.leafset.size"
	GaugeLeafIdeal    = "overlay.leafset.ideal"
	GaugeTableEntries = "overlay.table.entries"
	GaugeTableRows    = "overlay.table.rows"
	GaugeReplicaLag   = "overlay.replica.lag"
)

// addrHash folds a transport address into a 64-bit value (FNV-1a) used to
// perturb the per-node trace-ID seed: nodes sharing one Config.Seed must
// still draw disjoint ID streams or cross-node trace reassembly would
// collide.
func addrHash(a simnet.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	return h
}

// nodeSink plugs the node's tracer into the transport, which drives it
// around every exchange that arrives with a valid trace context: NextSpanID
// before the handler runs (so nested RPCs issued by the handler parent under
// the server span), RecordServerSpan after. Every service is covered — nfs
// and pastry get their spans timed by the transport, with no instrumentation
// of their own.
type nodeSink struct{ n *Node }

func (s nodeSink) NextSpanID() uint64 { return s.n.tracer.NextSpanID() }

func (s nodeSink) RecordServerSpan(ctx obs.TraceContext, span uint64, service string, from simnet.Addr, req []byte, cost simnet.Cost, err error) {
	sp := obs.Span{
		Hi:     ctx.Hi,
		Lo:     ctx.Lo,
		Parent: ctx.Span,
		ID:     span,
		Name:   spanName(service, req),
		From:   string(from),
		Node:   string(s.n.addr),
		DurNS:  int64(cost),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	s.n.tracer.RecordSpan(sp)
}

// spanName labels a server span "service.proc" by decoding the leading
// big-endian procedure number every node service puts first on the wire.
// The node's own two services are named from their dispatch tables.
func spanName(service string, req []byte) string {
	if len(req) < 4 {
		return service
	}
	num := binary.BigEndian.Uint32(req[:4])
	name := "?"
	switch service {
	case nfs.Service:
		name = nfs.Proc(num).String()
	case pastry.Service:
		name = pastry.ProcName(num)
	case KoshaService:
		if p, ok := koshaProcs[num]; ok {
			name = p.name
		}
	case CtlService:
		if p, ok := ctlProcs[num]; ok {
			name = p.name
		}
	}
	return service + "." + name
}

// nfsT returns the node's NFS client stamped with tr's trace context: the
// returned value client propagates the context on every call so the remote
// server records a child span. A nil trace yields the plain client.
func (n *Node) nfsT(tr *obs.Trace) nfs.Client {
	if tr == nil {
		return n.nfsc
	}
	return n.nfsc.WithCtx(tr.Ctx())
}

// nfsCtx is nfsT for call sites that hold a raw context (the repl engine's
// Peer callbacks) rather than a trace.
func (n *Node) nfsCtx(tc obs.TraceContext) nfs.Client {
	return n.nfsc.WithCtx(tc)
}

// callKosha issues one kosha-service RPC through the retrier, carrying tc
// across the wire so the server's handler work appears as a span in the
// originating trace. The frame is lent for the call, retries included: the
// bodies it lends are read where they lie, not copied.
func (n *Node) callKosha(tc obs.TraceContext, to simnet.Addr, req wire.Frame) ([]byte, simnet.Cost, error) {
	resp, cost, err := n.rpc.CallCtx(tc, n.addr, to, KoshaService, wire.Lend(req))
	wire.EndLend(req)
	return resp, cost, err
}

// ProbeHealth refreshes the overlay-health gauges from live overlay and
// replication state: leaf-set occupancy against the configured ideal,
// routing-table fill, and the count of (root, replica) pairs whose replica
// copy digest-lags the primary. It issues digest RPCs to current replica
// candidates, so call it at a low rate (koshad's prober) or on demand.
func (n *Node) ProbeHealth() {
	size, ideal := n.overlay.LeafStats()
	n.reg.Gauge(GaugeLeafSize).Set(int64(size))
	n.reg.Gauge(GaugeLeafIdeal).Set(int64(ideal))
	entries, rows := n.overlay.TableStats()
	n.reg.Gauge(GaugeTableEntries).Set(int64(entries))
	n.reg.Gauge(GaugeTableRows).Set(int64(rows))

	var roots []string
	for _, t := range n.rep.Tracks() { // sorted
		if !t.Dead && n.rep.DigestLocal(t.Root, false).Exists {
			roots = append(roots, t.Root)
		}
	}
	reps := n.overlay.ReplicaCandidates(n.cfg.Replicas)
	lag := 0
	for _, root := range roots {
		local := n.rep.DigestLocal(root, true)
		for _, rep := range reps {
			remote, _, err := n.remoteDigestTree(obs.TraceContext{}, rep.Addr, repl.RepPath(root), true)
			if err != nil || !remote.Exists || remote.Flag || remote.Root != local.Root {
				lag++
			}
		}
	}
	n.reg.Gauge(GaugeReplicaLag).Set(int64(lag))
}
