package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// collectFrags gathers one trace's span fragments from every live node over
// the CTL protocol, exactly as koshactl trace -id does, returning the origin
// trace (from whichever node retained it) and the merged fragment list.
func collectFrags(t *testing.T, nodes []*Node, hi, lo uint64) (*obs.Trace, []obs.Span) {
	t.Helper()
	var origin *obs.Trace
	var frags []obs.Span
	for _, nd := range nodes {
		ctl := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nd.Addr()}
		frag, _, err := ctl.TraceFrag(hi, lo)
		if err != nil {
			continue // dead node: reassembly works from the survivors
		}
		frags = append(frags, frag.Spans...)
		if origin == nil && frag.Origin != nil {
			origin = frag.Origin
		}
	}
	return origin, frags
}

// TestCrossNodeTraceAssembly drives a mutation through a cold mount on a
// 6-node cluster and rebuilds its causal tree from per-node fragments: the
// tree must contain overlay route hops, the serving node's work, and the
// replica fan-out the primary issued — each recorded by a different node,
// all under one 128-bit trace id.
func TestCrossNodeTraceAssembly(t *testing.T) {
	_, nodes := testCluster(t, 6, 71, Config{Replicas: 2})
	for _, nd := range nodes {
		nd.AttachCtl()
	}
	// A cold mount on node 5: nothing cached, so resolution routes through
	// the overlay and the apply fans out to 2 replicas.
	m := nodes[5].NewMount()
	if _, err := m.WriteFile("/traced/file.txt", []byte("observable payload")); err != nil {
		t.Fatal(err)
	}

	// WriteFile is compound (mkdir, create, write, commit); each leg traced
	// separately. At least one of node 5's traces must assemble into a tree
	// with a route hop, a serving span, and a replica fan-out span.
	var best *obs.AssembledTrace
	for _, tr := range nodes[5].Tracer().Recent(0) {
		if tr.Hi == 0 && tr.Lo == 0 {
			continue
		}
		origin, frags := collectFrags(t, nodes, tr.Hi, tr.Lo)
		if origin == nil {
			t.Fatalf("origin trace %s not found via CTL", obs.FormatTraceID(tr.Hi, tr.Lo))
		}
		at := obs.Assemble(tr.Hi, tr.Lo, origin, frags)
		if hasSpan(at, "pastry.next-hop") && hasSpan(at, "kosha.apply") && hasSpan(at, "kosha.mirror") {
			best = at
			break
		}
	}
	if best == nil {
		t.Fatal("no trace assembled with route hop + apply + mirror spans")
	}
	if best.NodeCount < 3 {
		t.Fatalf("NodeCount = %d, want >= 3 (origin, primary, replica)", best.NodeCount)
	}
	// The mirror spans must be children of the primary's apply span and must
	// have executed on nodes other than the primary.
	mirrors := 0
	best.Walk(func(depth int, n *obs.TraceNode) {
		if n.Span.Name != "kosha.mirror" {
			return
		}
		mirrors++
		if depth == 0 {
			t.Error("mirror span surfaced as a root: fan-out not parented under apply")
		}
	})
	if mirrors < 2 {
		t.Fatalf("assembled %d mirror spans, want >= 2 (Replicas: 2)", mirrors)
	}
	var applyNode string
	best.Walk(func(_ int, n *obs.TraceNode) {
		if n.Span.Name == "kosha.apply" {
			applyNode = n.Span.Node
		}
	})
	if applyNode == "" || applyNode == best.Origin.Node {
		t.Fatalf("apply served by %q, want a remote primary (origin %q)", applyNode, best.Origin.Node)
	}
	// Every fragment must carry the same 128-bit id (SpansFor filtered by the
	// serving nodes, re-check after assembly).
	best.Walk(func(_ int, n *obs.TraceNode) {
		if n.Span.Hi != best.Hi || n.Span.Lo != best.Lo {
			t.Fatalf("span %+v escaped trace %s", n.Span, obs.FormatTraceID(best.Hi, best.Lo))
		}
	})
}

// TestClientStagesJoinTheAssembledTree: the origin's own stages (route,
// apply) and the server spans other nodes recorded are one span type in one
// tree — the stages hang off the trace's root span beside the server spans
// the origin caused, under the same 128-bit id, each with its own span id.
func TestClientStagesJoinTheAssembledTree(t *testing.T) {
	_, nodes := testCluster(t, 6, 71, Config{Replicas: 2})
	for _, nd := range nodes {
		nd.AttachCtl()
	}
	m := nodes[5].NewMount()
	if _, err := m.WriteFile("/staged/file.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, tr := range nodes[5].Tracer().Recent(0) {
		origin, frags := collectFrags(t, nodes, tr.Hi, tr.Lo)
		at := obs.Assemble(tr.Hi, tr.Lo, origin, frags)
		if !hasSpan(at, "route") || !hasSpan(at, "apply") || !hasSpan(at, "kosha.apply") {
			continue
		}
		if at.SpanCount != len(origin.Spans)+len(frags) {
			t.Fatalf("SpanCount = %d, want %d client stages + %d server spans", at.SpanCount, len(origin.Spans), len(frags))
		}
		ids := map[uint64]bool{}
		at.Walk(func(depth int, n *obs.TraceNode) {
			sp := n.Span
			if sp.Hi != tr.Hi || sp.Lo != tr.Lo || sp.ID == 0 || ids[sp.ID] {
				t.Errorf("span %+v: wrong trace id, or a zero or reused span id", sp)
			}
			ids[sp.ID] = true
			if sp.Name == "route" || sp.Name == "apply" {
				if depth != 0 || sp.Parent != origin.Span || sp.From != origin.Node || sp.Node == "" {
					t.Errorf("client stage %+v at depth %d, want a child of root span %d issued by %s", sp, depth, origin.Span, origin.Node)
				}
			}
		})
		return
	}
	t.Fatal("no trace assembled with client stages beside the server apply span")
}

// TestEveryProcedureNamesItsSpan: span labels are read off the dispatch
// tables, so a procedure cannot be added without a name (kChunkManifest and
// kChunkFetch used to be labelled "kosha.?" by a hand-kept map).
func TestEveryProcedureNamesItsSpan(t *testing.T) {
	for service, table := range map[string]serviceTable{KoshaService: koshaProcs, CtlService: ctlProcs} {
		seen := map[string]uint32{}
		for num := range table {
			name := spanName(service, binary.BigEndian.AppendUint32(nil, num))
			if !strings.HasPrefix(name, service+".") || strings.Contains(name, "?") || name == service+"." {
				t.Errorf("%s proc %d is labelled %q", service, num, name)
			}
			if other, dup := seen[name]; dup {
				t.Errorf("%s procs %d and %d share the label %q", service, other, num, name)
			}
			seen[name] = num
		}
	}
	if got := spanName(KoshaService, binary.BigEndian.AppendUint32(nil, 9999)); got != "kosha.?" {
		t.Errorf("unknown procedure labelled %q, want kosha.?", got)
	}
}

func hasSpan(at *obs.AssembledTrace, name string) bool {
	found := false
	at.Walk(func(_ int, n *obs.TraceNode) {
		if n.Span.Name == name {
			found = true
		}
	})
	return found
}

// TestFailoverKeepsOneTraceID kills a primary and reads through it: the
// transparently retried operation must surface as ONE trace whose id the
// replacement server's spans carry — not a second trace for the retry.
func TestFailoverKeepsOneTraceID(t *testing.T) {
	_, nodes := testCluster(t, 6, 13, Config{Replicas: 2})
	for _, nd := range nodes {
		nd.AttachCtl()
	}
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/failme/precious.txt", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	pl, _, err := nodes[0].ResolvePath("/failme")
	if err != nil {
		t.Fatal(err)
	}
	var primary *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	reader := nodes[(indexOf(nodes, primary)+1)%len(nodes)]
	m = reader.NewMount()
	// Resolve a handle while the primary is alive, then kill it: the next
	// access through the held handle must fail against the dead node and be
	// transparently retried against a replica, all inside one operation.
	vh, _, _, err := m.LookupPath("/failme/precious.txt")
	if err != nil {
		t.Fatal(err)
	}
	primary.Fail()

	data, _, _, err := m.Read(vh, 0, 100)
	if err != nil || string(data) != "survives" {
		t.Fatalf("failover read %q err=%v", data, err)
	}
	var failed *obs.Trace
	for _, tr := range reader.Tracer().Recent(0) {
		if tr.Failovers > 0 {
			tr := tr
			failed = &tr
			break
		}
	}
	if failed == nil {
		t.Fatal("no trace recorded a failover")
	}
	// Uniqueness: the retry continued the original trace, it did not open a
	// second one for the same op under a different id.
	count := 0
	for _, tr := range reader.Tracer().Recent(0) {
		if tr.Hi == failed.Hi && tr.Lo == failed.Lo {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d traces share id %s, want exactly 1", count, obs.FormatTraceID(failed.Hi, failed.Lo))
	}
	// The failed attempt and the retry both live inside it: a failover was
	// counted, and the post-failover spans (re-resolution, promote, the
	// retried read) were recorded by the surviving nodes under the SAME id.
	live := make([]*Node, 0, len(nodes))
	for _, nd := range nodes {
		if nd != primary {
			live = append(live, nd)
		}
	}
	_, frags := collectFrags(t, live, failed.Hi, failed.Lo)
	remote := 0
	for _, f := range frags {
		if f.Node != string(reader.Addr()) {
			remote++
		}
	}
	if remote == 0 {
		t.Fatalf("no surviving node recorded retry spans for trace %s",
			obs.FormatTraceID(failed.Hi, failed.Lo))
	}
}

// TestDupReplaysDoNotDoubleRecordSpans runs traced mutations while every
// link duplicates its messages. The mutations ride kApply/kMirror, which
// keep no duplicate-request cache: the second delivery re-executes, harmless
// by construction (idempotent kinds repeat themselves, strict kinds answer
// EXIST/NOENT into the void), and the caller sees the first reply. The
// transport records exactly one server span per logical exchange either way,
// so the assembled trees contain no double-counted work.
func TestDupReplaysDoNotDoubleRecordSpans(t *testing.T) {
	net, nodes := testCluster(t, 4, 97, Config{Replicas: 1})
	for _, nd := range nodes {
		nd.AttachCtl()
	}
	net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		return simnet.LinkFault{Dup: true}
	})
	defer net.SetFaults(nil)

	m := nodes[3].NewMount()
	if _, err := m.WriteFile("/dup/once.txt", []byte("exactly once")); err != nil {
		t.Fatal(err)
	}
	data, _, err := m.ReadFile("/dup/once.txt")
	if err != nil || string(data) != "exactly once" {
		t.Fatalf("read under dup faults: %q err=%v", data, err)
	}

	checked := 0
	for _, tr := range nodes[3].Tracer().Recent(0) {
		if tr.Hi == 0 && tr.Lo == 0 {
			continue
		}
		seen := make(map[uint64]obs.Span)
		for _, nd := range nodes {
			for _, sp := range nd.Tracer().SpansFor(tr.Hi, tr.Lo) {
				if prev, dup := seen[sp.ID]; dup {
					t.Fatalf("span %d recorded twice (%+v vs %+v)", sp.ID, prev, sp)
				}
				seen[sp.ID] = sp
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no server spans recorded under dup faults")
	}
}

// TestProbeHealthGauges checks the overlay-health gauges ProbeHealth
// publishes: leaf-set occupancy, routing-table fill, and replica digest lag
// (zero after a sync, positive when a replica goes stale).
func TestProbeHealthGauges(t *testing.T) {
	_, nodes := testCluster(t, 5, 29, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/health/a.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pl, _, err := nodes[0].ResolvePath("/health")
	if err != nil {
		t.Fatal(err)
	}
	var primary *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	primary.SyncReplicas()
	primary.ProbeHealth()

	snap := primary.Obs().Snapshot()
	if snap.Gauges[GaugeLeafSize] < 4 {
		t.Fatalf("%s = %d, want 4 (5-node cluster)", GaugeLeafSize, snap.Gauges[GaugeLeafSize])
	}
	if snap.Gauges[GaugeLeafIdeal] <= 0 || snap.Gauges[GaugeTableRows] <= 0 {
		t.Fatalf("ideal/rows gauges unset: %v", snap.Gauges)
	}
	if lag := snap.Gauges[GaugeReplicaLag]; lag != 0 {
		t.Fatalf("%s = %d after sync, want 0", GaugeReplicaLag, lag)
	}

	// Mutate the primary copy behind the replicas' backs: lag must surface.
	if _, err := m.WriteFile("/health/b.txt", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Mirror fan-out already replicated b.txt; dirty the replica instead by
	// failing one replica holder so its digest RPC errors.
	reps := primary.Overlay().ReplicaCandidates(1)
	if len(reps) != 1 {
		t.Fatalf("replica candidates = %v", reps)
	}
	for _, nd := range nodes {
		if nd.Addr() == reps[0].Addr {
			nd.Fail()
		}
	}
	primary.ProbeHealth()
	if lag := primary.Obs().Snapshot().Gauges[GaugeReplicaLag]; lag <= 0 {
		t.Fatalf("%s = %d with a dead replica, want > 0", GaugeReplicaLag, lag)
	}
}

// TestCtlObservabilityRoundTrip exercises the three new CTL procedures end
// to end: trace fragments, sampler timelines, and the slow-op recorder.
func TestCtlObservabilityRoundTrip(t *testing.T) {
	_, nodes := testCluster(t, 4, 53, Config{Replicas: 1, SlowOpNS: 1})
	for _, nd := range nodes {
		nd.AttachCtl()
	}
	m := nodes[3].NewMount()
	if _, err := m.WriteFile("/ctl/x.txt", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ctl := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nodes[3].Addr()}

	// Trace fragments: the origin node returns the trace plus local spans.
	traces, _, err := ctl.TraceDump(1)
	if err != nil || len(traces) != 1 {
		t.Fatalf("trace dump: %v err=%v", traces, err)
	}
	frag, _, err := ctl.TraceFrag(traces[0].Hi, traces[0].Lo)
	if err != nil {
		t.Fatal(err)
	}
	if frag.Node != string(nodes[3].Addr()) {
		t.Fatalf("frag.Node = %q", frag.Node)
	}
	if frag.Origin == nil || frag.Origin.Hi != traces[0].Hi || frag.Origin.Lo != traces[0].Lo {
		t.Fatalf("frag origin = %+v", frag.Origin)
	}

	// Sampler: tick twice around counter movement, read the timeline back.
	nodes[3].Sampler().TickNow(time.Unix(100, 0))
	nodes[3].Obs().Counter("test.ctl").Add(5)
	nodes[3].Sampler().TickNow(time.Unix(101, 0))
	samples, _, err := ctl.Samples(0)
	if err != nil || len(samples) != 1 {
		t.Fatalf("samples = %d err=%v", len(samples), err)
	}
	if samples[0].Rates["test.ctl"] != 5 {
		t.Fatalf("sample rates = %v", samples[0].Rates)
	}

	// Slow-op recorder: with SlowOpNS=1 every op qualifies.
	slow, _, err := ctl.SlowDump(0)
	if err != nil || len(slow) == 0 {
		t.Fatalf("slow dump = %d err=%v", len(slow), err)
	}
	for _, tr := range slow {
		if tr.TotalNS < 1 {
			t.Fatalf("sub-threshold trace in slow ring: %+v", tr)
		}
	}

	// Span names decode per-service procs; spot-check the apply that this
	// WriteFile fanned out (recorded on the primary, visible via its frag).
	found := false
	for _, nd := range nodes {
		c := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nd.Addr()}
		f, _, err := c.TraceFrag(traces[0].Hi, traces[0].Lo)
		if err != nil {
			continue
		}
		for _, sp := range f.Spans {
			if strings.HasPrefix(sp.Name, "kosha.") || strings.HasPrefix(sp.Name, "nfs.") || strings.HasPrefix(sp.Name, "pastry.") {
				found = true
			}
			if strings.HasSuffix(sp.Name, ".?") {
				t.Errorf("undecoded span name %q on %s", sp.Name, sp.Node)
			}
		}
	}
	if !found {
		t.Error("no service-qualified span names collected")
	}
}

// TestDistributedMkdirRmdirTraceEveryRPC: the capacity probe of a
// distributed mkdir (FSSTAT, with the MNT that fetches the export's root
// handle) and the emptiness listing of a distributed rmdir (READDIR) carry
// the operation's trace context, so each shows as a server span in its tree.
func TestDistributedMkdirRmdirTraceEveryRPC(t *testing.T) {
	_, nodes := testCluster(t, 4, 61, Config{Replicas: 1})
	origin := nodes[0]
	spansOf := func(op string) map[string]bool {
		t.Helper()
		names := map[string]bool{}
		for _, tr := range origin.Tracer().Recent(0) {
			if tr.Op != op {
				continue
			}
			for _, nd := range nodes {
				for _, sp := range nd.Tracer().SpansFor(tr.Hi, tr.Lo) {
					names[sp.Name] = true
				}
			}
		}
		return names
	}
	m := origin.NewMount()
	// Some name lands on another node: its root handle was never fetched.
	for i := 0; ; i++ {
		name := fmt.Sprintf("home%d", i)
		if res, err := origin.Overlay().Route(Key(name)); err != nil {
			t.Fatal(err)
		} else if res.Node.Addr == origin.Addr() {
			continue
		}
		if _, _, _, err := m.Mkdir(m.Root(), name, 0o755); err != nil {
			t.Fatal(err)
		}
		if got := spansOf(obs.OpMkdir); !got["nfs.FSSTAT"] || !got["nfs.MNT"] {
			t.Errorf("traced mkdir recorded %v, want nfs.FSSTAT and nfs.MNT among them", got)
		}
		if _, err := m.Rmdir(m.Root(), name); err != nil {
			t.Fatal(err)
		}
		if got := spansOf(obs.OpRmdir); !got["nfs.READDIR"] {
			t.Errorf("traced rmdir recorded %v, want nfs.READDIR among them", got)
		}
		return
	}
}
