package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/maint"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
)

// Config tunes one Kosha node. Zero values select the defaults used by the
// paper's experiments where it states them.
type Config struct {
	// DistributionLevel is L: how many levels of subdirectories are hashed
	// onto the overlay (Section 3.2). Minimum and default 1.
	DistributionLevel int
	// Replicas is K, the number of additional copies kept on leaf-set
	// neighbors (Section 4.2). Default 1 (the Table 1 setting).
	Replicas int
	// RedirectAttempts bounds capacity redirection retries (Section 3.3).
	// Default 4 (the Figure 6 sweet spot); negative means no redirection:
	// only the unsalted placement is tried.
	RedirectAttempts int
	// UtilizationLimit is the store utilization beyond which new
	// directories are redirected elsewhere. Default 0.85.
	UtilizationLimit float64
	// Capacity is the contributed partition size in bytes; 0 = unlimited.
	Capacity int64
	// ReadFromReplicas spreads read operations across the primary and its
	// K replica holders instead of always reading from the primary — the
	// optimization Section 4.2 leaves as an exploration ("allow at least
	// read operations to be served from any one of the K replicas").
	// Writes still serialize through the primary. K = 0 turns it off: there
	// is no replica to read from.
	ReadFromReplicas bool
	// ReadaheadChunks is N, the readahead window in localfs.ReadUnit-sized
	// (1 MiB) pieces a mount keeps in flight ahead of a sequential reader
	// (one READ of the window per holder). 0 (default) disables readahead:
	// every READ is one stop-and-wait round trip.
	ReadaheadChunks int
	// WriteBackBytes is the high-water mark of the per-handle write-back
	// buffer. 0 (default) keeps writes write-through — each WRITE applies
	// synchronously, which the chaos oracle's determinism relies on. >0
	// buffers and coalesces adjacent writes client-side, flushing on high
	// water, Commit, or Close (close-to-open preserved; flush errors
	// surface at close like NFSv3 COMMIT).
	WriteBackBytes int
	// NoAutoSync has no effect: a membership change only drops caches (see
	// onLeafChange). The field stays only because bench/ sets it.
	NoAutoSync bool
	// RingCacheTTL has no effect: the ring walk it tuned is gone (the root
	// is listed from its name index). The field stays only because bench/
	// sets it, and is removed with the bench/ rename in the Config-diet PR.
	RingCacheTTL time.Duration
	// AttrCacheTTL bounds how long a mount may serve cached attributes
	// without revalidating, mirroring the kernel NFS client's
	// acregmin/acdirmin window the paper relies on for its low overhead
	// (Section 6.1). Default 3s; negative disables attribute caching.
	AttrCacheTTL time.Duration
	// NameCacheTTL bounds per-directory name-cache (dnlc) entries the same
	// way. Default 3s; negative disables the name cache.
	NameCacheTTL time.Duration
	// NoMetadataCache turns off both client-side metadata caches,
	// regardless of the TTL fields. Used by ablation benches.
	NoMetadataCache bool
	// WallClockStats records per-op latency histograms in wall time rather
	// than simulated cost. koshad sets it when running over tcpnet, where
	// real elapsed time is the number of interest; simulated runs leave it
	// off so histograms are deterministic.
	WallClockStats bool
	// TraceBufSize caps the per-node ring buffer of recent operation
	// traces. 0 selects obs.DefaultTraceBuf; negative disables tracing.
	TraceBufSize int
	// SlowOpNS arms the slow-op flight recorder: finished traces whose total
	// latency meets or exceeds this many nanoseconds are copied into a
	// separate ring that ordinary op chatter never evicts, so the outliers
	// behind a latency SLO breach stay inspectable (koshactl trace -slow).
	// 0 (default) disables the recorder.
	SlowOpNS int64
	// Seed drives every seeded random choice the node makes (the retry
	// backoff jitter and the trace ids), so a failing run is reproducible
	// from one logged value. 0 derives it from the node id, so nodes built
	// from one Config still draw apart.
	Seed uint64

	// Background maintenance (internal/maint). MaintScrub enables the
	// anti-entropy scrub loop; MaintRebalance the capacity-driven
	// rebalancer. Both are off by default — the engine is always
	// constructed (Node.Maint), but Tick does nothing until a loop is
	// enabled, and nothing calls Tick unless a harness or daemon does.
	MaintScrub     bool
	MaintRebalance bool
	// MaintHighWater arms the rebalancer (default 0.80); MaintLowWater is
	// where a shedding round stops (default 0.60).
	MaintHighWater float64
	MaintLowWater  float64
}

// What Config does not carry. Every caller runs with the same value of
// these, so they are constants: the cost model the simulated numbers are
// stated in, and the budget of the RPC retrier. (Likewise the maintenance
// engine's per-round budgets, constants in internal/maint; the leaf-set
// size, pastry.DefaultLeafSize; and the cost model of the contributed
// partition, simnet.Disk7200.)
const (
	// InterposeCost is I, the fixed per-operation cost of the loopback
	// interposition (kernel crossing + local socket to koshad + handle
	// table work, Section 6.1.2).
	InterposeCost = simnet.Cost(210 * time.Microsecond)
	// LoopbackBytesPerSec is the data rate of the user-space loopback path
	// (kernel NFS client -> koshad). The SFS-toolkit loopback server the
	// paper builds on moves data through user space, which is why Kosha on
	// one node is slightly slower than plain NFS rather than faster
	// (Table 1). 12.5 MB/s is on par with the 100 Mb/s LAN.
	LoopbackBytesPerSec = 12.5e6
	// P2PLookupCost is the fixed cost of one koshad -> local p2p component
	// node lookup (the local socket round trip plus substrate processing;
	// "a delay caused by the lookup for the appropriate storage node",
	// Section 4), charged per overlay route issued on the client path on
	// top of the per-hop network cost.
	P2PLookupCost = simnet.Cost(4 * time.Millisecond)

	// RetryAttempts is the total number of tries (first send + retries) the
	// RPC retrier gives a transiently unreachable peer before surfacing the
	// error. RetryBackoff is the pause before the first retry; it doubles
	// per retry up to RetryBackoffCap, jittered, and is charged as
	// simulated cost.
	RetryAttempts   = 3
	RetryBackoff    = 5 * time.Millisecond
	RetryBackoffCap = 80 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.DistributionLevel < 1 {
		c.DistributionLevel = 1
	}
	if c.Replicas < 0 {
		c.Replicas = 0
		c.ReadFromReplicas = false
	} else if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.RedirectAttempts < 0 {
		c.RedirectAttempts = 0
	} else if c.RedirectAttempts == 0 {
		c.RedirectAttempts = 4
	}
	if c.UtilizationLimit == 0 {
		c.UtilizationLimit = 0.85
	}
	if c.ReadaheadChunks < 0 {
		c.ReadaheadChunks = 0
	}
	if c.WriteBackBytes < 0 {
		c.WriteBackBytes = 0
	}
	if c.AttrCacheTTL == 0 {
		c.AttrCacheTTL = 3 * time.Second
	}
	if c.NameCacheTTL == 0 {
		c.NameCacheTTL = 3 * time.Second
	}
	if c.NoMetadataCache {
		c.AttrCacheTTL = -1
		c.NameCacheTTL = -1
	}
	if c.TraceBufSize == 0 {
		c.TraceBufSize = obs.DefaultTraceBuf
	}
	return c
}

// route asks the local p2p component for the node owning key, charging the
// substrate lookup cost on top of the overlay hops. Every route feeds the
// route histogram and hop counters; when the caller is tracing, the hop
// path (with prefix-match depths against the key) is appended to the trace.
func (n *Node) route(tr *obs.Trace, key id.ID) (pastry.RouteResult, simnet.Cost, error) {
	res, err := n.overlay.RouteCtx(tr.Ctx(), key)
	n.routeCount.Add(1)
	n.routeHops.Add(uint64(res.Hops))
	n.routeHist.Observe(time.Duration(res.Cost))
	if tr != nil {
		for _, h := range res.Path {
			tr.AddHop(h.ID.String(), string(h.Addr), id.SharedPrefixLen(h.ID, key))
		}
		tr.AddSpan("route", string(res.Node.Addr), time.Duration(res.Cost))
	}
	return res, simnet.Seq(res.Cost, P2PLookupCost), err
}

// loopbackXfer returns the loopback-path cost of moving n payload bytes
// between the kernel NFS client and koshad.
func loopbackXfer(n int) simnet.Cost {
	if n <= 0 {
		return 0
	}
	return simnet.Cost(float64(n) / LoopbackBytesPerSec * 1e9)
}

// Place is a resolved location for a virtual directory: the primary node
// that stores its controlling hierarchy, the placement name whose hash
// selected that node, and the hierarchy's physical storage root there.
type Place struct {
	Node  simnet.Addr
	Name  string // controlling placement name ("" for the virtual root)
	Store string // physical storage root of the controlling hierarchy
	Rest  string // virtual path below the controlling directory, "/"-led ("" at it)
	VRoot bool   // the virtual root itself (no single node)
}

// PN returns the controlling placement name.
func (p Place) PN() string { return p.Name }

// PhysDir returns the physical store path of the directory itself: one
// allocation below the controlling directory, none at it.
func (p Place) PhysDir() string {
	if p.Store == "/" && p.Rest != "" {
		return p.Rest
	}
	return p.Store + p.Rest
}

// SubtreeRoot returns the physical path of the replicated-hierarchy root
// (the controlling directory).
func (p Place) SubtreeRoot() string {
	if p.Store == "" {
		return "/"
	}
	return p.Store
}

// Node is one Kosha participant: contributed store + NFS server + Pastry
// overlay node + the koshad logic tying them together (Figure 4). The
// replication/tracking engine lives in internal/repl; the node adapts its
// overlay and RPC clients to the engine's narrow interfaces (see peer.go).
type Node struct {
	cfg     Config
	net     simnet.Transport
	rpc     *retrier // retrying wrapper over net for client-path RPCs
	addr    simnet.Addr
	overlay *pastry.Node
	store   localfs.FileSystem
	nsrv    *nfs.Server
	nfsc    nfs.Client
	rep     *repl.Engine

	mu           sync.Mutex
	rootHandles  map[simnet.Addr]nfs.Handle
	replicaCache map[string][]simnet.Addr // subtree root -> replica holders

	cacheMu  sync.Mutex
	dirCache map[string]Place // virtual dir path -> place

	// Observability: the node-wide metrics registry (shared with the NFS
	// client), the operation tracer, the time-series sampler, and the
	// overlay-health event log. Hot-path metrics are cached as struct fields.
	reg        *obs.Registry
	tracer     *obs.Tracer
	sampler    *obs.Sampler
	events     *obs.EventLog
	routeCount *obs.Counter
	routeHops  *obs.Counter
	routeHist  *obs.Histogram
	opsTotal   *obs.Counter
	opErrors   *obs.Counter
	opHists    [obs.OpcCount]*obs.Histogram // cached "op.<OP>" histograms, indexed by OpCode
	repCount   *obs.Counter
	repFanout  *obs.Counter
	repHist    *obs.Histogram

	// Streaming data-path counters (per-op, node-wide): readahead buffer
	// hits and prefetched-then-discarded bytes, write-back absorbed writes
	// and flush round trips.
	raHits      *obs.Counter
	raWasted    *obs.Counter
	wbCoalesced *obs.Counter
	wbFlushes   *obs.Counter

	// The mount the ctl service's file procedures run through, created by
	// the first one (ctlMount).
	ctlOnce sync.Once
	ctlMnt  *Mount

	// maintEng is the background maintenance engine (scrub + rebalancer).
	// Always constructed; its loops run only when enabled and ticked.
	maintEng *maint.Engine

	storeSeq atomic.Uint64 // storage-root allocation counter
}

// nodeHistNames are the histogram keys every node registers at
// construction: route and replicate first, then the "op.<OP>" set in
// OpCode order. Built once per process so node construction (frequent in
// simulated clusters) does no string work.
var nodeHistNames = func() []string {
	names := []string{"op." + obs.OpRoute, "op." + obs.OpReplicate}
	for c := obs.OpCode(0); c < obs.OpcCount; c++ {
		names = append(names, "op."+c.String())
	}
	return names
}()

// NewNode builds a Kosha node with the given network address and overlay
// identifier, attaches its services, and returns it un-joined. The
// contributed store is in-memory; use NewNodeWithStore for a persistent
// backend.
func NewNode(addr simnet.Addr, nodeID id.ID, net simnet.Transport, cfg Config) *Node {
	return NewNodeWithStore(addr, nodeID, net, cfg, localfs.New(cfg.Capacity, simnet.Disk7200))
}

// NewNodeWithStore builds a Kosha node over a caller-supplied contributed
// store (e.g. internal/diskfs for a persistent partition).
func NewNodeWithStore(addr simnet.Addr, nodeID id.ID, net simnet.Transport, cfg Config, store localfs.FileSystem) *Node {
	cfg = cfg.withDefaults()
	if cfg.Seed == 0 {
		cfg.Seed = binary.BigEndian.Uint64(nodeID[:8])
	}
	n := &Node{
		cfg:          cfg,
		net:          net,
		addr:         addr,
		store:        store,
		rootHandles:  make(map[simnet.Addr]nfs.Handle),
		replicaCache: make(map[string][]simnet.Addr),
		dirCache:     make(map[string]Place),
	}
	n.reg = obs.NewRegistry()
	tbuf := cfg.TraceBufSize
	if tbuf < 0 {
		tbuf = 0
	}
	n.tracer = obs.NewTracer(tbuf)
	// Trace/span ids come from a per-node seeded stream: mixing the run seed
	// with the address keeps ids unique across the cluster yet replayable.
	n.tracer.SeedIDs(cfg.Seed ^ addrHash(addr))
	n.tracer.SetSlowThreshold(cfg.SlowOpNS)
	n.sampler = obs.NewSampler(n.reg, 0)
	n.events = obs.NewEventLog(0)
	n.routeCount = n.reg.Counter("route.count")
	n.routeHops = n.reg.Counter("route.hops")
	n.opsTotal = n.reg.Counter("ops.total")
	n.opErrors = n.reg.Counter("ops.errors")
	n.repCount = n.reg.Counter("replicate.count")
	n.repFanout = n.reg.Counter("replicate.fanout")
	n.raHits = n.reg.Counter("io.readahead.hits")
	n.raWasted = n.reg.Counter("io.readahead.wasted")
	n.wbCoalesced = n.reg.Counter("io.writeback.coalesced")
	n.wbFlushes = n.reg.Counter("io.writeback.flushes")
	hists := n.reg.Histograms(nodeHistNames...)
	n.routeHist, n.repHist = hists[0], hists[1]
	copy(n.opHists[:], hists[2:])
	n.nsrv = nfs.NewServer(n.store, 1) // incarnation 1; Revive bumps it
	// Client-path RPCs (NFS forwarding and the kosha service) go through a
	// retrying caller so transient message loss does not read as node death;
	// the overlay keeps the raw transport because its liveness probes need
	// to see real timeouts.
	n.rpc = newRetrier(net, cfg.Seed, n.reg)
	n.nfsc = nfs.NewClientWithRegistry(n.rpc, addr, n.reg)
	n.rep = repl.New(repl.Options{
		Self:     addr,
		Store:    store,
		Overlay:  engineOverlay{n},
		Peer:     enginePeer{n},
		Replicas: cfg.Replicas,
		Key:      Key,
		Events:   n.events,
		Registry: n.reg,
		Tracer:   n.tracer,
	})
	n.overlay = pastry.NewNode(nodeID, addr, net, pastry.DefaultLeafSize)
	n.overlay.OnLeafSetChange(n.onLeafChange)
	n.attach()
	n.maintEng = maint.New(maint.Options{
		Host:      maintHost{n},
		Registry:  n.reg,
		Events:    n.events,
		Scrub:     cfg.MaintScrub,
		Rebalance: cfg.MaintRebalance,
		HighWater: cfg.MaintHighWater,
		LowWater:  cfg.MaintLowWater,
	})
	return n
}

func (n *Node) attach() {
	n.overlay.Attach()
	// Feed the contributed store's capacity accounting to the overlay so it
	// rides the leaf-set keep-alive traffic (the rebalancer's gossip view).
	// Done here because Revive replaces the overlay instance.
	n.overlay.SetLoadProvider(n.loadProvider)
	n.nsrv.Attach(n.net, n.addr)
	n.net.RegisterCtx(n.addr, KoshaService, n.serve(KoshaService, koshaProcs))
	n.net.SetSpanSink(n.addr, nodeSink{n})
}

// newStoreRoot allocates a fresh, node-unique physical storage root for a
// hierarchy with the given placement name. The leading control byte keeps
// these roots out of virtual listings and out of reach of user names.
func (n *Node) newStoreRoot(pn string) string {
	c := n.storeSeq.Add(1)
	return "/" + ChainSep + pn + "." + Salt(string(n.addr), int(c))
}

// Addr returns the node's network address.
func (n *Node) Addr() simnet.Addr { return n.addr }

// NFSStats returns cumulative NFS RPC counters for this node's client side
// (every mount on the node shares it), letting experiments report rpcs/op.
func (n *Node) NFSStats() nfs.ClientStats { return n.nfsc.Stats() }

// ResetNFSStats zeroes the node's NFS RPC counters.
func (n *Node) ResetNFSStats() { n.nfsc.ResetStats() }

// NFSProcCount returns how many RPCs of one procedure this node has issued.
func (n *Node) NFSProcCount(p nfs.Proc) uint64 { return n.nfsc.ProcCount(p) }

// Obs returns the node-wide metrics registry (per-op latency histograms,
// route/replicate/failover counters, and the NFS client's RPC counters).
func (n *Node) Obs() *obs.Registry { return n.reg }

// Tracer returns the node's operation tracer (nil traces when disabled).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Sampler returns the node's time-series metrics sampler. It is created
// stopped; koshad starts it wall-clock, harnesses drive TickNow directly.
func (n *Node) Sampler() *obs.Sampler { return n.sampler }

// Events returns the node's overlay-health event log.
func (n *Node) Events() *obs.EventLog { return n.events }

// ID returns the node's overlay identifier.
func (n *Node) ID() id.ID { return n.overlay.Info().ID }

// Overlay exposes the Pastry node (cluster harness, tests).
func (n *Node) Overlay() *pastry.Node { return n.overlay }

// Store exposes the contributed partition (tests, experiments).
func (n *Node) Store() localfs.FileSystem { return n.store }

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Join enters the overlay via seed ("" starts a new overlay).
func (n *Node) Join(seed simnet.Addr) (simnet.Cost, error) {
	return n.overlay.Bootstrap(seed)
}

// onLeafChange reacts to overlay membership changes: location caches become
// suspect and are dropped. It runs inside the overlay's handlers, so it
// makes no RPC: replica placement is re-established (Section 4.3) by the
// drivers that charge Sync, and until then by a fresh resolution (walkUnder).
func (n *Node) onLeafChange(c pastry.LeafSetChange) {
	for _, p := range c.Joined {
		n.events.Add(obs.EvJoin, string(p.Addr), p.ID.Short())
	}
	for _, p := range c.Left {
		n.events.Add(obs.EvDeparture, string(p.Addr), p.ID.Short())
	}
	n.events.Add(obs.EvCachePurge, string(n.addr), "leaf-set change")
	n.cacheMu.Lock()
	clear(n.dirCache)
	n.cacheMu.Unlock()
	n.mu.Lock()
	clear(n.replicaCache)
	n.mu.Unlock()
}

// invalidateNode drops all client-side state naming a (presumed dead) node
// and tells the overlay, so re-resolution routes around it (Section 4.4).
func (n *Node) invalidateNode(dead simnet.Addr) {
	n.mu.Lock()
	delete(n.rootHandles, dead)
	n.replicaCache = make(map[string][]simnet.Addr)
	n.mu.Unlock()
	n.cacheMu.Lock()
	for k, p := range n.dirCache {
		if p.Node == dead {
			delete(n.dirCache, k)
		}
	}
	n.cacheMu.Unlock()
	n.overlay.MarkDead(dead)
}

// Fail crashes the node (network-level) for fault-injection tests; it is a
// no-op on transports without failure injection.
func (n *Node) Fail() {
	if d, ok := n.net.(simnet.Downer); ok {
		d.SetDown(n.addr, true)
	}
}

// Revive restarts a crashed node with a fresh overlay identifier, purging
// all Kosha data: "since a node can be revived with a different identifier
// ... all Kosha data on a revived node is purged" (Section 4.3.2).
func (n *Node) Revive(newID id.ID, seed simnet.Addr) (simnet.Cost, error) {
	if d, ok := n.net.(simnet.Downer); ok {
		d.SetDown(n.addr, false)
	}
	n.store.RemoveAll("/")
	n.rep.Reset()
	if n.maintEng != nil {
		n.maintEng.Reset()
	}
	n.mu.Lock()
	n.rootHandles = make(map[simnet.Addr]nfs.Handle)
	n.replicaCache = make(map[string][]simnet.Addr)
	n.mu.Unlock()
	n.cacheMu.Lock()
	n.dirCache = make(map[string]Place)
	n.cacheMu.Unlock()
	n.nsrv.Bump()
	n.overlay = pastry.NewNode(newID, n.addr, n.net, pastry.DefaultLeafSize)
	n.overlay.OnLeafSetChange(n.onLeafChange)
	n.attach()
	return n.Join(seed)
}

// Repl exposes the node's replication engine (tests, experiments).
func (n *Node) Repl() *repl.Engine { return n.rep }

// SyncReplicas re-establishes the replication invariant for every record
// this node tracks (Section 4.3); see repl.Engine.Sync.
func (n *Node) SyncReplicas() simnet.Cost { return n.rep.Sync() }

func (n *Node) nsrvGen() uint64 {
	return n.nsrv.Root().Gen
}
