package pastry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// ErrRouteFailed is returned when routing cannot converge (all candidate
// hops dead and no better node known).
var ErrRouteFailed = errors.New("pastry: route failed")

// LeafSetChange describes a leaf-set membership delta delivered to the
// application ("The p2p component ... informs Kosha on a node N when nodes
// in N's leaf set are affected", Section 4.3).
type LeafSetChange struct {
	Joined []NodeInfo
	Left   []NodeInfo
}

// RouteResult reports the outcome of a key lookup.
type RouteResult struct {
	Node NodeInfo    // the root: live node numerically closest to the key
	Hops int         // overlay RPCs taken
	Cost simnet.Cost // simulated latency of those RPCs
	// Path lists the nodes that answered a next-hop query, in routing
	// order, ending with the root (unless the walk ended on a revisit, see
	// routeCollect). Iterative routing makes this available
	// client-side for free; the observability layer turns it into
	// hop-by-hop trace records with prefix-match depths.
	Path []NodeInfo
}

// Node is one Pastry overlay participant.
type Node struct {
	net simnet.Transport

	mu    sync.RWMutex
	st    *state
	alive bool

	onChange func(LeafSetChange)

	// Capacity gossip: loadFn reports this node's own occupancy; loads
	// caches the most recent Load heard from each peer via pNotify
	// piggybacks (request and reply), keyed by address.
	loadFn func() Load
	loads  map[simnet.Addr]Load
}

// NewNode creates a node with the given identifier and network address. The
// caller must Attach it and then Bootstrap it into an overlay.
func NewNode(nodeID id.ID, addr simnet.Addr, net simnet.Transport, leafSize int) *Node {
	return &Node{
		net: net,
		st:  newState(NodeInfo{ID: nodeID, Addr: addr}, leafSize),
	}
}

// Info returns this node's identity.
func (n *Node) Info() NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.self
}

// SetLoadProvider registers the callback that reports this node's storage
// occupancy; it is piggybacked on every leaf-set heartbeat this node sends
// or answers. A nil provider advertises a zero (unlimited) load.
func (n *Node) SetLoadProvider(fn func() Load) {
	n.mu.Lock()
	n.loadFn = fn
	n.mu.Unlock()
}

// PeerLoads returns a copy of the freshest Load heard from each peer.
// Entries persist until overwritten; consumers filter by live membership.
func (n *Node) PeerLoads() map[simnet.Addr]Load {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[simnet.Addr]Load, len(n.loads))
	for a, l := range n.loads {
		out[a] = l
	}
	return out
}

func (n *Node) localLoad() Load {
	n.mu.RLock()
	fn := n.loadFn
	n.mu.RUnlock()
	if fn == nil {
		return Load{}
	}
	return fn()
}

func (n *Node) recordLoad(addr simnet.Addr, l Load) {
	n.mu.Lock()
	if n.loads == nil {
		n.loads = make(map[simnet.Addr]Load)
	}
	n.loads[addr] = l
	n.mu.Unlock()
}

// OnLeafSetChange registers the callback invoked when leaf-set membership
// changes. The callback runs without the node lock held; it may call back
// into the node and the network.
func (n *Node) OnLeafSetChange(fn func(LeafSetChange)) {
	n.mu.Lock()
	n.onChange = fn
	n.mu.Unlock()
}

// Attach registers the node's overlay RPC handler.
func (n *Node) Attach() {
	n.net.RegisterCtx(n.Info().Addr, Service, n.handle)
}

// Leaf returns the current leaf set (excluding self).
func (n *Node) Leaf() []NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.leafMembers()
}

// Known returns every node in the routing state (excluding self).
func (n *Node) Known() []NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.allKnown()
}

// EnumerateRing walks the live ring clockwise from this node — one leaf-set
// query per l/2 positions — and returns every member discovered, self
// included, sorted by ID. Operations that need the *whole* membership (the
// virtual-root listing is a union over all store roots, Section 3) cannot
// rely on Known(): a node's own routing state only names O(log N) peers, so
// at large N the union would silently drop directories hosted on strangers.
// Dead leaf-set entries not yet repaired are skipped; the walk advances
// through the farthest responsive successor each step.
func (n *Node) EnumerateRing() ([]NodeInfo, simnet.Cost) {
	self := n.Info()
	members := map[id.ID]NodeInfo{self.ID: self}
	var total simnet.Cost

	// curDist is CWDist(self, cur): strictly increasing as the walk
	// advances, which both orders candidates and detects the wrap. The walk
	// only ever steps to candidates in the current node's successor half, a
	// contiguous run of ring positions, so jumping to the farthest one skips
	// nobody. That is also why the initial frontier must be self's succs
	// only: self's preds sit *behind* self — the largest clockwise distances
	// — and stepping to one would leap over the whole middle of the ring.
	var curDist id.ID
	succs, _ := n.LeafHalves()
	frontier := aheadOf(self, curDist, succs, members)
	for len(frontier) > 0 {
		var peers []NodeInfo
		stepped := false
		for _, p := range frontier {
			leafs, cost, err := n.rpcGetLeafSet(p.Addr)
			total = simnet.Seq(total, cost)
			if err != nil {
				continue // stale leaf entry; try the next-farthest
			}
			curDist = self.ID.CWDist(p.ID)
			peers = leafs
			stepped = true
			break
		}
		if !stepped {
			break
		}
		frontier = aheadOf(self, curDist, peers, members)
	}

	out := make([]NodeInfo, 0, len(members))
	for _, m := range members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out, total
}

// aheadOf records every peer strictly clockwise-ahead of the walk position
// into members and returns them ordered farthest-first (ties by ID) as the
// next frontier.
func aheadOf(self NodeInfo, curDist id.ID, peers []NodeInfo, members map[id.ID]NodeInfo) []NodeInfo {
	var ahead []NodeInfo
	for _, p := range peers {
		if p.ID == self.ID {
			continue
		}
		d := self.ID.CWDist(p.ID)
		if !curDist.Less(d) {
			continue // at or behind the walk position, or wrapped past self
		}
		members[p.ID] = p
		ahead = append(ahead, p)
	}
	sort.Slice(ahead, func(i, j int) bool {
		di, dj := self.ID.CWDist(ahead[i].ID), self.ID.CWDist(ahead[j].ID)
		if di != dj {
			return dj.Less(di)
		}
		return ahead[i].ID.Less(ahead[j].ID)
	})
	return ahead
}

// LeafHalves returns copies of the leaf-set halves: successors sorted by
// increasing clockwise distance from self, predecessors by increasing
// counter-clockwise distance. The invariant oracle compares these against
// the ground-truth ring neighborhoods.
func (n *Node) LeafHalves() (succs, preds []NodeInfo) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]NodeInfo(nil), n.st.succs...), append([]NodeInfo(nil), n.st.preds...)
}

// LeafSize returns the configured leaf-set size l.
func (n *Node) LeafSize() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.leafSize
}

// Alive reports whether the node has bootstrapped and not left.
func (n *Node) Alive() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.alive
}

// TableEntries returns every non-empty routing-table entry with its row and
// column, for structural invariant checks and table-maintenance sweeps.
func (n *Node) TableEntries() []TableEntry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []TableEntry
	for r := range n.st.table {
		for c := range n.st.table[r] {
			if e := n.st.table[r][c]; !e.IsZero() {
				out = append(out, TableEntry{Row: r, Col: c, Node: e})
			}
		}
	}
	return out
}

// NextHopLocal computes the routing decision for key from this node's
// current state without any network traffic — the primitive the invariant
// oracle uses to walk routes hop by hop and prove loop freedom and hop
// bounds against the live membership ground truth.
func (n *Node) NextHopLocal(key id.ID, excluded []id.ID) (next NodeInfo, isRoot bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.nextHop(key, excluded)
}

// ReplicaCandidates returns up to k ring-adjacent leaf-set nodes,
// alternating successor/predecessor (Section 4.2).
func (n *Node) ReplicaCandidates(k int) []NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.replicaCandidates(k)
}

// LeafStats reports leaf-set occupancy for the overlay-health gauges: the
// current deduplicated member count and the ideal (configured) size l.
func (n *Node) LeafStats() (size, ideal int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.st.leafMembers()), n.st.leafSize
}

// TableStats reports routing-table occupancy: filled entries and how many
// rows hold at least one entry. Fill relative to rows×cols is the
// "routing-table fill" health gauge; absolute numbers are exported so the
// consumer picks its own denominator.
func (n *Node) TableStats() (entries, rows int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for r := range n.st.table {
		rowHas := false
		for c := range n.st.table[r] {
			if !n.st.table[r][c].IsZero() {
				entries++
				rowHas = true
			}
		}
		if rowHas {
			rows++
		}
	}
	return entries, rows
}

// IsRootFor reports whether this node believes it is numerically closest to
// key among the nodes it knows.
func (n *Node) IsRootFor(key id.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, isRoot := n.st.nextHop(key, nil)
	return isRoot
}

// addPeer merges a peer and fires the change callback when the leaf set
// shifts. It reports whether the leaf set changed.
func (n *Node) addPeer(p NodeInfo) bool {
	n.mu.Lock()
	changed := n.st.add(p)
	cb := n.onChange
	n.mu.Unlock()
	if changed && cb != nil {
		cb(LeafSetChange{Joined: []NodeInfo{p}})
	}
	return changed
}

func (n *Node) addPeers(ps []NodeInfo) {
	for _, p := range ps {
		n.addPeer(p)
	}
}

// removePeer purges a dead peer and fires the change callback when the leaf
// set shifts.
func (n *Node) removePeer(dead NodeInfo) {
	n.mu.Lock()
	changed := n.st.remove(dead.ID)
	cb := n.onChange
	n.mu.Unlock()
	if changed && cb != nil {
		cb(LeafSetChange{Left: []NodeInfo{dead}})
	}
}

// Bootstrap joins the overlay via a seed node's address; an empty seed
// starts a new overlay. Joining routes toward the new node's own id,
// merging routing state from every hop, then announces the newcomer to all
// nodes it learned about (Section 2.2's self-organizing join).
func (n *Node) Bootstrap(seed simnet.Addr) (simnet.Cost, error) {
	n.mu.Lock()
	n.alive = true
	self := n.st.self
	n.mu.Unlock()

	if seed == "" || seed == self.Addr {
		return 0, nil
	}

	var total simnet.Cost

	// Learn the seed's identity and state.
	state, cost, err := n.rpcGetState(seed)
	total = simnet.Seq(total, cost)
	if err != nil {
		return total, fmt.Errorf("pastry: bootstrap via %s: %w", seed, err)
	}
	n.addPeers(state)

	// Route toward our own id to find our ring neighborhood; merge state
	// from each hop on the way.
	res, err := n.routeCollect(obs.TraceContext{}, self.ID, true)
	total = simnet.Seq(total, res.Cost)
	if err != nil {
		return total, fmt.Errorf("pastry: join route: %w", err)
	}

	// Adopt the root's leaf set: those nodes bracket our position.
	if res.Node.ID != self.ID {
		leafs, cost, err := n.rpcGetLeafSet(res.Node.Addr)
		total = simnet.Seq(total, cost)
		if err == nil {
			n.addPeers(leafs)
			n.addPeer(res.Node)
		}
	}

	// Announce ourselves to everyone we know so their leaf sets include us
	// and their Kosha layers can migrate content (Section 4.3.1).
	for _, p := range n.Known() {
		cost, err := n.rpcNotify(p.Addr, self)
		total = simnet.Seq(total, cost)
		if err != nil {
			n.removePeer(p)
		}
	}
	return total, nil
}

// EnsureRootFor actively verifies whether this node is the root for key:
// if a better candidate exists it is pinged, and dead candidates are purged
// until either a live better node is found (false) or none remains (true).
// Kosha's primary-ownership checks use this so that a node bordering a
// fresh failure takes over its keys immediately (Section 4.4).
func (n *Node) EnsureRootFor(key id.ID) (bool, simnet.Cost) {
	var total simnet.Cost
	for i := 0; i < 16; i++ {
		n.mu.RLock()
		next, isRoot := n.st.nextHop(key, nil)
		n.mu.RUnlock()
		if isRoot {
			return true, total
		}
		c, err := n.rpcPing(next.Addr)
		total = simnet.Seq(total, c)
		if err == nil {
			return false, total
		}
		n.removePeer(next)
	}
	return false, total
}

// MarkDead purges a node (identified by address) from the routing state,
// used by the application layer when an RPC to that node failed outside the
// overlay (e.g. an NFS forward timed out, Section 4.4).
func (n *Node) MarkDead(addr simnet.Addr) {
	for _, p := range n.Known() {
		if p.Addr == addr {
			n.removePeer(p)
			return
		}
	}
}

// Route finds the live node numerically closest to key.
func (n *Node) Route(key id.ID) (RouteResult, error) {
	return n.routeCollect(obs.TraceContext{}, key, false)
}

// RouteCtx is Route under a distributed-tracing context: every next-hop RPC
// carries the caller's trace id, so each hop's server records a span fragment
// and the assembled cross-node trace shows the full routing path.
func (n *Node) RouteCtx(tc obs.TraceContext, key id.ID) (RouteResult, error) {
	return n.routeCollect(tc, key, false)
}

// routeCollect performs iterative routing. When collect is true, the full
// state of every hop is merged into our own (used during join). The origin
// sees every hop, so the walk terminates by construction: a next hop it has
// already visited — right after concurrent joins two nodes' views can each
// send a key to the other — means every node asked has disowned the key, and
// the walk ends at the numerically closest of them.
func (n *Node) routeCollect(tc obs.TraceContext, key id.ID, collect bool) (RouteResult, error) {
	self := n.Info()
	var res RouteResult
	var excluded []id.ID

	const maxHops = 64
restart:
	for attempts := 0; ; attempts++ {
		if attempts > maxHops {
			return res, fmt.Errorf("%w: no live candidates for %s", ErrRouteFailed, key.Short())
		}
		n.mu.RLock()
		next, isRoot := n.st.nextHop(key, excluded)
		n.mu.RUnlock()
		if isRoot {
			res.Node = self
			res.Path = append(res.Path, self)
			return res, nil
		}

		cur := next
		walk := len(res.Path) // this attempt's hops are res.Path[walk:]
		for hop := 0; hop < maxHops; hop++ {
			if collect {
				if st, cost, err := n.rpcGetState(cur.Addr); err == nil {
					res.Cost = simnet.Seq(res.Cost, cost)
					n.addPeers(st)
				}
			}
			nh, isRoot, cost, err := n.rpcNextHop(tc, cur.Addr, key, excluded)
			res.Cost = simnet.Seq(res.Cost, cost)
			res.Hops++
			if err != nil {
				// cur is dead: exclude it, purge it, restart from self.
				excluded = append(excluded, cur.ID)
				n.removePeer(cur)
				continue restart
			}
			n.addPeer(cur)
			res.Path = append(res.Path, cur)
			if isRoot {
				res.Node = cur
				return res, nil
			}
			if nh.ID == self.ID || among(res.Path[walk:], nh.ID) {
				res.Node = closestTo(key, self, res.Path[walk:])
				return res, nil
			}
			cur = nh
		}
		return res, fmt.Errorf("%w: exceeded %d hops for %s", ErrRouteFailed, maxHops, key.Short())
	}
}

// among reports whether one of nodes has the given id.
func among(nodes []NodeInfo, x id.ID) bool {
	for _, p := range nodes {
		if p.ID == x {
			return true
		}
	}
	return false
}

// closestTo returns the node numerically closest to key among first and rest,
// ties toward the smaller id as id.Closest breaks them.
func closestTo(key id.ID, first NodeInfo, rest []NodeInfo) NodeInfo {
	best := first
	for _, p := range rest {
		if c := key.Distance(p.ID).Cmp(key.Distance(best.ID)); c < 0 || c == 0 && p.ID.Less(best.ID) {
			best = p
		}
	}
	return best
}

// Stabilize probes leaf-set members, purges dead ones, and repairs the leaf
// set from surviving members' leaf sets ("maintaining its integrity
// invariants as nodes fail and recover", Section 2.2). It converges in a
// bounded number of passes and returns the simulated cost.
func (n *Node) Stabilize() simnet.Cost {
	var total simnet.Cost
	dead := make(map[id.ID]bool)
	self := n.Info()
	for pass := 0; pass < 6; pass++ {
		changed := false
		for _, p := range n.Leaf() {
			if dead[p.ID] {
				n.removePeer(p)
				changed = true
				continue
			}
			// Notify doubles as the liveness probe and re-announces us, so
			// a node that joined through a stale neighborhood is
			// eventually pulled into its true neighbors' leaf sets.
			cost, err := n.rpcNotify(p.Addr, self)
			total = simnet.Seq(total, cost)
			if err != nil {
				dead[p.ID] = true
				n.removePeer(p)
				changed = true
			}
		}
		// Pull survivors' leaf sets to fill holes, skipping nodes we just
		// observed dead (their entries may still name the dead).
		for _, p := range n.Leaf() {
			leafs, cost, err := n.rpcGetLeafSet(p.Addr)
			total = simnet.Seq(total, cost)
			if err != nil {
				dead[p.ID] = true
				n.removePeer(p)
				changed = true
				continue
			}
			for _, q := range leafs {
				if dead[q.ID] || q.ID == self.ID {
					continue
				}
				if n.addPeer(q) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return total
}

// RepairTable is the background routing-table maintenance pass that
// Stabilize's leaf-set repair does not cover. Leaf repair keeps the ring
// correct, but routing-table entries are only ever replaced when a route
// through them fails — under sustained churn a table silently rots into
// dead entries and routing degrades to leaf-set crawling (the IPFS
// measurement study's "stale routing entries" failure mode). This pass
// (1) probes every table entry and purges the dead, and (2) refills each
// row from a live same-row peer: a peer in our row r shares our first r
// digits, so every entry of its row r is a valid candidate for ours.
func (n *Node) RepairTable() simnet.Cost {
	var total simnet.Cost
	self := n.Info()
	dead := map[id.ID]bool{}
	probed := map[id.ID]bool{}
	for _, te := range n.TableEntries() {
		if probed[te.Node.ID] {
			continue
		}
		probed[te.Node.ID] = true
		cost, err := n.rpcPing(te.Node.Addr)
		total = simnet.Seq(total, cost)
		if err != nil {
			dead[te.Node.ID] = true
			n.removePeer(te.Node)
		}
	}
	// Refill pass: one row fetch per occupied row, from the first surviving
	// entry of that row (the snapshot follows the purge, so the peers asked
	// were just probed alive). Peers that have not run their own repair yet
	// may still advertise dead nodes, so a candidate this node has not
	// vetted is pinged before adoption — the pass never re-plants a dead
	// entry it just removed, which is what lets concurrent repairs converge.
	n.mu.RLock()
	rows := make([]NodeInfo, id.Digits)
	for r := 0; r < id.Digits; r++ {
		if es := n.st.row(r); len(es) > 0 {
			rows[r] = es[0]
		}
	}
	n.mu.RUnlock()
	known := map[id.ID]bool{}
	for _, p := range n.Known() {
		known[p.ID] = true
	}
	for r, peer := range rows {
		if peer.IsZero() || dead[peer.ID] {
			continue
		}
		entries, cost, err := n.rpcGetRow(peer.Addr, r)
		total = simnet.Seq(total, cost)
		if err != nil {
			dead[peer.ID] = true
			n.removePeer(peer)
			continue
		}
		for _, cand := range entries {
			if cand.ID == self.ID || dead[cand.ID] {
				continue
			}
			if !known[cand.ID] {
				cost, err := n.rpcPing(cand.Addr)
				total = simnet.Seq(total, cost)
				if err != nil {
					dead[cand.ID] = true
					continue
				}
				known[cand.ID] = true
			}
			n.addPeer(cand)
		}
	}
	return total
}

// Leave announces departure to all known nodes and marks the node dead.
func (n *Node) Leave() simnet.Cost {
	self := n.Info()
	var total simnet.Cost
	for _, p := range n.Known() {
		cost, _ := n.rpcRemoveNode(p.Addr, self.ID)
		total = simnet.Seq(total, cost)
	}
	n.mu.Lock()
	n.alive = false
	n.mu.Unlock()
	return total
}

// --- RPC client stubs ---

func (n *Node) call(to simnet.Addr, proc uint32, build func(*wire.Encoder)) (*wire.Decoder, simnet.Cost, error) {
	return n.callCtx(obs.TraceContext{}, to, proc, build)
}

// callCtx is call with trace-context propagation: a valid context rides the
// RPC envelope, so the peer's transport layer records a server span for the
// hop.
func (n *Node) callCtx(tc obs.TraceContext, to simnet.Addr, proc uint32, build func(*wire.Encoder)) (*wire.Decoder, simnet.Cost, error) {
	e := wire.NewEncoder(128)
	e.PutUint32(proc)
	if build != nil {
		build(e)
	}
	resp, cost, err := n.net.CallCtx(tc, n.Info().Addr, to, Service, e.Bytes())
	if err != nil {
		return nil, cost, err
	}
	return wire.NewDecoder(resp), cost, nil
}

func (n *Node) rpcPing(to simnet.Addr) (simnet.Cost, error) {
	_, cost, err := n.call(to, pPing, nil)
	return cost, err
}

func (n *Node) rpcNextHop(tc obs.TraceContext, to simnet.Addr, key id.ID, excluded []id.ID) (NodeInfo, bool, simnet.Cost, error) {
	d, cost, err := n.callCtx(tc, to, pNextHop, func(e *wire.Encoder) {
		e.PutFixedOpaque(key[:])
		putIDs(e, excluded)
	})
	if err != nil {
		return NodeInfo{}, false, cost, err
	}
	isRoot := d.Bool()
	next := getNodeInfo(d)
	if d.Err() != nil {
		return NodeInfo{}, false, cost, d.Err()
	}
	return next, isRoot, cost, nil
}

func (n *Node) rpcGetState(to simnet.Addr) ([]NodeInfo, simnet.Cost, error) {
	d, cost, err := n.call(to, pGetState, nil)
	if err != nil {
		return nil, cost, err
	}
	return getNodeInfos(d), cost, d.Err()
}

func (n *Node) rpcGetLeafSet(to simnet.Addr) ([]NodeInfo, simnet.Cost, error) {
	d, cost, err := n.call(to, pGetLeafSet, nil)
	if err != nil {
		return nil, cost, err
	}
	return getNodeInfos(d), cost, d.Err()
}

func (n *Node) rpcNotify(to simnet.Addr, who NodeInfo) (simnet.Cost, error) {
	d, cost, err := n.call(to, pNotify, func(e *wire.Encoder) {
		putNodeInfo(e, who)
		putLoad(e, n.localLoad())
	})
	if err != nil {
		return cost, err
	}
	d.Uint32()
	ld := getLoad(d)
	if d.Err() == nil {
		n.recordLoad(to, ld)
	}
	return cost, nil
}

func (n *Node) rpcGetRow(to simnet.Addr, row int) ([]NodeInfo, simnet.Cost, error) {
	d, cost, err := n.call(to, pGetRow, func(e *wire.Encoder) { e.PutUint32(uint32(row)) })
	if err != nil {
		return nil, cost, err
	}
	return getNodeInfos(d), cost, d.Err()
}

func (n *Node) rpcRemoveNode(to simnet.Addr, dead id.ID) (simnet.Cost, error) {
	_, cost, err := n.call(to, pRemoveNode, func(e *wire.Encoder) { e.PutFixedOpaque(dead[:]) })
	return cost, err
}

// --- RPC server handler ---

func (n *Node) handle(_ obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
	d := wire.NewDecoder(req)
	proc := d.Uint32()
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	e := wire.NewEncoder(128)
	switch proc {
	case pPing:
		e.PutUint32(0)

	case pNextHop:
		var key id.ID
		d.FixedOpaque(key[:])
		excluded := getIDs(d)
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		n.mu.RLock()
		next, isRoot := n.st.nextHop(key, excluded)
		n.mu.RUnlock()
		e.PutBool(isRoot)
		putNodeInfo(e, next)

	case pGetState:
		n.mu.RLock()
		all := append(n.st.allKnown(), n.st.self)
		n.mu.RUnlock()
		putNodeInfos(e, all)

	case pGetLeafSet:
		n.mu.RLock()
		leafs := append(n.st.leafMembers(), n.st.self)
		n.mu.RUnlock()
		putNodeInfos(e, leafs)

	case pGetRow:
		row := int(d.Uint32())
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		if row < 0 || row >= id.Digits {
			return nil, 0, fmt.Errorf("pastry: get-row: row %d out of range", row)
		}
		n.mu.RLock()
		// The responder itself shares the requester's row-r prefix (the
		// requester picked it from its own row r), so include it: a row with
		// a single mutual entry still self-heals.
		entries := append(n.st.row(row), n.st.self)
		n.mu.RUnlock()
		putNodeInfos(e, entries)

	case pNotify:
		who := getNodeInfo(d)
		ld := getLoad(d)
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		n.addPeer(who)
		n.recordLoad(who.Addr, ld)
		e.PutUint32(0)
		putLoad(e, n.localLoad())

	case pRemoveNode:
		var dead id.ID
		d.FixedOpaque(dead[:])
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		n.mu.RLock()
		var info NodeInfo
		for _, p := range n.st.allKnown() {
			if p.ID == dead {
				info = p
				break
			}
		}
		n.mu.RUnlock()
		if !info.IsZero() {
			n.removePeer(info)
		}
		e.PutUint32(0)

	default:
		return nil, 0, fmt.Errorf("pastry: unknown proc %d", proc)
	}
	// Overlay control messages are tiny; processing cost is dominated by
	// the link model, so report zero local cost.
	return append([]byte(nil), e.Bytes()...), 0, nil
}
