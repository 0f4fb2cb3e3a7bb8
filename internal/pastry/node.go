package pastry

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
// in N's leaf set are affected", Section 4.3). One change covers one
// overlay message's worth of membership and is never empty.
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
// included, sorted by ID. Known() cannot stand in for it: a node's own
// routing state names only O(log N) peers. Kosha itself never needs the
// whole membership: the virtual root is listed from its replicated name
// index. The one caller is bench/ledger.go, which prices a ring walk.
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
	return n.st.halves()
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
	return n.st.tableEntries()
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
// alternating successor/predecessor (Section 4.2), in a fresh slice.
func (n *Node) ReplicaCandidates(k int) []NodeInfo {
	return n.AppendReplicaCandidates(nil, k)
}

// AppendReplicaCandidates is ReplicaCandidates appended to dst: a caller
// that fills a buffer of its own, as the primary does on every apply,
// allocates nothing when the buffer holds k.
func (n *Node) AppendReplicaCandidates(dst []NodeInfo, k int) []NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.appendReplicaCandidates(dst, k)
}

// LeafStats reports leaf-set occupancy for the overlay-health gauges: the
// current member count and the ideal (configured) size l.
func (n *Node) LeafStats() (size, ideal int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.st.leaf), n.st.leafSize
}

// TableStats reports routing-table occupancy: filled entries and how many
// rows hold at least one entry. Fill relative to rows×cols is the
// "routing-table fill" health gauge; absolute numbers are exported so the
// consumer picks its own denominator.
func (n *Node) TableStats() (entries, rows int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.st.tableStats()
}

// update is the one writer of the membership state: under the write lock
// it merges joined, then purges left, and reports the members whose merge
// or purge changed the leaf set, in that order, as one LeafSetChange. A
// caller hands it one message's worth of membership. It reports whether the
// leaf set changed.
func (n *Node) update(joined, left []NodeInfo) bool {
	var c LeafSetChange
	n.mu.Lock()
	for _, p := range joined {
		if n.st.add(p) {
			c.Joined = append(c.Joined, p)
		}
	}
	for _, p := range left {
		if n.st.remove(p.ID) {
			c.Left = append(c.Left, p)
		}
	}
	cb := n.onChange
	n.mu.Unlock()
	changed := c.Joined != nil || c.Left != nil
	if changed && cb != nil {
		cb(c)
	}
	return changed
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
	n.update(state, nil)

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
			n.update(append(leafs, res.Node), nil)
		}
	}

	// Announce ourselves to everyone we know so their leaf sets include us
	// and their Kosha layers can migrate content (Section 4.3.1).
	var gone []NodeInfo
	for _, p := range n.Known() {
		cost, err := n.rpcNotify(p.Addr, self)
		total = simnet.Seq(total, cost)
		if err != nil {
			gone = append(gone, p)
		}
	}
	n.update(nil, gone)
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
		n.update(nil, []NodeInfo{next})
	}
	return false, total
}

// MarkDead purges a node (identified by address) from the routing state,
// used by the application layer when an RPC to that node failed outside the
// overlay (e.g. an NFS forward timed out, Section 4.4).
func (n *Node) MarkDead(addr simnet.Addr) {
	var buf [64]NodeInfo
	n.mu.RLock()
	known := n.st.appendKnown(buf[:0])
	i := slices.IndexFunc(known, func(p NodeInfo) bool { return p.Addr == addr })
	n.mu.RUnlock()
	if i >= 0 {
		n.update(nil, known[i:i+1])
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
			// A hop is one change: the state it sent when collecting, then
			// the hop itself, merged if it answered and purged if not. The
			// hop alone fits in buf, so a plain route allocates nothing.
			var buf [1]NodeInfo
			st := buf[:0]
			if collect {
				if got, cost, err := n.rpcGetState(cur.Addr); err == nil {
					res.Cost = simnet.Seq(res.Cost, cost)
					st = got
				}
			}
			nh, isRoot, cost, err := n.rpcNextHop(tc, cur.Addr, key, excluded)
			res.Cost = simnet.Seq(res.Cost, cost)
			res.Hops++
			if err != nil {
				// cur is dead: exclude it, purge it, restart from self.
				excluded = append(excluded, cur.ID)
				n.update(st, []NodeInfo{cur})
				continue restart
			}
			n.update(append(st, cur), nil)
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
		// The dead members the probe finds are purged together, after it.
		var gone []NodeInfo
		for _, p := range n.Leaf() {
			if !dead[p.ID] {
				// Notify doubles as the liveness probe and re-announces us,
				// so a node that joined through a stale neighborhood is
				// eventually pulled into its true neighbors' leaf sets.
				cost, err := n.rpcNotify(p.Addr, self)
				total = simnet.Seq(total, cost)
				if err == nil {
					continue
				}
				dead[p.ID] = true
			}
			gone = append(gone, p)
		}
		n.update(nil, gone)
		changed := gone != nil
		// Pull survivors' leaf sets to fill holes, skipping nodes we just
		// observed dead (their entries may still name the dead).
		for _, p := range n.Leaf() {
			leafs, cost, err := n.rpcGetLeafSet(p.Addr)
			total = simnet.Seq(total, cost)
			if err != nil {
				dead[p.ID] = true
				n.update(nil, []NodeInfo{p})
				changed = true
				continue
			}
			leafs = slices.DeleteFunc(leafs, func(q NodeInfo) bool { return dead[q.ID] })
			if n.update(leafs, nil) {
				changed = true
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
	// vetted holds the nodes this pass adopts without a ping: every table
	// entry once probed, the leaf set after the purge, and each candidate
	// once pinged.
	vetted := map[id.ID]bool{}
	var gone []NodeInfo
	for _, te := range n.TableEntries() {
		vetted[te.Node.ID] = true
		cost, err := n.rpcPing(te.Node.Addr)
		total = simnet.Seq(total, cost)
		if err != nil {
			dead[te.Node.ID] = true
			gone = append(gone, te.Node)
		}
	}
	n.update(nil, gone)
	// Refill pass: one row fetch per occupied row, from the first surviving
	// entry of that row (the snapshot follows the purge, so the peers asked
	// were just probed alive). Peers that have not run their own repair yet
	// may still advertise dead nodes, so a candidate this node has not
	// vetted is pinged before adoption — the pass never re-plants a dead
	// entry it just removed, which is what lets concurrent repairs converge.
	n.mu.RLock()
	var rows [id.Digits]NodeInfo
	for r, m := range n.st.occ {
		if m != 0 {
			rows[r] = n.st.rows[r][bits.TrailingZeros16(m)]
		}
	}
	for _, p := range n.st.leaf {
		vetted[p.ID] = true
	}
	n.mu.RUnlock()
	for r, peer := range rows {
		if peer.IsZero() || dead[peer.ID] {
			continue
		}
		entries, cost, err := n.rpcGetRow(peer.Addr, r)
		total = simnet.Seq(total, cost)
		if err != nil {
			dead[peer.ID] = true
			n.update(nil, []NodeInfo{peer})
			continue
		}
		adopt := entries[:0]
		for _, cand := range entries {
			if cand.ID == self.ID || dead[cand.ID] {
				continue
			}
			if !vetted[cand.ID] {
				vetted[cand.ID] = true
				cost, err := n.rpcPing(cand.Addr)
				total = simnet.Seq(total, cost)
				if err != nil {
					dead[cand.ID] = true
					continue
				}
			}
			adopt = append(adopt, cand)
		}
		n.update(adopt, nil)
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

func (n *Node) call(to simnet.Addr, proc uint32, build func(*wire.Encoder)) (*wire.Codec, *wire.Decoder, simnet.Cost, error) {
	return n.callCtx(obs.TraceContext{}, to, proc, build)
}

// callCtx is call with trace-context propagation: a valid context rides the
// RPC envelope, so the peer's transport layer records a server span for the
// hop. The request frame is encoded into the array of a wire.Codec from the
// pool and the reply decoded by its decoder, so a call allocates nothing of
// its own; the caller frees the Codec once it has decoded the reply. A
// failed call frees the Codec itself and returns nil for both.
func (n *Node) callCtx(tc obs.TraceContext, to simnet.Addr, proc uint32, build func(*wire.Encoder)) (*wire.Codec, *wire.Decoder, simnet.Cost, error) {
	x := wire.GetCodec()
	e := &x.E
	e.PutUint32(proc)
	if build != nil {
		build(e)
	}
	resp, cost, err := n.net.CallCtx(tc, n.Info().Addr, to, Service, e.Bytes())
	if err != nil {
		x.Free()
		return nil, nil, cost, err
	}
	x.D.Reset(resp)
	return x, &x.D, cost, nil
}

func (n *Node) rpcPing(to simnet.Addr) (simnet.Cost, error) {
	x, _, cost, err := n.call(to, pPing, nil)
	x.Free()
	return cost, err
}

func (n *Node) rpcNextHop(tc obs.TraceContext, to simnet.Addr, key id.ID, excluded []id.ID) (NodeInfo, bool, simnet.Cost, error) {
	x, d, cost, err := n.callCtx(tc, to, pNextHop, func(e *wire.Encoder) {
		e.PutFixedOpaque(key[:])
		putIDs(e, excluded)
	})
	defer x.Free()
	if err != nil {
		return NodeInfo{}, false, cost, err
	}
	isRoot := d.Bool()
	n.mu.RLock()
	next := n.st.getNodeInfo(d)
	n.mu.RUnlock()
	if d.Err() != nil {
		return NodeInfo{}, false, cost, d.Err()
	}
	return next, isRoot, cost, nil
}

func (n *Node) rpcGetState(to simnet.Addr) ([]NodeInfo, simnet.Cost, error) {
	return n.rpcNodeInfos(to, pGetState, nil)
}

func (n *Node) rpcGetLeafSet(to simnet.Addr) ([]NodeInfo, simnet.Cost, error) {
	return n.rpcNodeInfos(to, pGetLeafSet, nil)
}

func (n *Node) rpcGetRow(to simnet.Addr, row int) ([]NodeInfo, simnet.Cost, error) {
	return n.rpcNodeInfos(to, pGetRow, func(e *wire.Encoder) { e.PutUint32(uint32(row)) })
}

// rpcNodeInfos is the exchange of the procedures whose reply is a node list.
// The list is the one allocation: each address takes the string this node
// already holds for that peer (state.getNodeInfo).
func (n *Node) rpcNodeInfos(to simnet.Addr, proc uint32, build func(*wire.Encoder)) ([]NodeInfo, simnet.Cost, error) {
	x, d, cost, err := n.call(to, proc, build)
	defer x.Free()
	if err != nil {
		return nil, cost, err
	}
	cnt := d.ArrayLen()
	out := make([]NodeInfo, 0, min(cnt, 1024))
	n.mu.RLock()
	defer n.mu.RUnlock()
	for i := 0; i < cnt; i++ {
		p := n.st.getNodeInfo(d)
		if d.Err() != nil {
			return nil, cost, d.Err()
		}
		out = append(out, p)
	}
	return out, cost, d.Err()
}

func (n *Node) rpcNotify(to simnet.Addr, who NodeInfo) (simnet.Cost, error) {
	x, d, cost, err := n.call(to, pNotify, func(e *wire.Encoder) {
		putNodeInfo(e, who)
		putLoad(e, n.localLoad())
	})
	defer x.Free()
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

func (n *Node) rpcRemoveNode(to simnet.Addr, dead id.ID) (simnet.Cost, error) {
	x, _, cost, err := n.call(to, pRemoveNode, func(e *wire.Encoder) { e.PutFixedOpaque(dead[:]) })
	x.Free()
	return cost, err
}

// --- RPC server handler ---

func (n *Node) handle(_ obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
	var d wire.Decoder
	d.Reset(req)
	proc := d.Uint32()
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	// Each reply is encoded at its exact size, a node list straight from
	// the state through a stack buffer, so the reply is the one allocation.
	var e wire.Encoder
	switch proc {
	case pPing:
		e.Grow(4)
		e.PutUint32(0)

	case pNextHop:
		var key id.ID
		d.FixedOpaque(key[:])
		excluded := getIDs(&d)
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		n.mu.RLock()
		next, isRoot := n.st.nextHop(key, excluded)
		n.mu.RUnlock()
		e.Grow(4 + nodeInfoLen(next))
		e.PutBool(isRoot)
		putNodeInfo(&e, next)

	case pGetState:
		var buf [64]NodeInfo
		n.mu.RLock()
		putNodeInfos(&e, append(n.st.appendKnown(buf[:0]), n.st.self))
		n.mu.RUnlock()

	case pGetLeafSet:
		var buf [64]NodeInfo
		n.mu.RLock()
		putNodeInfos(&e, append(n.st.appendLeaf(buf[:0]), n.st.self))
		n.mu.RUnlock()

	case pGetRow:
		row := int(d.Uint32())
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		if row < 0 || row >= id.Digits {
			return nil, 0, fmt.Errorf("pastry: get-row: row %d out of range", row)
		}
		var buf [64]NodeInfo
		n.mu.RLock()
		// The responder itself shares the requester's row-r prefix (the
		// requester picked it from its own row r), so include it: a row with
		// a single mutual entry still self-heals.
		putNodeInfos(&e, append(n.st.appendRow(buf[:0], row), n.st.self))
		n.mu.RUnlock()

	case pNotify:
		n.mu.RLock()
		who := n.st.getNodeInfo(&d)
		n.mu.RUnlock()
		ld := getLoad(&d)
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		n.update([]NodeInfo{who}, nil)
		n.recordLoad(who.Addr, ld)
		e.Grow(4 + loadLen)
		e.PutUint32(0)
		putLoad(&e, n.localLoad())

	case pRemoveNode:
		var dead id.ID
		d.FixedOpaque(dead[:])
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		n.mu.RLock()
		info, ok := n.st.known(dead)
		n.mu.RUnlock()
		if ok {
			n.update(nil, []NodeInfo{info})
		}
		e.Grow(4)
		e.PutUint32(0)

	default:
		return nil, 0, fmt.Errorf("pastry: unknown proc %d", proc)
	}
	// Overlay control messages are tiny; processing cost is dominated by
	// the link model, so report zero local cost. The reply is the encoder's
	// own bytes: nothing else holds them, and the caller owns a reply.
	return e.Bytes(), 0, nil
}
