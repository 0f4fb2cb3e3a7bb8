// Package pastry implements the structured p2p overlay Kosha builds on
// (Section 2.2): 128-bit circular nodeIds, prefix-based routing with a
// routing table of rows sharing increasingly long prefixes, and a leaf set
// of l numerically closest nodes (l/2 larger, l/2 smaller) that "ensures
// reliable message delivery and is used to store replicas of application
// objects".
//
// Routing is iterative: the querying node asks each hop for its next hop
// until a node claims root ownership of the key (numerically closest
// nodeId). Each hop is one overlay RPC whose simulated latency feeds the
// paper's H·hc overhead term (Section 6.1.2). Node state is bounded —
// O(log N) routing rows plus the l-entry leaf set — so hop counts scale as
// log_2^b(N) exactly as in the paper; nodes never keep a global membership
// list.
package pastry

import (
	"repro/internal/id"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Service is the simnet service name Pastry nodes register under.
const Service = "pastry"

// proc numbers for the overlay protocol.
const (
	pPing       = 0
	pNextHop    = 1
	pGetState   = 2
	pGetLeafSet = 3
	pNotify     = 4
	pRemoveNode = 5
	pGetRow     = 6
)

// ProcName names an overlay procedure number for trace span labels.
func ProcName(p uint32) string {
	switch p {
	case pPing:
		return "ping"
	case pNextHop:
		return "next-hop"
	case pGetState:
		return "get-state"
	case pGetLeafSet:
		return "get-leaf-set"
	case pNotify:
		return "notify"
	case pRemoveNode:
		return "remove-node"
	case pGetRow:
		return "get-row"
	}
	return "?"
}

// TableEntry is one occupied routing-table slot.
type TableEntry struct {
	Row, Col int
	Node     NodeInfo
}

// NodeInfo identifies an overlay member.
type NodeInfo struct {
	ID   id.ID
	Addr simnet.Addr
}

// IsZero reports whether the info is unset.
func (n NodeInfo) IsZero() bool { return n.Addr == "" && n.ID.IsZero() }

// Load is a node's storage occupancy, piggybacked on leaf-set heartbeats
// (pNotify) so capacity views spread with the traffic that already exists.
// Capacity <= 0 means unlimited.
type Load struct {
	Used     int64
	Capacity int64
}

// Utilization returns Used/Capacity, or 0 for unlimited stores.
func (l Load) Utilization() float64 {
	if l.Capacity <= 0 {
		return 0
	}
	return float64(l.Used) / float64(l.Capacity)
}

// loadLen is the encoded size of a Load.
const loadLen = 16

func putLoad(e *wire.Encoder, l Load) {
	e.PutInt64(l.Used)
	e.PutInt64(l.Capacity)
}

func getLoad(d *wire.Decoder) Load {
	return Load{Used: d.Int64(), Capacity: d.Int64()}
}

// nodeInfoLen is the encoded size of n: its id, then its address as a
// length-prefixed string padded to a word.
func nodeInfoLen(n NodeInfo) int {
	return id.Bytes + 4 + (len(n.Addr)+3)&^3
}

func putNodeInfo(e *wire.Encoder, n NodeInfo) {
	e.PutFixedOpaque(n.ID[:])
	e.PutString(string(n.Addr))
}

// getNodeInfo decodes a node. Its address is read in place and takes the
// string s already holds for that peer (state.knownAddr), so only a
// stranger's address is allocated. The caller holds the node's lock.
func (s *state) getNodeInfo(d *wire.Decoder) NodeInfo {
	var n NodeInfo
	d.FixedOpaque(n.ID[:])
	n.Addr = s.knownAddr(n.ID, d.OpaqueRef())
	return n
}

// putNodeInfos encodes a counted node list, growing the frame once to fit.
func putNodeInfos(e *wire.Encoder, ns []NodeInfo) {
	size := 4
	for _, n := range ns {
		size += nodeInfoLen(n)
	}
	e.Grow(size)
	e.PutUint32(uint32(len(ns)))
	for _, n := range ns {
		putNodeInfo(e, n)
	}
}

func putIDs(e *wire.Encoder, ids []id.ID) {
	e.PutUint32(uint32(len(ids)))
	for _, v := range ids {
		e.PutFixedOpaque(v[:])
	}
}

func getIDs(d *wire.Decoder) []id.ID {
	n := d.ArrayLen()
	out := make([]id.ID, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		var v id.ID
		d.FixedOpaque(v[:])
		out = append(out, v)
	}
	return out
}
