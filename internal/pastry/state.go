package pastry

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/id"
	"repro/internal/simnet"
)

// DefaultLeafSize is l, the leaf-set size (l/2 numerically larger and l/2
// smaller nodeIds than the present node, Section 2.2). 16 is FreePastry's
// default.
const DefaultLeafSize = 16

// cols is the routing table's width: one column per digit value.
const cols = 1 << id.BitsPerDigit

// state holds a node's bounded overlay state: the prefix routing table and
// the leaf set. It is not itself synchronized; Node guards it.
type state struct {
	self     NodeInfo
	leafSize int

	// rows[r][c] is a node sharing r leading digits with self and whose
	// next digit is c; bit c of occ[r] is set while that slot is occupied.
	// A row is allocated when its first entry arrives, so the table costs
	// the ⌈log₁₆ N⌉ rows an overlay of N nodes fills, not all id.Digits.
	rows [id.Digits]*[cols]NodeInfo
	occ  [id.Digits]uint16

	// leaf is the leaf set, at most l nodes sorted by increasing clockwise
	// distance from self. Its first l/2 entries are the successors and its
	// last l/2, read backwards, the predecessors. With fewer than l entries
	// the two runs meet and the set wraps the whole ring, as in real Pastry.
	leaf []NodeInfo
}

func newState(self NodeInfo, leafSize int) *state {
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	// Keep halves even.
	if leafSize%2 == 1 {
		leafSize++
	}
	return &state{self: self, leafSize: leafSize}
}

// add merges a node into the routing table and leaf set. It reports whether
// the leaf set changed (the trigger for Kosha's replica maintenance).
func (s *state) add(n NodeInfo) bool {
	if n.ID == s.self.ID || n.IsZero() {
		return false
	}
	if r, c, ok := s.slotOf(n.ID); ok && s.occ[r]&(1<<c) == 0 {
		if s.rows[r] == nil {
			s.rows[r] = new([cols]NodeInfo)
		}
		s.rows[r][c] = n
		s.occ[r] |= 1 << c
	}
	// A member is found by id, which costs less than the distance search
	// that places a newcomer; nearly every add in a repair pass is one.
	if _, ok := s.leafMember(n.ID); ok {
		return false
	}
	half := s.leafSize / 2
	d := s.self.ID.CWDist(n.ID)
	i := sort.Search(len(s.leaf), func(j int) bool { return !s.self.ID.CWDist(s.leaf[j].ID).Less(d) })
	if i >= half && len(s.leaf)-i >= half {
		return false // beyond the l/2 nearest in both directions
	}
	s.leaf = slices.Insert(s.leaf, i, n)
	if len(s.leaf) > s.leafSize {
		s.leaf = slices.Delete(s.leaf, half, len(s.leaf)-half)
	}
	return true
}

// remove purges a node from all state. Reports whether the leaf set changed.
func (s *state) remove(dead id.ID) bool {
	if r, c, ok := s.slotOf(dead); ok && s.slot(r, c).ID == dead {
		s.rows[r][c] = NodeInfo{}
		s.occ[r] &^= 1 << c
	}
	i := slices.IndexFunc(s.leaf, func(e NodeInfo) bool { return e.ID == dead })
	if i < 0 {
		return false
	}
	s.leaf = slices.Delete(s.leaf, i, i+1)
	return true
}

// slotOf returns the routing-table slot a node with identifier x belongs
// in; ok is false for self's own identifier, which has none.
func (s *state) slotOf(x id.ID) (r, c int, ok bool) {
	r = id.SharedPrefixLen(s.self.ID, x)
	if r == id.Digits {
		return 0, 0, false
	}
	return r, x.Digit(r), true
}

// slot returns routing-table entry (r, c), the zero NodeInfo when empty.
func (s *state) slot(r, c int) NodeInfo {
	if s.occ[r]&(1<<c) == 0 {
		return NodeInfo{}
	}
	return s.rows[r][c]
}

// tableStats counts the occupied routing-table slots and the rows holding
// at least one.
func (s *state) tableStats() (entries, rows int) {
	for _, m := range s.occ {
		entries += bits.OnesCount16(m)
		if m != 0 {
			rows++
		}
	}
	return entries, rows
}

// tableEntries returns every occupied routing-table slot by row and column.
func (s *state) tableEntries() []TableEntry {
	entries, _ := s.tableStats()
	out := make([]TableEntry, 0, entries)
	for r, m := range s.occ {
		for ; m != 0; m &= m - 1 {
			c := bits.TrailingZeros16(m)
			out = append(out, TableEntry{Row: r, Col: c, Node: s.rows[r][c]})
		}
	}
	return out
}

// appendRow appends the entries of routing-table row r, by column.
func (s *state) appendRow(dst []NodeInfo, r int) []NodeInfo {
	for m := s.occ[r]; m != 0; m &= m - 1 {
		dst = append(dst, s.rows[r][bits.TrailingZeros16(m)])
	}
	return dst
}

// halves returns copies of the successor and predecessor runs, each
// sorted nearest first.
func (s *state) halves() (succs, preds []NodeInfo) {
	h := min(s.leafSize/2, len(s.leaf))
	succs = append(succs, s.leaf[:h]...)
	for i := len(s.leaf) - 1; i >= len(s.leaf)-h; i-- {
		preds = append(preds, s.leaf[i])
	}
	return succs, preds
}

// appendLeaf appends the leaf set (not including self): the successors
// nearest first, then the other entries nearest counter-clockwise first.
func (s *state) appendLeaf(dst []NodeInfo) []NodeInfo {
	h := min(s.leafSize/2, len(s.leaf))
	dst = append(dst, s.leaf[:h]...)
	for i := len(s.leaf) - 1; i >= h; i-- {
		dst = append(dst, s.leaf[i])
	}
	return dst
}

// leafMembers returns appendLeaf in a fresh slice.
func (s *state) leafMembers() []NodeInfo {
	return s.appendLeaf(make([]NodeInfo, 0, len(s.leaf)))
}

// leafMember returns the leaf-set member with identifier x, if any.
func (s *state) leafMember(x id.ID) (NodeInfo, bool) {
	for _, p := range s.leaf {
		if p.ID == x {
			return p, true
		}
	}
	return NodeInfo{}, false
}

// appendKnown appends every node in the leaf set and table (not self): the
// leaf set as appendLeaf orders it, then the table entries by row and
// column. A node has one table slot, so an entry can only repeat a leaf
// member, and those are skipped.
func (s *state) appendKnown(dst []NodeInfo) []NodeInfo {
	dst = s.appendLeaf(dst)
	for r, m := range s.occ {
		for ; m != 0; m &= m - 1 {
			n := s.rows[r][bits.TrailingZeros16(m)]
			if _, dup := s.leafMember(n.ID); !dup {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// allKnown returns appendKnown in a fresh slice.
func (s *state) allKnown() []NodeInfo { return s.appendKnown(nil) }

// known returns the node this state holds under identifier x, self
// excluded: a leaf member first, else the occupant of x's table slot.
func (s *state) known(x id.ID) (NodeInfo, bool) {
	if n, ok := s.leafMember(x); ok {
		return n, true
	}
	if r, c, ok := s.slotOf(x); ok {
		if n := s.slot(r, c); n.ID == x && !n.IsZero() {
			return n, true
		}
	}
	return NodeInfo{}, false
}

// knownAddr returns raw, the address a peer reported for the node x, as a
// string: the one this state already holds when self, x's table slot or a
// leaf member has that id and those bytes, so only a stranger's address
// (or a changed one) is allocated.
func (s *state) knownAddr(x id.ID, raw []byte) simnet.Addr {
	if x == s.self.ID {
		if string(s.self.Addr) == string(raw) {
			return s.self.Addr
		}
	} else if n, ok := s.known(x); ok && string(n.Addr) == string(raw) {
		return n.Addr
	}
	return simnet.Addr(raw)
}

// leafCovers reports whether the leaf-set arc contains key, meaning the
// root can be decided among leaf members. With fewer than l entries the
// successor and predecessor runs meet and the leaf set wraps the whole ring.
func (s *state) leafCovers(key id.ID) bool {
	if len(s.leaf) < s.leafSize {
		return true
	}
	lo := s.leaf[len(s.leaf)-s.leafSize/2].ID // farthest counter-clockwise
	hi := s.leaf[s.leafSize/2-1].ID           // farthest clockwise
	return id.Between(key, lo, hi) || key == lo
}

// closestLeaf returns the member of leafset∪self numerically closest to
// key, excluding ids in excl.
func (s *state) closestLeaf(key id.ID, excl map[id.ID]bool) NodeInfo {
	best := s.self
	if excl[s.self.ID] {
		best = NodeInfo{}
	}
	for _, n := range s.leaf {
		if excl[n.ID] {
			continue
		}
		if best.IsZero() {
			best = n
			continue
		}
		dn, db := key.Distance(n.ID), key.Distance(best.ID)
		if dn.Less(db) || (dn == db && n.ID.Less(best.ID)) {
			best = n
		}
	}
	return best
}

// nextHop computes the routing decision for key, excluding dead nodes:
// isRoot means this node believes it is numerically closest; otherwise next
// is a strictly better hop (longer shared prefix, or closer at equal
// prefix), per the Pastry routing procedure.
func (s *state) nextHop(key id.ID, excluded []id.ID) (next NodeInfo, isRoot bool) {
	excl := make(map[id.ID]bool, len(excluded))
	for _, x := range excluded {
		excl[x] = true
	}

	// Leaf-set case: key within the leaf arc.
	if s.leafCovers(key) {
		best := s.closestLeaf(key, excl)
		if best.IsZero() || best.ID == s.self.ID {
			return NodeInfo{}, true
		}
		return best, false
	}

	// Prefix routing.
	row := id.SharedPrefixLen(s.self.ID, key)
	if row < id.Digits {
		if e := s.slot(row, key.Digit(row)); !e.IsZero() && !excl[e.ID] {
			return e, false
		}
	}

	// Rare case: scan all known nodes for one at least as good by prefix
	// and strictly closer numerically.
	selfDist := key.Distance(s.self.ID)
	var best NodeInfo
	var bestDist id.ID
	var buf [64]NodeInfo
	for _, n := range s.appendKnown(buf[:0]) {
		if excl[n.ID] {
			continue
		}
		if id.SharedPrefixLen(n.ID, key) < row {
			continue
		}
		d := key.Distance(n.ID)
		if !d.Less(selfDist) {
			continue
		}
		if best.IsZero() || d.Less(bestDist) {
			best, bestDist = n, d
		}
	}
	if best.IsZero() {
		return NodeInfo{}, true
	}
	return best, false
}

// appendReplicaCandidates appends up to k leaf-set nodes ring-adjacent to
// self, alternating successor/predecessor, the paper's "neighboring K nodes
// in the node-identifier space" that hold file replicas (Section 4.2). The
// leaf set is read from both ends inward, so each node is taken once and
// nothing is allocated beyond dst's growth.
func (s *state) appendReplicaCandidates(dst []NodeInfo, k int) []NodeInfo {
	for i, j := 0, len(s.leaf)-1; i <= j && k > 0; i, j = i+1, j-1 {
		dst = append(dst, s.leaf[i])
		k--
		if i < j && k > 0 {
			dst = append(dst, s.leaf[j])
			k--
		}
	}
	return dst
}
