package pastry

import (
	"slices"
	"sort"

	"repro/internal/id"
)

// DefaultLeafSize is l, the leaf-set size (l/2 numerically larger and l/2
// smaller nodeIds than the present node, Section 2.2). 16 is FreePastry's
// default.
const DefaultLeafSize = 16

// state holds a node's bounded overlay state: the prefix routing table and
// the leaf set. It is not itself synchronized; Node guards it.
type state struct {
	self     NodeInfo
	leafSize int

	// table[row][col] is a node sharing `row` leading digits with self and
	// whose next digit is col. Zero value means empty.
	table [id.Digits][1 << id.BitsPerDigit]NodeInfo

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
	row := id.SharedPrefixLen(s.self.ID, n.ID)
	if row < id.Digits {
		col := n.ID.Digit(row)
		if s.table[row][col].IsZero() {
			s.table[row][col] = n
		}
	}
	half := s.leafSize / 2
	d := s.self.ID.CWDist(n.ID)
	i := sort.Search(len(s.leaf), func(j int) bool { return !s.self.ID.CWDist(s.leaf[j].ID).Less(d) })
	if i < len(s.leaf) && s.leaf[i].ID == n.ID {
		return false
	}
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
	if row := id.SharedPrefixLen(s.self.ID, dead); row < id.Digits {
		col := dead.Digit(row)
		if s.table[row][col].ID == dead {
			s.table[row][col] = NodeInfo{}
		}
	}
	i := slices.IndexFunc(s.leaf, func(e NodeInfo) bool { return e.ID == dead })
	if i < 0 {
		return false
	}
	s.leaf = slices.Delete(s.leaf, i, i+1)
	return true
}

// row returns the non-empty entries of routing-table row r.
func (s *state) row(r int) []NodeInfo {
	var out []NodeInfo
	for c := range s.table[r] {
		if e := s.table[r][c]; !e.IsZero() {
			out = append(out, e)
		}
	}
	return out
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

// leafMembers returns the leaf set (not including self) in a fresh slice:
// the successors nearest first, then the other entries nearest
// counter-clockwise first. It has room for one more, the self that a
// leaf-set reply appends.
func (s *state) leafMembers() []NodeInfo {
	h := min(s.leafSize/2, len(s.leaf))
	out := make([]NodeInfo, 0, len(s.leaf)+1)
	out = append(out, s.leaf[:h]...)
	for i := len(s.leaf) - 1; i >= h; i-- {
		out = append(out, s.leaf[i])
	}
	return out
}

// allKnown returns every node in the table and leaf set (not self).
func (s *state) allKnown() []NodeInfo {
	out := s.leafMembers()
	seen := make(map[id.ID]bool, len(out))
	for _, n := range out {
		seen[n.ID] = true
	}
	for r := range s.table {
		for c := range s.table[r] {
			n := s.table[r][c]
			if !n.IsZero() && !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
		}
	}
	return out
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
		col := key.Digit(row)
		if e := s.table[row][col]; !e.IsZero() && !excl[e.ID] {
			return e, false
		}
	}

	// Rare case: scan all known nodes for one at least as good by prefix
	// and strictly closer numerically.
	selfDist := key.Distance(s.self.ID)
	var best NodeInfo
	var bestDist id.ID
	for _, n := range s.allKnown() {
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
