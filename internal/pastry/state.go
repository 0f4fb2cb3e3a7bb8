package pastry

import (
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

	// succs/preds are the leaf set halves: successors sorted by increasing
	// clockwise distance from self, predecessors by increasing
	// counter-clockwise distance. In overlays with at most l nodes the two
	// halves cover the same nodes (full wrap), as in real Pastry.
	succs []NodeInfo
	preds []NodeInfo
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
	changed := insertLeaf(&s.succs, s.self.ID, n, s.leafSize/2, false)
	if insertLeaf(&s.preds, s.self.ID, n, s.leafSize/2, true) {
		changed = true
	}
	return changed
}

// insertLeaf inserts n into one sorted leaf-set half, bounded to max
// entries. pred selects counter-clockwise ordering. Reports insertion.
func insertLeaf(half *[]NodeInfo, self id.ID, n NodeInfo, max int, pred bool) bool {
	dist := func(x id.ID) id.ID {
		if pred {
			return x.CWDist(self)
		}
		return self.CWDist(x)
	}
	h := *half
	for _, e := range h {
		if e.ID == n.ID {
			return false
		}
	}
	pos := sort.Search(len(h), func(i int) bool {
		return dist(n.ID).Less(dist(h[i].ID))
	})
	if pos >= max {
		return false
	}
	h = append(h, NodeInfo{})
	copy(h[pos+1:], h[pos:])
	h[pos] = n
	if len(h) > max {
		h = h[:max]
	}
	*half = h
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
	changed := removeLeaf(&s.succs, dead)
	if removeLeaf(&s.preds, dead) {
		changed = true
	}
	return changed
}

func removeLeaf(half *[]NodeInfo, dead id.ID) bool {
	h := *half
	for i, e := range h {
		if e.ID == dead {
			*half = append(h[:i], h[i+1:]...)
			return true
		}
	}
	return false
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

// leafMembers returns the deduplicated leaf set (not including self).
func (s *state) leafMembers() []NodeInfo {
	seen := make(map[id.ID]bool, len(s.succs)+len(s.preds))
	out := make([]NodeInfo, 0, len(s.succs)+len(s.preds))
	for _, halves := range [2][]NodeInfo{s.succs, s.preds} {
		for _, n := range halves {
			if !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// allKnown returns every node in the table and leaf set (not self).
func (s *state) allKnown() []NodeInfo {
	seen := make(map[id.ID]bool)
	var out []NodeInfo
	for _, n := range s.leafMembers() {
		if !seen[n.ID] {
			seen[n.ID] = true
			out = append(out, n)
		}
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
// root can be decided among leaf members. When a half is not full the node
// knows so few peers that the leaf set wraps the whole ring.
func (s *state) leafCovers(key id.ID) bool {
	if len(s.succs) < s.leafSize/2 || len(s.preds) < s.leafSize/2 {
		return true
	}
	lo := s.preds[len(s.preds)-1].ID // farthest counter-clockwise
	hi := s.succs[len(s.succs)-1].ID // farthest clockwise
	return id.Between(key, lo, hi) || key == lo
}

// closestLeaf returns the member of leafset∪self numerically closest to
// key, excluding ids in excl. A node in both halves is considered twice,
// which a minimum does not notice, so the halves are scanned as they are.
func (s *state) closestLeaf(key id.ID, excl map[id.ID]bool) NodeInfo {
	best := s.self
	if excl[s.self.ID] {
		best = NodeInfo{}
	}
	consider := func(n NodeInfo) {
		if excl[n.ID] {
			return
		}
		if best.IsZero() {
			best = n
			return
		}
		dn, db := key.Distance(n.ID), key.Distance(best.ID)
		if dn.Less(db) || (dn == db && n.ID.Less(best.ID)) {
			best = n
		}
	}
	for _, n := range s.succs {
		consider(n)
	}
	for _, n := range s.preds {
		consider(n)
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
// in the node-identifier space" that hold file replicas (Section 4.2). A node
// on both sides of a small ring is taken once; the appended run is searched
// for it, since k is a handful, so nothing is allocated beyond dst's growth.
func (s *state) appendReplicaCandidates(dst []NodeInfo, k int) []NodeInfo {
	base := len(dst)
	taken := func(n NodeInfo) bool {
		if n.ID == s.self.ID {
			return true
		}
		for _, m := range dst[base:] {
			if m.ID == n.ID {
				return true
			}
		}
		return false
	}
	si, pi := 0, 0
	for len(dst)-base < k {
		advanced := false
		if si < len(s.succs) {
			if n := s.succs[si]; !taken(n) {
				dst = append(dst, n)
			}
			si++
			advanced = true
		}
		if len(dst)-base < k && pi < len(s.preds) {
			if n := s.preds[pi]; !taken(n) {
				dst = append(dst, n)
			}
			pi++
			advanced = true
		}
		if !advanced {
			break
		}
	}
	return dst
}
