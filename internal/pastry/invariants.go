package pastry

import (
	"fmt"
	"sort"

	"repro/internal/id"
)

// This file is the overlay invariant oracle: Chord-ASM-style checkable
// state-machine invariants over a whole overlay, judged against the live
// membership ground truth that individual nodes never see. The chaos
// harness runs it after every step and after quiesce (chaos.Options.Invariants).
//
// Invariants come in two tiers:
//
//   - InvariantLive (structural, churn-tolerant): holds at every instant,
//     even mid-churn. Routing-table entries sit in the slot their prefix
//     dictates, leaf halves are sorted by ring distance with no duplicates
//     and never contain self, and sampled routes terminate within the
//     protocol's hop budget when dead hops are excluded and a next hop
//     already visited ends the walk, as iterative routing ends it.
//
//   - InvariantConverged (exact, post-stabilization): additionally requires
//     every node's view to agree with the ground truth. Leaf halves equal
//     the true l/2 nearest live nodes in each ring direction (completeness),
//     which makes membership pairwise symmetric; no routing-table entry
//     names a dead node; replica candidates are exactly the K ring-nearest
//     live nodes (replica placement = leaf-set prefix); and sampled routes
//     reach the true numerically-closest live node in at most
//     ceil(log_16 N) + slack hops.

// InvariantLevel selects which invariant tier to check.
type InvariantLevel int

const (
	// InvariantLive checks only the structural invariants that hold under
	// churn, between stabilization rounds.
	InvariantLive InvariantLevel = iota
	// InvariantConverged checks exact agreement with the live membership
	// ground truth; call it only on a stabilized overlay.
	InvariantConverged
)

// InvariantOptions parameterizes a check.
type InvariantOptions struct {
	Level InvariantLevel
	// SampleRoutes is how many (source, key) route walks to verify
	// (default 32; 0 keeps the default, negative disables route checks).
	SampleRoutes int
	// Seed drives the deterministic sampling of sources and keys.
	Seed uint64
	// HopSlack is the allowance over ceil(log_16 N) for the converged-tier
	// hop bound (default 4): joins route via their own announcements before
	// tables fully populate, so a small constant rides on the asymptote.
	HopSlack int
	// ReplicaK, when positive, checks that each node's replica candidates
	// are exactly the K ring-nearest live nodes.
	ReplicaK int
}

// InvariantReport summarizes a passing check; the route-walk statistics
// double as the scale experiment's hop metrics.
type InvariantReport struct {
	Nodes    int // live nodes checked
	Routes   int // route walks performed
	MeanHops float64
	MaxHops  int
}

// CheckInvariants verifies the selected invariant tier over the live nodes,
// using the set itself as the membership ground truth. The first violation
// is returned as an error naming the node and the invariant; nil means the
// tier holds everywhere.
func CheckInvariants(live []*Node, opts InvariantOptions) (*InvariantReport, error) {
	if opts.SampleRoutes == 0 {
		opts.SampleRoutes = 32
	}
	if opts.HopSlack == 0 {
		opts.HopSlack = 4
	}
	rep := &InvariantReport{Nodes: len(live)}
	if len(live) == 0 {
		return rep, nil
	}

	// Ground truth: the live membership sorted by identifier (the ring).
	ring := make([]NodeInfo, len(live))
	byID := make(map[id.ID]*Node, len(live))
	byAddr := make(map[string]*Node, len(live))
	for i, n := range live {
		info := n.Info()
		ring[i] = info
		if _, dup := byID[info.ID]; dup {
			return rep, fmt.Errorf("invariant: duplicate node id %s", info.ID.Short())
		}
		byID[info.ID] = n
		byAddr[string(info.Addr)] = n
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].ID.Less(ring[j].ID) })

	for _, n := range live {
		if err := checkStructural(n); err != nil {
			return rep, err
		}
		if opts.Level == InvariantConverged {
			if err := checkConverged(n, ring, byID, opts); err != nil {
				return rep, err
			}
		}
	}

	if opts.SampleRoutes > 0 {
		if err := checkRoutes(live, ring, byAddr, opts, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// checkStructural verifies the churn-tolerant invariants of one node's
// state: table entries in prefix-correct slots, leaf halves sorted by ring
// distance, duplicate- and self-free.
func checkStructural(n *Node) error {
	self := n.Info()
	for _, te := range n.TableEntries() {
		e := te.Node
		if e.ID == self.ID {
			return fmt.Errorf("invariant: %s table[%d][%d] names self", self.Addr, te.Row, te.Col)
		}
		if got := id.SharedPrefixLen(self.ID, e.ID); got != te.Row {
			return fmt.Errorf("invariant: %s table[%d][%d] entry %s shares %d prefix digits, want %d",
				self.Addr, te.Row, te.Col, e.ID.Short(), got, te.Row)
		}
		if got := e.ID.Digit(te.Row); got != te.Col {
			return fmt.Errorf("invariant: %s table[%d][%d] entry %s has digit %x at row, want %x",
				self.Addr, te.Row, te.Col, e.ID.Short(), got, te.Col)
		}
	}
	succs, preds := n.LeafHalves()
	for hi, half := range [2][]NodeInfo{succs, preds} {
		name := "succs"
		dist := func(x id.ID) id.ID { return self.ID.CWDist(x) }
		if hi == 1 {
			name = "preds"
			dist = func(x id.ID) id.ID { return x.CWDist(self.ID) }
		}
		seen := map[id.ID]bool{}
		for i, e := range half {
			if e.ID == self.ID {
				return fmt.Errorf("invariant: %s %s[%d] names self", self.Addr, name, i)
			}
			if seen[e.ID] {
				return fmt.Errorf("invariant: %s %s holds %s twice", self.Addr, name, e.ID.Short())
			}
			seen[e.ID] = true
			if i > 0 && !dist(half[i-1].ID).Less(dist(e.ID)) {
				return fmt.Errorf("invariant: %s %s out of ring-distance order at %d", self.Addr, name, i)
			}
		}
	}
	return nil
}

// trueLeafHalves computes, from the sorted ground-truth ring, the l/2
// clockwise-nearest and l/2 counter-clockwise-nearest live nodes of self —
// what a converged node's leaf halves must contain exactly.
func trueLeafHalves(self NodeInfo, ring []NodeInfo, halfSize int) (succs, preds []NodeInfo) {
	// Position of self in the sorted ring.
	pos := sort.Search(len(ring), func(i int) bool { return !ring[i].ID.Less(self.ID) })
	n := len(ring)
	want := halfSize
	if want > n-1 {
		want = n - 1
	}
	for k := 1; k <= want; k++ {
		succs = append(succs, ring[(pos+k)%n])
		preds = append(preds, ring[((pos-k)%n+n)%n])
	}
	return succs, preds
}

// checkConverged verifies one node's exact agreement with the ground truth:
// leaf completeness (and with it symmetry), liveness of every table entry,
// and replica placement.
func checkConverged(n *Node, ring []NodeInfo, byID map[id.ID]*Node, opts InvariantOptions) error {
	self := n.Info()
	wantSuccs, wantPreds := trueLeafHalves(self, ring, n.LeafSize()/2)
	succs, preds := n.LeafHalves()
	for _, cmp := range []struct {
		name      string
		got, want []NodeInfo
	}{{"succs", succs, wantSuccs}, {"preds", preds, wantPreds}} {
		if len(cmp.got) != len(cmp.want) {
			return fmt.Errorf("invariant: %s %s holds %d nodes, ground truth has %d",
				self.Addr, cmp.name, len(cmp.got), len(cmp.want))
		}
		for i := range cmp.got {
			if cmp.got[i].ID != cmp.want[i].ID {
				return fmt.Errorf("invariant: %s %s[%d] = %s (%s), ground truth %s (%s)",
					self.Addr, cmp.name, i, cmp.got[i].ID.Short(), cmp.got[i].Addr,
					cmp.want[i].ID.Short(), cmp.want[i].Addr)
			}
		}
	}
	// Completeness against the ground truth implies pairwise symmetry (b's
	// rank among a's successors equals a's rank among b's predecessors), but
	// assert it directly too — it is cheap and catches oracle bugs.
	for _, m := range n.Leaf() {
		peer := byID[m.ID]
		if peer == nil {
			return fmt.Errorf("invariant: %s leaf set names dead node %s (%s)", self.Addr, m.ID.Short(), m.Addr)
		}
		found := false
		for _, back := range peer.Leaf() {
			if back.ID == self.ID {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("invariant: leaf asymmetry: %s holds %s but not vice versa", self.Addr, m.Addr)
		}
	}
	for _, te := range n.TableEntries() {
		if byID[te.Node.ID] == nil {
			return fmt.Errorf("invariant: %s table[%d][%d] names dead node %s (%s)",
				self.Addr, te.Row, te.Col, te.Node.ID.Short(), te.Node.Addr)
		}
	}
	if k := opts.ReplicaK; k > 0 {
		want := alternate(wantSuccs, wantPreds, k)
		got := n.ReplicaCandidates(k)
		if len(got) != len(want) {
			return fmt.Errorf("invariant: %s has %d replica candidates, ground truth %d",
				self.Addr, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				return fmt.Errorf("invariant: %s replica candidate %d = %s, ground truth %s",
					self.Addr, i, got[i].Addr, want[i].Addr)
			}
		}
	}
	return nil
}

// alternate mirrors replicaCandidates' successor/predecessor alternation
// over the ground-truth ring neighborhoods.
func alternate(succs, preds []NodeInfo, k int) []NodeInfo {
	out := make([]NodeInfo, 0, k)
	seen := map[id.ID]bool{}
	si, pi := 0, 0
	for len(out) < k {
		advanced := false
		if si < len(succs) {
			if n := succs[si]; !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
			si++
			advanced = true
		}
		if len(out) < k && pi < len(preds) {
			if n := preds[pi]; !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
			pi++
			advanced = true
		}
		if !advanced {
			break
		}
	}
	return out
}

// log16Ceil returns ceil(log_16 n), the expected Pastry route length.
func log16Ceil(n int) int {
	h := 0
	for v := 1; v < n; v *= 16 {
		h++
	}
	return h
}

// checkRoutes walks sampled routes hop by hop using each node's local
// routing decision, proving the hop bound and — at the converged tier — loop
// freedom and that every route terminates at the true numerically closest
// live node.
func checkRoutes(live []*Node, ring []NodeInfo, byAddr map[string]*Node, opts InvariantOptions, rep *InvariantReport) error {
	state := opts.Seed ^ id.SplitMixGamma
	maxHops := 64 // the protocol's own routing budget, for the live tier
	if opts.Level == InvariantConverged {
		maxHops = log16Ceil(len(live)) + opts.HopSlack
	}
	ids := make([]id.ID, len(ring))
	for i, m := range ring {
		ids[i] = m.ID
	}
	var totalHops int
	for s := 0; s < opts.SampleRoutes; s++ {
		src := live[int(id.SplitMix64(&state)%uint64(len(live)))]
		key := id.Rand128(&state)
		cur := src
		visited := map[id.ID]bool{cur.Info().ID: true}
		var excluded []id.ID
		hops := 0
		for {
			next, isRoot := cur.NextHopLocal(key, excluded)
			if isRoot {
				break
			}
			nn := byAddr[string(next.Addr)]
			if nn == nil || !nn.Alive() {
				if opts.Level == InvariantConverged {
					return fmt.Errorf("invariant: route for key %s hops from %s to dead node %s",
						key.Short(), cur.Info().Addr, next.Addr)
				}
				// Live tier mid-churn: a dead hop is what iterative routing
				// excludes and retries; mirror that without counting a hop.
				excluded = append(excluded, next.ID)
				continue
			}
			if visited[next.ID] {
				if opts.Level == InvariantConverged {
					return fmt.Errorf("invariant: routing loop for key %s: revisited %s after %d hops",
						key.Short(), next.Addr, hops)
				}
				// Live tier right after concurrent joins: two views can each
				// send the key to the other, and routeCollect ends the walk here.
				break
			}
			visited[next.ID] = true
			hops++
			if hops > maxHops {
				return fmt.Errorf("invariant: route for key %s from %s exceeded %d hops (n=%d)",
					key.Short(), src.Info().Addr, maxHops, len(live))
			}
			cur = nn
		}
		if opts.Level == InvariantConverged {
			want, _ := id.Closest(key, ids)
			got := cur.Info().ID
			if got != want {
				return fmt.Errorf("invariant: route for key %s ended at %s (%s), true root is %s",
					key.Short(), cur.Info().Addr, got.Short(), want.Short())
			}
		}
		rep.Routes++
		totalHops += hops
		if hops > rep.MaxHops {
			rep.MaxHops = hops
		}
	}
	if rep.Routes > 0 {
		rep.MeanHops = float64(totalHops) / float64(rep.Routes)
	}
	return nil
}
