package pastry

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/id"
	"repro/internal/racetest"
	"repro/internal/simnet"
)

func info(v uint64) NodeInfo {
	return NodeInfo{ID: id.FromUint64(v), Addr: "n"}
}

func newTestState(self uint64, leaf int) *state {
	return newState(info(self), leaf)
}

func TestLeafHalvesSortedAndBounded(t *testing.T) {
	s := newTestState(1000, 4) // 2 per side
	for _, v := range []uint64{1010, 1001, 1020, 1005, 990, 999, 800} {
		s.add(info(v))
	}
	succs, preds := s.halves()
	// Successors: two closest clockwise = 1001, 1005.
	if len(succs) != 2 || succs[0].ID != id.FromUint64(1001) || succs[1].ID != id.FromUint64(1005) {
		t.Fatalf("succs = %v", succs)
	}
	// Predecessors: two closest counter-clockwise = 999, 990.
	if len(preds) != 2 || preds[0].ID != id.FromUint64(999) || preds[1].ID != id.FromUint64(990) {
		t.Fatalf("preds = %v", preds)
	}
	if len(s.leaf) != 4 {
		t.Fatalf("leaf = %v, want the two halves only", s.leaf)
	}
}

func TestAddSelfAndZeroIgnored(t *testing.T) {
	s := newTestState(7, 8)
	if s.add(info(7)) {
		t.Fatal("adding self should not change the leaf set")
	}
	if s.add(NodeInfo{}) {
		t.Fatal("adding the zero value should not change the leaf set")
	}
	if len(s.leafMembers()) != 0 {
		t.Fatal("leaf set should be empty")
	}
}

func TestAddDuplicateNoChange(t *testing.T) {
	s := newTestState(1, 8)
	if !s.add(info(5)) {
		t.Fatal("first add should change the leaf set")
	}
	if s.add(info(5)) {
		t.Fatal("duplicate add should not change the leaf set")
	}
}

func TestRemoveClearsBothStructures(t *testing.T) {
	s := newTestState(1, 8)
	s.add(info(5))
	if !s.remove(id.FromUint64(5)) {
		t.Fatal("remove should report a leaf change")
	}
	if len(s.leafMembers()) != 0 {
		t.Fatal("leaf member left behind")
	}
	if len(s.allKnown()) != 0 {
		t.Fatal("routing table entry left behind")
	}
	if s.remove(id.FromUint64(5)) {
		t.Fatal("second remove should be a no-op")
	}
}

func TestRoutingTableSlot(t *testing.T) {
	self := id.MustHex("a0000000000000000000000000000000")
	s := newState(NodeInfo{ID: self, Addr: "self"}, 8)
	// Shares 1 digit ("a"), next digit "b": row 1, col 0xb.
	peer := NodeInfo{ID: id.MustHex("ab000000000000000000000000000000"), Addr: "p"}
	s.add(peer)
	if got := s.slot(1, 0xb); got.ID != peer.ID {
		t.Fatalf("table[1][b] = %v", got)
	}
	// First-writer-wins: another node for the same slot doesn't evict.
	peer2 := NodeInfo{ID: id.MustHex("ab100000000000000000000000000000"), Addr: "p2"}
	s.add(peer2)
	if got := s.slot(1, 0xb); got.ID != peer.ID {
		t.Fatalf("slot evicted: %v", got)
	}
}

func TestLeafCoversSmallOverlay(t *testing.T) {
	s := newTestState(100, 8)
	s.add(info(200))
	s.add(info(300))
	// Halves not full: the leaf set wraps the whole ring.
	if !s.leafCovers(id.FromUint64(999999)) {
		t.Fatal("small overlay must cover every key")
	}
}

func TestNextHopSelfWhenAlone(t *testing.T) {
	s := newTestState(42, 8)
	next, isRoot := s.nextHop(id.HashKey("k"), nil)
	if !isRoot || !next.IsZero() {
		t.Fatalf("lone node not root: %v %v", next, isRoot)
	}
}

func TestNextHopExcludesDead(t *testing.T) {
	s := newTestState(100, 8)
	s.add(info(110)) // would be the root for key 111
	s.add(info(90))
	key := id.FromUint64(111)
	next, isRoot := s.nextHop(key, nil)
	if isRoot || next.ID != id.FromUint64(110) {
		t.Fatalf("expected 110, got %v isRoot=%v", next, isRoot)
	}
	// With 110 excluded, self (100) is closer to 111 than 90.
	next, isRoot = s.nextHop(key, []id.ID{id.FromUint64(110)})
	if !isRoot {
		t.Fatalf("expected self root after exclusion, got %v", next)
	}
}

func TestReplicaCandidatesOrderingAndDedup(t *testing.T) {
	s := newTestState(1000, 8)
	for _, v := range []uint64{1001, 1002, 998, 997} {
		s.add(info(v))
	}
	got := s.appendReplicaCandidates(nil, 3)
	if len(got) != 3 {
		t.Fatalf("candidates = %v", got)
	}
	// Alternation: succ1 (1001), pred1 (999? -> 998), succ2 (1002).
	want := []uint64{1001, 998, 1002}
	for i, w := range want {
		if got[i].ID != id.FromUint64(w) {
			t.Fatalf("candidate %d = %v, want %d", i, got[i].ID, w)
		}
	}
	// Asking for more than available returns all without duplicates.
	got = s.appendReplicaCandidates(nil, 10)
	seen := map[id.ID]bool{}
	for _, g := range got {
		if seen[g.ID] {
			t.Fatalf("duplicate candidate %v", g.ID)
		}
		seen[g.ID] = true
	}
	if len(got) != 4 {
		t.Fatalf("got %d candidates, want all 4", len(got))
	}
}

func TestLeafMembersDeduplicated(t *testing.T) {
	// In a tiny overlay every node is both a successor and a predecessor;
	// leafMembers must not double-report them.
	s := newTestState(100, 16)
	s.add(info(200))
	s.add(info(300))
	members := s.leafMembers()
	if len(members) != 2 {
		t.Fatalf("members = %v", members)
	}
}

// Property: the leaf set of every node always holds exactly the true nearest
// neighbors on each side, nearest first, after any insertion order.
func TestPropLeafSetNearest(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 50; iter++ {
		self := id.FromUint64(r.Uint64())
		s := newState(NodeInfo{ID: self, Addr: "s"}, 8)
		var others []id.ID
		for i := 0; i < 30; i++ {
			v := id.FromUint64(r.Uint64())
			if v == self {
				continue
			}
			others = append(others, v)
			s.add(NodeInfo{ID: v, Addr: "x"})
		}
		// True 4 clockwise-closest, and 4 counter-clockwise-closest.
		sort.Slice(others, func(i, j int) bool { return self.CWDist(others[i]).Less(self.CWDist(others[j])) })
		succs, preds := s.halves()
		if len(succs) != 4 || len(preds) != 4 {
			t.Fatalf("iter %d: halves hold %d and %d nodes, want 4 each", iter, len(succs), len(preds))
		}
		for i := 0; i < 4; i++ {
			if succs[i].ID != others[i] {
				t.Fatalf("iter %d: succ %d = %v, want %v", iter, i, succs[i].ID, others[i])
			}
			if want := others[len(others)-1-i]; preds[i].ID != want {
				t.Fatalf("iter %d: pred %d = %v, want %v", iter, i, preds[i].ID, want)
			}
		}
	}
}

// TestOverlappingHalvesWrapTheRing: with more than l/2 but fewer than l
// other nodes the successor and predecessor runs share nodes. The leaf set
// still names each node once, covers every key and decides every key's
// root among all nodes. Taking the leaf arc from the two overlapping halves
// once routed keys in 9–15-node rings (at l = 16) away from their root.
func TestOverlappingHalvesWrapTheRing(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for others := 1; others < 16; others++ {
		selfID := id.FromUint64(r.Uint64())
		s := newState(NodeInfo{ID: selfID, Addr: "s"}, 16)
		all := []id.ID{selfID}
		for len(all) <= others {
			v := id.FromUint64(r.Uint64())
			if s.add(NodeInfo{ID: v, Addr: "x"}) {
				all = append(all, v)
			}
		}
		if got := len(s.leafMembers()); got != others {
			t.Fatalf("%d others: %d leaf members", others, got)
		}
		succs, preds := s.halves()
		if want := min(others, 8); len(succs) != want || len(preds) != want {
			t.Fatalf("%d others: halves hold %d and %d nodes, want %d each", others, len(succs), len(preds), want)
		}
		for k := 0; k < 200; k++ {
			key := id.FromUint64(r.Uint64())
			root := all[0]
			for _, v := range all[1:] {
				if dv, dr := key.Distance(v), key.Distance(root); dv.Less(dr) || (dv == dr && v.Less(root)) {
					root = v
				}
			}
			if !s.leafCovers(key) {
				t.Fatalf("%d others: key %v outside the leaf arc", others, key)
			}
			next, isRoot := s.nextHop(key, nil)
			if isRoot && root != selfID || !isRoot && next.ID != root {
				t.Fatalf("%d others: key %v routed to %v (self root %v), true root %v", others, key, next.ID, isRoot, root)
			}
		}
	}
}

// Property: nextHop never returns an excluded node and, when not root, the
// returned hop is strictly closer to the key than self.
func TestPropNextHopProgress(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 100; iter++ {
		selfID := id.FromUint64(r.Uint64())
		s := newState(NodeInfo{ID: selfID, Addr: "s"}, 8)
		var members []id.ID
		for i := 0; i < 20; i++ {
			v := id.FromUint64(r.Uint64())
			members = append(members, v)
			s.add(NodeInfo{ID: v, Addr: simnet.Addr(fmt.Sprintf("m%d", i))})
		}
		var key id.ID
		r.Read(key[:])
		var excl []id.ID
		for _, m := range members[:5] {
			excl = append(excl, m)
		}
		next, isRoot := s.nextHop(key, excl)
		if isRoot {
			continue
		}
		for _, x := range excl {
			if next.ID == x {
				t.Fatalf("iter %d: excluded node returned", iter)
			}
		}
		if !key.Distance(next.ID).Less(key.Distance(selfID)) {
			// Leaf-covered decisions may return a node at equal distance
			// only if it IS closer; require strict progress.
			t.Fatalf("iter %d: hop not closer to key", iter)
		}
	}
}

// TestLeafArcNextHopAllocs pins the leaf-set routing decision, made on every
// hop of every route: a key inside the leaf arc is decided over the leaf set
// as it is, with no deduplicated copy of it (which cost two objects).
func TestLeafArcNextHopAllocs(t *testing.T) {
	s := newTestState(1000, 8)
	for _, v := range []uint64{990, 995, 999, 1001, 1005, 1010, 1020, 980} {
		s.add(info(v))
	}
	key := id.FromUint64(1004)
	if !s.leafCovers(key) {
		t.Fatal("key outside the leaf arc")
	}
	if next, _ := s.nextHop(key, nil); next.ID != id.FromUint64(1005) {
		t.Errorf("next hop %v, want 1005", next.ID)
	}
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(1000, func() { s.nextHop(key, nil) }); n != 0 {
		t.Errorf("a leaf-arc nextHop allocates %.1f times, want 0", n)
	}
}

// TestAppendReplicaCandidatesAllocs: the primary asks for its replica set on
// every apply, into a buffer of its own. One that holds k is filled without
// an allocation (it was a fresh slice on every apply before), a node on
// both sides of a small ring is taken once, and what dst held before the
// call is kept and not counted against k.
func TestAppendReplicaCandidatesAllocs(t *testing.T) {
	s := newTestState(1000, 8)
	for _, v := range []uint64{990, 995, 999, 1001, 1005, 1010, 1020, 980} {
		s.add(info(v))
	}
	var buf [4]NodeInfo
	got := s.appendReplicaCandidates(buf[:0], 3)
	want := []uint64{1001, 999, 1005}
	for i, w := range want {
		if got[i].ID != id.FromUint64(w) {
			t.Fatalf("candidate %d = %v, want %d", i, got[i].ID, w)
		}
	}

	small := newTestState(1000, 8)
	for _, v := range []uint64{1001, 2000} {
		small.add(info(v))
	}
	prefix := []NodeInfo{info(1001)}
	got = small.appendReplicaCandidates(prefix, 3)
	if len(got) != 3 || got[0].ID != id.FromUint64(1001) || got[1].ID != id.FromUint64(1001) || got[2].ID != id.FromUint64(2000) {
		t.Fatalf("appended to %v: %v, want the prefix, then 1001 and 2000 once each", prefix, got)
	}

	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(1000, func() { s.appendReplicaCandidates(buf[:0], 3) }); n != 0 {
		t.Errorf("appending 3 candidates to a 4-slot buffer allocates %.1f times, want 0", n)
	}
}

// A decoded node list takes an address string from the state only when the
// state holds that id under those very bytes: self, a table slot or a leaf
// member. A changed address or a stranger's is its own string.
func TestKnownAddrReusesOnlyEqualAddresses(t *testing.T) {
	self := NodeInfo{ID: id.MustHex("a0000000000000000000000000000000"), Addr: "self:1"}
	s := newState(self, 8)
	table := NodeInfo{ID: id.MustHex("b0000000000000000000000000000000"), Addr: "table:1"}
	leaf := NodeInfo{ID: id.MustHex("a0000000000000000000000000000001"), Addr: "leaf:1"}
	s.add(table)
	s.add(leaf)
	same := func(a, b simnet.Addr) bool { return unsafe.StringData(string(a)) == unsafe.StringData(string(b)) }
	for _, n := range []NodeInfo{self, table, leaf} {
		if got := s.knownAddr(n.ID, []byte(n.Addr)); got != n.Addr || !same(got, n.Addr) {
			t.Errorf("knownAddr(%s, %q) = %q, not the held string", n.ID.Short(), n.Addr, got)
		}
		if got := s.knownAddr(n.ID, []byte("moved:2")); got != "moved:2" {
			t.Errorf("knownAddr(%s, moved:2) = %q", n.ID.Short(), got)
		}
	}
	if got := s.knownAddr(id.MustHex("c0"), []byte("table:1")); got != "table:1" || same(got, table.Addr) {
		t.Errorf("a stranger's address %q shares a held string", got)
	}
}
