package pastry

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/id"
	"repro/internal/simnet"
)

// buildOverlay creates n live nodes with seeded random ids, joining each
// through the first, and stabilizes them.
func buildOverlay(t testing.TB, n int, seed uint64, leafSize int) (*simnet.Network, []*Node) {
	t.Helper()
	net := simnet.New(simnet.LAN100)
	state := seed
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		addr := simnet.Addr(fmt.Sprintf("node%d", i))
		nodes[i] = NewNode(id.Rand128(&state), addr, net, leafSize)
		nodes[i].Attach()
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Info().Addr
		}
		if _, err := nodes[i].Bootstrap(boot); err != nil {
			t.Fatalf("bootstrap node %d: %v", i, err)
		}
	}
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			nd.Stabilize()
		}
	}
	return net, nodes
}

// globalRoot computes ground truth: the live node closest to key.
func globalRoot(nodes []*Node, alive map[int]bool, key id.ID) *Node {
	var best *Node
	for i, nd := range nodes {
		if alive != nil && !alive[i] {
			continue
		}
		if best == nil {
			best = nd
			continue
		}
		dn, db := key.Distance(nd.Info().ID), key.Distance(best.Info().ID)
		if dn.Less(db) || (dn == db && nd.Info().ID.Less(best.Info().ID)) {
			best = nd
		}
	}
	return best
}

func TestSingleNodeOverlay(t *testing.T) {
	_, nodes := buildOverlay(t, 1, 1, 0)
	res, err := nodes[0].Route(id.HashKey("anything"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.ID != nodes[0].Info().ID || res.Hops != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestTwoNodeOverlay(t *testing.T) {
	_, nodes := buildOverlay(t, 2, 2, 0)
	for i, nd := range nodes {
		if len(nd.Leaf()) != 1 {
			t.Fatalf("node %d leaf = %v", i, nd.Leaf())
		}
	}
	for trial := 0; trial < 20; trial++ {
		key := id.HashKey(fmt.Sprintf("k%d", trial))
		want := globalRoot(nodes, nil, key).Info().ID
		for _, nd := range nodes {
			res, err := nd.Route(key)
			if err != nil {
				t.Fatal(err)
			}
			if res.Node.ID != want {
				t.Fatalf("route from %s: got %s want %s", nd.Info().ID.Short(), res.Node.ID.Short(), want.Short())
			}
		}
	}
}

func TestRoutingCorrectnessSmallOverlays(t *testing.T) {
	for _, n := range []int{3, 5, 8, 9, 12, 15, 16} {
		_, nodes := buildOverlay(t, n, uint64(n)*7, 0)
		for trial := 0; trial < 30; trial++ {
			key := id.HashKey(fmt.Sprintf("dir-%d-%d", n, trial))
			want := globalRoot(nodes, nil, key).Info().ID
			src := nodes[trial%n]
			res, err := src.Route(key)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if res.Node.ID != want {
				t.Fatalf("n=%d trial=%d: got %s want %s", n, trial, res.Node.ID.Short(), want.Short())
			}
		}
	}
}

func TestRouteHopsSmallOverlay(t *testing.T) {
	// In an overlay of 8 << leafSize nodes "the DHT lookup is always one
	// hop" (Section 6.1.1): self either is the root (0 RPC) or knows it
	// from its full leaf set (1 RPC to confirm).
	_, nodes := buildOverlay(t, 8, 99, 16)
	for trial := 0; trial < 50; trial++ {
		key := id.HashKey(fmt.Sprintf("k%d", trial))
		res, err := nodes[trial%8].Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops > 1 {
			t.Fatalf("trial %d: %d hops in an 8-node overlay", trial, res.Hops)
		}
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	// 64 nodes with a small leaf set: hops bounded by a few prefix steps.
	_, nodes := buildOverlay(t, 64, 1234, 8)
	maxHops := 0
	for trial := 0; trial < 100; trial++ {
		key := id.HashKey(fmt.Sprintf("k%d", trial))
		src := nodes[trial%len(nodes)]
		res, err := src.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		want := globalRoot(nodes, nil, key).Info().ID
		if res.Node.ID != want {
			t.Fatalf("trial %d: wrong root", trial)
		}
		if res.Hops > maxHops {
			maxHops = res.Hops
		}
	}
	// log_16(64) = 1.5; allow slack for sparse tables but reject linear.
	if maxHops > 6 {
		t.Fatalf("max hops = %d, want O(log n)", maxHops)
	}
}

func TestLeafSetSizeBounded(t *testing.T) {
	_, nodes := buildOverlay(t, 40, 5, 8)
	for i, nd := range nodes {
		if got := len(nd.Leaf()); got > 8 {
			t.Fatalf("node %d leaf size = %d > 8", i, got)
		}
	}
}

func TestLeafSetIsNumericallyClosest(t *testing.T) {
	_, nodes := buildOverlay(t, 24, 77, 8)
	// For each node, its leaf set must contain its true 4 successors and 4
	// predecessors on the ring.
	ids := make([]id.ID, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.Info().ID
	}
	ring := NewRing(ids)
	pos := make(map[id.ID]int)
	for i, v := range ring.IDs() {
		pos[v] = i
	}
	for _, nd := range nodes {
		p := pos[nd.Info().ID]
		want := make(map[id.ID]bool)
		n := ring.Len()
		for s := 1; s <= 4; s++ {
			want[ring.IDs()[(p+s)%n]] = true
			want[ring.IDs()[(p-s+n)%n]] = true
		}
		got := make(map[id.ID]bool)
		for _, l := range nd.Leaf() {
			got[l.ID] = true
		}
		for w := range want {
			if !got[w] {
				t.Fatalf("node %s leaf set missing ring neighbor %s", nd.Info().ID.Short(), w.Short())
			}
		}
	}
}

func TestFailureRerouting(t *testing.T) {
	net, nodes := buildOverlay(t, 8, 31, 16)
	key := id.HashKey("victimdir")
	root := globalRoot(nodes, nil, key)

	// Kill the root; routes must now land on the next-closest live node.
	net.SetDown(root.Info().Addr, true)
	alive := make(map[int]bool)
	var src *Node
	for i, nd := range nodes {
		up := nd != root
		alive[i] = up
		if up && src == nil {
			src = nd
		}
	}
	want := globalRoot(nodes, alive, key).Info().ID
	res, err := src.Route(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.ID != want {
		t.Fatalf("after failure got %s want %s", res.Node.ID.Short(), want.Short())
	}
}

func TestStabilizeAfterFailuresFiresCallbacks(t *testing.T) {
	net, nodes := buildOverlay(t, 10, 47, 8)
	var left []NodeInfo
	nodes[0].OnLeafSetChange(func(c LeafSetChange) {
		left = append(left, c.Left...)
	})
	// Kill two of node0's leaf members.
	leafs := nodes[0].Leaf()
	if len(leafs) < 2 {
		t.Fatalf("leaf too small: %d", len(leafs))
	}
	dead := map[id.ID]bool{leafs[0].ID: true, leafs[1].ID: true}
	net.SetDown(leafs[0].Addr, true)
	net.SetDown(leafs[1].Addr, true)

	nodes[0].Stabilize()

	if len(left) < 2 {
		t.Fatalf("expected >=2 departure callbacks, got %v", left)
	}
	for _, l := range nodes[0].Leaf() {
		if dead[l.ID] {
			t.Fatalf("dead node %s still in leaf set", l.ID.Short())
		}
	}
}

func TestJoinFiresCallbacksOnNeighbors(t *testing.T) {
	net, nodes := buildOverlay(t, 6, 21, 8)
	joinedSeen := 0
	for _, nd := range nodes {
		nd.OnLeafSetChange(func(c LeafSetChange) {
			joinedSeen += len(c.Joined)
		})
	}
	state := uint64(5555)
	newNode := NewNode(id.Rand128(&state), "late", net, 8)
	newNode.Attach()
	if _, err := newNode.Bootstrap(nodes[0].Info().Addr); err != nil {
		t.Fatal(err)
	}
	if joinedSeen == 0 {
		t.Fatal("no join callbacks fired on existing nodes")
	}
	// The newcomer must be routable.
	res, err := nodes[3].Route(newNode.Info().ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.ID != newNode.Info().ID {
		t.Fatalf("route to newcomer id landed on %s", res.Node.ID.Short())
	}
}

func TestLeaveAnnounces(t *testing.T) {
	_, nodes := buildOverlay(t, 6, 63, 8)
	victim := nodes[2]
	vid := victim.Info().ID
	victim.Leave()
	for i, nd := range nodes {
		if nd == victim {
			continue
		}
		for _, l := range nd.Leaf() {
			if l.ID == vid {
				t.Fatalf("node %d still lists departed node in leaf set", i)
			}
		}
	}
}

func TestReplicaCandidatesAlternate(t *testing.T) {
	_, nodes := buildOverlay(t, 12, 17, 8)
	ids := make([]id.ID, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.Info().ID
	}
	ring := NewRing(ids)
	for _, nd := range nodes {
		got := nd.ReplicaCandidates(3)
		if len(got) != 3 {
			t.Fatalf("candidates = %d", len(got))
		}
		// Must match the static ring's adjacency.
		pos := -1
		for i, v := range ring.IDs() {
			if v == nd.Info().ID {
				pos = i
			}
		}
		wantIdx := ring.Replicas(pos, 3)
		want := make(map[id.ID]bool)
		for _, wi := range wantIdx {
			want[ring.IDs()[wi]] = true
		}
		for _, g := range got {
			if !want[g.ID] {
				t.Fatalf("node %s replica %s not ring-adjacent", nd.Info().ID.Short(), g.ID.Short())
			}
		}
	}
}

func TestRouteCostPositiveForRemote(t *testing.T) {
	_, nodes := buildOverlay(t, 8, 3, 16)
	for trial := 0; trial < 20; trial++ {
		key := id.HashKey(fmt.Sprintf("c%d", trial))
		res, err := nodes[0].Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops > 0 && res.Cost <= 0 {
			t.Fatalf("remote route with zero cost: %+v", res)
		}
		if res.Hops == 0 && res.Cost != 0 {
			t.Fatalf("self route with nonzero cost: %+v", res)
		}
	}
}

// Property: for random overlay sizes and keys, iterative routing from any
// source agrees with the omniscient ring root.
func TestPropRoutingMatchesRing(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 6; iter++ {
		n := 2 + r.Intn(20)
		_, nodes := buildOverlay(t, n, uint64(iter+1)*101, 8)
		ids := make([]id.ID, n)
		for i, nd := range nodes {
			ids[i] = nd.Info().ID
		}
		ring := NewRing(ids)
		for trial := 0; trial < 15; trial++ {
			var key id.ID
			r.Read(key[:])
			want := ring.IDs()[ring.Root(key)]
			src := nodes[r.Intn(n)]
			res, err := src.Route(key)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if res.Node.ID != want {
				t.Fatalf("n=%d key=%s: got %s want %s",
					n, key.Short(), res.Node.ID.Short(), want.Short())
			}
		}
	}
}

func TestRingRootMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for iter := 0; iter < 50; iter++ {
		n := 1 + r.Intn(30)
		ring := RandomRing(n, uint64(iter))
		var key id.ID
		r.Read(key[:])
		root := ring.Root(key)
		bd := key.Distance(ring.IDs()[root])
		for i, v := range ring.IDs() {
			d := key.Distance(v)
			if d.Less(bd) {
				t.Fatalf("iter %d: node %d closer than root", iter, i)
			}
		}
	}
}

func TestRingReplicas(t *testing.T) {
	ring := RandomRing(10, 42)
	root := 4
	reps := ring.Replicas(root, 4)
	if len(reps) != 4 {
		t.Fatalf("reps = %v", reps)
	}
	want := map[int]bool{5: true, 3: true, 6: true, 2: true}
	for _, r := range reps {
		if !want[r] {
			t.Fatalf("unexpected replica index %d", r)
		}
	}
	// k capped at n-1 and no duplicates.
	reps = ring.Replicas(root, 99)
	if len(reps) != 9 {
		t.Fatalf("capped reps = %d", len(reps))
	}
	seen := map[int]bool{root: true}
	for _, r := range reps {
		if seen[r] {
			t.Fatalf("duplicate replica %d", r)
		}
		seen[r] = true
	}
}

func TestHoldersIncludesRoot(t *testing.T) {
	ring := RandomRing(8, 7)
	key := id.HashKey("h")
	hs := ring.Holders(key, 3)
	if len(hs) != 4 {
		t.Fatalf("holders = %v", hs)
	}
	if hs[0] != ring.Root(key) {
		t.Fatal("first holder must be the root")
	}
}

func TestRingDedupAndEmpty(t *testing.T) {
	a := id.HashKey("x")
	ring := NewRing([]id.ID{a, a, a})
	if ring.Len() != 1 {
		t.Fatalf("len = %d", ring.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Root on empty ring should panic")
		}
	}()
	NewRing(nil).Root(a)
}

func BenchmarkRoute8Nodes(b *testing.B) {
	_, nodes := buildOverlay(b, 8, 1, 16)
	keys := make([]id.ID, 64)
	for i := range keys {
		keys[i] = id.HashKey(fmt.Sprintf("bench%d", i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%8].Route(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingRoot(b *testing.B) {
	ring := RandomRing(10000, 3)
	key := id.HashKey("target")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring.Root(key)
	}
}

// TestChurnStorm subjects a 48-node overlay to a burst of failures and
// verifies that routing from every survivor still reaches the globally
// closest live node after stabilization.
func TestChurnStorm(t *testing.T) {
	net, nodes := buildOverlay(t, 48, 4242, 8)
	r := rand.New(rand.NewSource(777))
	alive := make(map[int]bool, len(nodes))
	for i := range nodes {
		alive[i] = true
	}
	// Kill 12 random nodes.
	killed := 0
	for killed < 12 {
		i := r.Intn(len(nodes))
		if alive[i] {
			alive[i] = false
			net.SetDown(nodes[i].Info().Addr, true)
			killed++
		}
	}
	for round := 0; round < 3; round++ {
		for i, nd := range nodes {
			if alive[i] {
				nd.Stabilize()
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		key := id.HashKey(fmt.Sprintf("storm%d", trial))
		src := -1
		for src == -1 {
			i := r.Intn(len(nodes))
			if alive[i] {
				src = i
			}
		}
		res, err := nodes[src].Route(key)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := globalRoot(nodes, alive, key).Info().ID
		if res.Node.ID != want {
			t.Fatalf("trial %d: routed to %s, want %s", trial, res.Node.ID.Short(), want.Short())
		}
	}
	// Dead nodes are purged from survivors' leaf sets.
	for i, nd := range nodes {
		if !alive[i] {
			continue
		}
		for _, l := range nd.Leaf() {
			for j, other := range nodes {
				if other.Info().ID == l.ID && !alive[j] {
					t.Fatalf("node %d keeps dead node %d in leaf set", i, j)
				}
			}
		}
	}
}

// TestRouteEndsOnRevisit builds the two inconsistent views a join storm can
// leave behind: a's leaf arc stops short of the key, so it forwards by prefix
// to b, whose leaf set — missing the node between them — sends the key back
// to a. The origin sees both hops, so the walk must end there, at the closest
// node it visited, instead of ping-ponging through its hop budget.
func TestRouteEndsOnRevisit(t *testing.T) {
	net := simnet.New(simnet.LAN100)
	at := func(v uint64, addr simnet.Addr) NodeInfo { return NodeInfo{ID: id.FromUint64(v), Addr: addr} }
	key := id.FromUint64(0x8000 << 48)
	a := NewNode(id.FromUint64(0x7f00<<48), "a", net, 2)
	b := NewNode(id.FromUint64(0x8f00<<48), "b", net, 2)
	a.Attach()
	b.Attach()
	for _, p := range []NodeInfo{at(0x6000<<48, "p"), at(0x7ff0<<48, "s"), b.Info()} {
		a.st.add(p) // leaf arc [p, s]; b fits only the routing table
	}
	for _, p := range []NodeInfo{a.Info(), at(0xa000<<48, "y")} {
		b.st.add(p) // leaf arc [a, y] covers the key, and a is closer to it than b
	}
	for _, from := range []*Node{a, b} {
		res, err := from.Route(key)
		if err != nil {
			t.Fatalf("route from %s: %v", from.Info().Addr, err)
		}
		if res.Node != a.Info() || res.Hops > 2 {
			t.Fatalf("route from %s ended at %s after %d hops, want a within 2", from.Info().Addr, res.Node.Addr, res.Hops)
		}
	}
}
