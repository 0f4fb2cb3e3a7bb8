package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/id"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

// closestTo returns the k nodes closest to key, nearest first.
func closestTo(nodes []*Node, key id.ID, k int) []*Node {
	out := append([]*Node(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID().Distance(key).Less(out[j].ID().Distance(key)) })
	return out[:k]
}

// rootView is what a fresh mount on nd sees of the level-1 names: which are
// listed under "/" and which resolve.
func rootView(t *testing.T, nd *Node, names ...string) (listed, resolves map[string]bool) {
	t.Helper()
	m := nd.NewMount()
	ents, _, err := m.Readdir(m.Root())
	if err != nil {
		t.Fatalf("root listing: %v", err)
	}
	listed, resolves = map[string]bool{}, map[string]bool{}
	for _, e := range ents {
		listed[e.Name] = true
	}
	for _, name := range names {
		_, _, _, err := m.LookupPath("/" + name)
		if err != nil && !nfs.IsStatus(err, nfs.ErrNoEnt) {
			t.Fatalf("resolve /%s: %v", name, err)
		}
		resolves[name] = err == nil
	}
	return listed, resolves
}

// TestRootIndexOrderingUnderFaults is DESIGN.md §4's ordering rule as a test.
// A level-1 mkdir, rmdir and rename each touch two owners — the root index's
// and the home's — and a link fault takes one of them away from the client
// between the two steps. At every observation point a name that resolves is
// listed; once the fault lifts and the operation is retried to its final
// answer, the listing and resolution agree exactly.
func TestRootIndexOrderingUnderFaults(t *testing.T) {
	type view struct{ listed, resolves bool }
	var (
		gone    = view{false, false}
		there   = view{true, true}
		phantom = view{true, false} // listed by a half-done operation, no home
	)
	mkdir := func(m *Mount) error { _, _, err := m.MkdirAll("/a"); return err }
	rmdir := func(m *Mount) error { _, err := m.Rmdir(m.Root(), "a"); return err }
	removeAll := func(m *Mount) error { _, err := m.RemoveAllPath("/a"); return err }
	rename := func(m *Mount) error { _, err := m.Rename(m.Root(), "a", m.Root(), "b"); return err }
	cases := []struct {
		name string
		// have is created fault-free before the case starts ("" for none);
		// salted first fills /a's hash target, so /a lives behind a link.
		have   string
		salted bool
		// op is the faulted operation and, run again, its retry.
		op func(m *Mount) error
		// The client loses the index owner, or else the node holding /a.
		loseIndex bool
		// pass is how many of the client's kosha calls to the lost owner get
		// through before the link drops the rest.
		pass int
		// retryNoEnt: the retry's final answer is NOENT — the first attempt
		// had done everything but drop the old name — not success.
		retryNoEnt bool
		// What an observer sees of /a and /b after the failed attempt and
		// after the retry.
		midA, midB, endA, endB view
	}{
		{name: "mkdir/index", op: mkdir, loseIndex: true, midA: gone, endA: there},
		// The resolve's promote gets through, the create of the home does not.
		{name: "mkdir/home", op: mkdir, pass: 1, midA: phantom, endA: there},
		{name: "rmdir/home", have: "/a", op: rmdir, midA: there, endA: gone},
		{name: "rmdir/index", have: "/a", op: rmdir, loseIndex: true, retryNoEnt: true, midA: phantom, endA: gone},
		{name: "removeall/index", have: "/a/sub", op: removeAll, loseIndex: true, midA: phantom, endA: gone},
		// An unredirected home renames by copy and delete, the mkdir and
		// rmdir orderings composed: /b is added and copied, /a's home goes,
		// and only the drop of its name is lost.
		{name: "rename-copy/index-last", have: "/a", op: rename, loseIndex: true, pass: 1, retryNoEnt: true,
			midA: phantom, midB: there, endA: gone, endB: there},
		// A redirected home renames by moving its link, bracketed by the
		// index: add /b, relocate the storage, link /b, unlink /a, drop /a.
		{name: "rename-link/index-first", have: "/a", salted: true, op: rename, loseIndex: true,
			midA: there, midB: gone, endA: gone, endB: there},
		{name: "rename-link/index-last", have: "/a", salted: true, op: rename, loseIndex: true, pass: 1, retryNoEnt: true,
			midA: phantom, midB: there, endA: gone, endB: there},
		{name: "rename-link/home", have: "/a", salted: true, op: rename,
			midA: there, midB: phantom, endA: gone, endB: there},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, nodes := testCluster(t, 12, 11, Config{
				NoMetadataCache: true, Capacity: 1 << 20, UtilizationLimit: 0.5, RedirectAttempts: 16})
			idx := closestTo(nodes, Key(RootPN), 1)[0]
			home := closestTo(nodes, Key("a"), 1)[0]
			keys := []id.ID{Key(RootPN), Key("a"), Key("b")}
			if tc.salted {
				home.Store().WriteFile(RepPath("/filler"), make([]byte, 600<<10))
			}
			if tc.have != "" {
				mustMkdirAll(t, idx.NewMount(), tc.have)
				pl, _, err := idx.ResolvePath("/a")
				if err != nil || IsSalted(pl.PN()) != tc.salted {
					t.Fatalf("/a placed as %q (err %v), want salted=%v", pl.PN(), err, tc.salted)
				}
				home = closestTo(nodes, Key(pl.PN()), 1)[0]
				keys = append(keys, Key(pl.PN()))
			}
			lost := home
			if tc.loseIndex {
				lost = idx
			}
			// A link fault makes the client purge the owner from its own
			// routing state, so it must not be next in line for any key here.
			var client *Node
		pick:
			for _, nd := range nodes {
				for _, k := range keys {
					for _, near := range closestTo(nodes, k, 2) {
						if near == nd {
							continue pick
						}
					}
				}
				client = nd
				break
			}
			if client == nil || home == idx {
				t.Fatalf("seed leaves no usable client (%v) or puts /a on the index owner", client)
			}
			m := client.NewMount()

			var sent atomic.Int64
			net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
				if from != client.Addr() || to != lost.Addr() || service != KoshaService {
					return simnet.LinkFault{}
				}
				return simnet.LinkFault{Drop: sent.Add(1) > int64(tc.pass)}
			})
			check := func(when string, a, b view) {
				t.Helper()
				listed, resolves := rootView(t, idx, "a", "b")
				for name, want := range map[string]view{"a": a, "b": b} {
					if resolves[name] && !listed[name] {
						t.Errorf("%s: /%s resolves but is not listed", when, name)
					}
					if got := (view{listed[name], resolves[name]}); got != want {
						t.Errorf("%s: /%s is %+v, want %+v", when, name, got, want)
					}
				}
			}
			if err := tc.op(m); err == nil {
				t.Fatal("the faulted attempt was acknowledged")
			}
			check("after the failed attempt", tc.midA, tc.midB)

			net.SetFaults(nil)
			stabilizeAll(nodes)
			err := tc.op(m)
			if tc.retryNoEnt && !nfs.IsStatus(err, nfs.ErrNoEnt) {
				t.Fatalf("retry: %v, want NOENT", err)
			}
			if !tc.retryNoEnt && err != nil {
				t.Fatalf("retry: %v", err)
			}
			if tc.endA == phantom || tc.endB == phantom {
				t.Fatal("table error: after the retry listing and resolution must agree")
			}
			check("after the retry", tc.endA, tc.endB)
		})
	}
}

func mustMkdirAll(t *testing.T, m *Mount, p string) {
	t.Helper()
	if _, _, err := m.MkdirAll(p); err != nil {
		t.Fatalf("mkdir -p %s: %v", p, err)
	}
}

// TestRootListingCostIndependentOfN replaces the "top-level directories
// vanish beyond ~40 nodes" regression with the stronger pin: whatever the
// ring size, listing "/" returns exactly the level-1 names, salted homes
// under their plain names, and costs the same few messages.
func TestRootListingCostIndependentOfN(t *testing.T) {
	var costs []uint64
	for _, n := range []int{8, 64, 200} {
		net, nodes := testCluster(t, n, 9, Config{Capacity: 1 << 20, UtilizationLimit: 0.5, RedirectAttempts: 16})
		m := nodes[0].NewMount()
		var want []string
		for u := 0; u < 12; u++ {
			want = append(want, fmt.Sprintf("u%03d", u))
		}
		// Two names find their hash target full and go elsewhere, salted.
		for _, name := range want[:2] {
			closestTo(nodes, Key(name), 1)[0].Store().WriteFile(RepPath("/filler"), make([]byte, 600<<10))
		}
		salted := 0
		for _, name := range want {
			mustMkdirAll(t, m, "/"+name)
			pl, _, err := nodes[0].ResolvePath("/" + name)
			if err != nil {
				t.Fatal(err)
			}
			if IsSalted(pl.PN()) {
				salted++
			}
		}
		if salted < 2 {
			t.Fatalf("n=%d: %d salted homes, want at least 2", n, salted)
		}
		before := net.Stats().Messages
		ents, _, err := m.Readdir(m.Root())
		msgs := net.Stats().Messages - before
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, e.Name)
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: root lists %v, want %v", n, got, want)
		}
		if msgs > 3 {
			t.Errorf("n=%d: root listing cost %d messages, want at most 3", n, msgs)
		}
		costs = append(costs, msgs)
		// A mount that has never touched the root binds first — one route
		// and one walk — and lists the same names.
		ents2, _, err := nodes[n-1].NewMount().Readdir(RootVH)
		if err != nil || len(ents2) != len(want) {
			t.Fatalf("n=%d: fresh mount lists %d names, err=%v", n, len(ents2), err)
		}
	}
	if costs[0] != costs[1] || costs[1] != costs[2] {
		t.Errorf("root listing messages vary with N: %v", costs)
	}
}

// TestBoundRootFollowsOwnership: a mount's permanent root row must not
// outlive its holder's place in the index's replica set. More than K nodes
// join on either side of Key(RootPN), so the node the mount bound to is
// neither the owner nor a replica any more and stops receiving mirrors; a
// mount that only ever reads must still see a later mkdir done elsewhere.
func TestBoundRootFollowsOwnership(t *testing.T) {
	cfg := Config{Replicas: 1}
	net, nodes := testCluster(t, 8, 21, cfg)
	m := nodes[7].NewMount()
	mustMkdirAll(t, nodes[1].NewMount(), "/a")
	if ents, _, err := m.Readdir(m.Root()); err != nil || len(ents) != 1 {
		t.Fatalf("root lists %v, err=%v", ents, err)
	}
	old := closestTo(nodes, Key(RootPN), 1)[0]

	key := Key(RootPN)
	for i := uint64(1); i <= 3; i++ {
		for _, nid := range []id.ID{key.Add(id.FromUint64(i)), key.Sub(id.FromUint64(i))} {
			nd := NewNode(simnet.Addr(fmt.Sprintf("j%d", len(nodes))), nid, net, cfg)
			if _, err := nd.Join(nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, nd)
		}
	}
	stabilizeAll(nodes)
	for _, nd := range closestTo(nodes, key, 1+cfg.Replicas) {
		if nd == old {
			t.Fatal("the old holder is still in the index's replica set")
		}
	}

	mustMkdirAll(t, nodes[2].NewMount(), "/b")
	ents, _, err := m.Readdir(m.Root())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("the bound mount lists %v, want [a b]", got)
	}
}

func rootNames(t *testing.T, m *Mount) string {
	t.Helper()
	ents, _, err := m.Readdir(m.Root())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name)
	}
	sort.Strings(got)
	return fmt.Sprint(got)
}

// TestRootIndexKeepsLiveNames: the index is stored state of its own, so the
// two ways it could lose a live home's name are closed. A NOENT is acted on
// only when the name's owner vouched for it — here /a's owner has crashed and
// its successor holds the copy unpromoted and cannot be asked, so rmdir fails
// and drops nothing — and a name the index did lose is listed again by a
// mkdir that answers EXIST.
func TestRootIndexKeepsLiveNames(t *testing.T) {
	net, nodes := testCluster(t, 8, 5, Config{Replicas: 2, NoMetadataCache: true})
	near := closestTo(nodes, Key("a"), 8)
	owner, client := near[0], near[7]
	for _, nd := range closestTo(nodes, Key(RootPN), 3) {
		if nd == owner || nd == client {
			t.Fatal("seed puts the index on a node under test")
		}
	}
	m := client.NewMount()
	mustMkdirAll(t, near[6].NewMount(), "/a") // the client resolves /a cold
	owner.Fail()
	nodes = remove(nodes, owner)
	heir := closestTo(nodes, Key("a"), 1)[0]
	if _, err := heir.Store().LookupPath(RepPath("/a")); err != nil {
		t.Fatalf("set-up: %s holds no replica of /a: %v", heir.Addr(), err)
	}
	net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		return simnet.LinkFault{Drop: from == client.Addr() && to == heir.Addr() && service == KoshaService}
	})
	if _, err := m.Rmdir(m.Root(), "a"); err == nil || nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("rmdir through an owner that cannot promote: %v, want a transport error", err)
	}
	net.SetFaults(nil)
	stabilizeAll(nodes)
	listed, resolves := rootView(t, near[5], "a")
	if !listed["a"] || !resolves["a"] {
		t.Fatalf("/a listed=%v resolves=%v after the refused rmdir, want both", listed["a"], resolves["a"])
	}

	// The index loses the name on every holder; the home is untouched.
	for _, nd := range nodes {
		nd.Store().RemoveAll(RootStore + "/a")
		nd.Store().RemoveAll(RepPath(RootStore + "/a"))
	}
	if got := rootNames(t, near[5].NewMount()); got != "[]" {
		t.Fatalf("set-up: root still lists %s", got)
	}
	if _, _, _, err := m.Mkdir(m.Root(), "a", 0o755); !nfs.IsStatus(err, nfs.ErrExist) {
		t.Fatalf("mkdir of a live home: %v, want EXIST", err)
	}
	if got := rootNames(t, near[5].NewMount()); got != "[a]" {
		t.Fatalf("root lists %s after mkdir answered EXIST, want [a]", got)
	}
}

// TestBareCandidateTakesNoVersion: a mount that binds the root at a new
// owner, whose index is still in its replica area, has the owner surface it
// and lists it. The bind's MkdirAll of the index's root is mirrored to the
// owner's candidates, and one that held no copy of the index gets only an
// empty directory from it: it must not record the owner's version for it.
// Recorded, the empty index outranked the full one when ownership next moved
// (TestOracleSeedSweep/seed1152).
func TestBareCandidateTakesNoVersion(t *testing.T) {
	_, nodes := testCluster(t, 8, 5, Config{Replicas: 2, NoMetadataCache: true})
	m := nodes[0].NewMount()
	mustMkdirAll(t, m, "/a")
	mustMkdirAll(t, m, "/b")
	owner := closestTo(nodes, Key(RootPN), 1)[0]
	owner.Fail()
	nodes = remove(nodes, owner)
	for range 3 {
		for _, nd := range nodes {
			nd.Overlay().Stabilize()
		}
	}
	heir := closestTo(nodes, Key(RootPN), 1)[0]
	if _, err := heir.Store().LookupPath(RootStore); err == nil {
		t.Fatalf("set-up: %s holds the index at its primary path before any bind", heir.Addr())
	}
	var bare []*Node // the heir's candidates that hold no copy
	for _, c := range heir.Overlay().ReplicaCandidates(2) {
		for _, nd := range nodes {
			if _, err := nd.Store().LookupPath(RepPath(RootStore)); nd.Addr() == c.Addr && err != nil {
				bare = append(bare, nd)
			}
		}
	}
	if len(bare) == 0 {
		t.Fatal("set-up: every candidate of the heir holds the index")
	}

	client := nodes[0]
	if client == heir {
		client = nodes[1]
	}
	if got := rootNames(t, client.NewMount()); got != "[a b]" {
		t.Fatalf("a fresh mount lists %s, want [a b]", got)
	}
	for _, nd := range bare {
		if got, want := nd.Repl().VerOf(RootStore), heir.Repl().VerOf(RootStore); got >= want {
			t.Errorf("%s, which held no index, records version %d for it, the owner's is %d", nd.Addr(), got, want)
		}
	}
}
