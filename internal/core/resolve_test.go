package core

import (
	"testing"

	"repro/internal/localfs"
	"repro/internal/nfs"
)

func TestResolveDirRootPlace(t *testing.T) {
	_, nodes := testCluster(t, 3, 301, Config{})
	pl, cost, err := nodes[0].ResolveDir(nil)
	if err != nil || !pl.VRoot || cost != 0 {
		t.Fatalf("root place = %+v cost=%v err=%v", pl, cost, err)
	}
	if pl.PN() != "" || pl.SubtreeRoot() != "/" {
		t.Fatalf("root chain: pn=%q root=%q", pl.PN(), pl.SubtreeRoot())
	}
}

func TestResolveDirCachesLevels(t *testing.T) {
	_, nodes := testCluster(t, 4, 302, Config{DistributionLevel: 2})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/proj/sub/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// First resolution pays overlay routes; the second is served from the
	// directory cache and must be cheaper.
	nodes[0].cacheMu.Lock()
	nodes[0].dirCache = make(map[string]Place)
	nodes[0].cacheMu.Unlock()
	_, cold, err := nodes[0].ResolvePath("/proj/sub")
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := nodes[0].ResolvePath("/proj/sub")
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("cached resolution (%v) not cheaper than cold (%v)", warm, cold)
	}
	if warm != 0 {
		t.Fatalf("fully cached resolution should be free, got %v", warm)
	}
}

// TestResolveDirDanglingLevel: node 1 has resolved /a/b and no further when
// node 0 removes the directory and makes it again with a child. Node 1's
// entry for /a/b then names a storage root that is gone, the probe for the
// child under it says so, and ResolveDir — which has no mount to redrive it —
// resolves the chain once more itself instead of returning the resolver's
// internal sentinel.
func TestResolveDirDanglingLevel(t *testing.T) {
	_, nodes := testCluster(t, 6, 304, Config{DistributionLevel: 3})
	m := nodes[0].NewMount()
	if _, _, err := m.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	stale, _, err := nodes[1].ResolvePath("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RemoveAllPath("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	want, _, err := nodes[0].ResolvePath("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := nodes[1].ResolvePath("/a/b/c")
	if err != nil || got.Node != want.Node || got.Store != want.Store {
		t.Fatalf("through the stale level: %+v err=%v, want %+v", got, err, want)
	}
	if fresh, _, _ := nodes[1].ResolvePath("/a/b"); fresh.Store == stale.Store {
		t.Errorf("/a/b still resolves to the removed root %s", stale.Store)
	}
}

// TestResolveDirStartsAtTheDeepestCachedLevel: a place does not depend on its
// ancestors' places, so with the level-1 entry dropped and the level-2 one
// still cached, a lookup below level 2 is the walk on the cached place alone —
// no route and no probe to re-resolve level 1 first.
func TestResolveDirStartsAtTheDeepestCachedLevel(t *testing.T) {
	net, nodes := testCluster(t, 6, 309, Config{DistributionLevel: 2})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/a/b/c/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.LookupPath("/a/b/c/f"); err != nil { // caches /a and /a/b
		t.Fatal(err)
	}
	nodes[0].cacheDrop("/a")
	calls := net.Stats().Messages
	if _, attr, _, err := m.LookupPath("/a/b/c/f"); err != nil || attr.Size != 1 {
		t.Fatalf("lookup: %+v err=%v", attr, err)
	}
	if calls = net.Stats().Messages - calls; calls != 1 {
		t.Errorf("%d transport calls with level 1 dropped and level 2 cached, want 1", calls)
	}
	if _, ok := nodes[0].cachedDir([]string{"a", "b", "c"}); !ok {
		t.Error("WriteFile's cache-only resolution misses with level 2 cached")
	}
}

func TestResolveDirDeterministicAcrossNodes(t *testing.T) {
	_, nodes := testCluster(t, 6, 303, Config{DistributionLevel: 3})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/a/b/c/file", []byte("x")); err != nil {
		t.Fatal(err)
	}
	want, _, err := nodes[0].ResolvePath("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nodes); i++ {
		got, _, err := nodes[i].ResolvePath("/a/b/c")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if got.Node != want.Node || got.PN() != want.PN() {
			t.Fatalf("node %d resolves to %s/%s, node 0 to %s/%s",
				i, got.Node, got.PN(), want.Node, want.PN())
		}
	}
}

func TestResolveRejectsFileAsDirectory(t *testing.T) {
	_, nodes := testCluster(t, 3, 304, Config{DistributionLevel: 2})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/top/file.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// file.txt sits at a distributed depth; resolving it as a directory
	// must yield NotDir (which materialize uses to fall back to the
	// file-leaf path).
	_, _, err := nodes[0].ResolveDir([]string{"top", "file.txt"})
	if !nfs.IsStatus(err, nfs.ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
	// The mount-level lookup handles the fallback.
	_, attr, _, err := m.LookupPath("/top/file.txt")
	if err != nil || attr.Type != localfs.TypeRegular {
		t.Fatalf("lookup: %+v err=%v", attr, err)
	}
}

func TestResolveMissingLevels(t *testing.T) {
	_, nodes := testCluster(t, 3, 305, Config{DistributionLevel: 2})
	if _, _, err := nodes[0].ResolvePath("/nothing/here"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("err = %v", err)
	}
}

func TestVersionBumpsPerMutation(t *testing.T) {
	_, nodes := testCluster(t, 4, 306, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/v/f", []byte("a")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[0].ResolvePath("/v")
	var primary *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	before := primary.rep.VerOf(pl.SubtreeRoot())
	if before == 0 {
		t.Fatal("version not established at creation")
	}
	for i := 0; i < 3; i++ {
		if _, err := m.WriteFile("/v/f", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	after := primary.rep.VerOf(pl.SubtreeRoot())
	if after < before+3 {
		t.Fatalf("version %d -> %d after 3 writes", before, after)
	}
}

func TestTombstoneOnRemoval(t *testing.T) {
	_, nodes := testCluster(t, 4, 307, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/dead/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[0].ResolvePath("/dead")
	var primary *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	verAlive := primary.rep.VerOf(pl.SubtreeRoot())
	if _, err := m.RemoveAllPath("/dead"); err != nil {
		t.Fatal(err)
	}
	if !primary.rep.IsDead(pl.SubtreeRoot()) {
		t.Fatal("removal did not tombstone the root")
	}
	if primary.rep.VerOf(pl.SubtreeRoot()) <= verAlive {
		t.Fatal("tombstone version not above the live version")
	}
	// Re-creation clears the tombstone and continues the version chain.
	if _, err := m.WriteFile("/dead/f2", []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	pl2, _, err := nodes[0].ResolvePath("/dead")
	if err != nil {
		t.Fatal(err)
	}
	var p2 *Node
	for _, nd := range nodes {
		if nd.Addr() == pl2.Node {
			p2 = nd
		}
	}
	if p2.rep.IsDead(pl2.SubtreeRoot()) {
		t.Fatal("recreated root still tombstoned")
	}
	data, _, err := m.ReadFile("/dead/f2")
	if err != nil || string(data) != "reborn" {
		t.Fatalf("reborn read %q err=%v", data, err)
	}
}

func TestDemotePreservesDataInReplicaArea(t *testing.T) {
	_, nodes := testCluster(t, 4, 308, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/dm/f", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[0].ResolvePath("/dm")
	var primary *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	t0 := Track{PN: pl.PN(), Root: pl.SubtreeRoot()}
	primary.rep.DemoteLocal(t0)
	if _, err := primary.Store().LookupPath(pl.SubtreeRoot()); err == nil {
		t.Fatal("primary path still present after demotion")
	}
	data, err := primary.Store().ReadFile(RepPath(pl.SubtreeRoot()) + "/f")
	if err != nil || string(data) != "kept" {
		t.Fatalf("replica-area copy: %q err=%v", data, err)
	}
	// Promotion round-trips it back.
	primary.rep.PromoteLocal(t0)
	data, err = primary.Store().ReadFile(pl.SubtreeRoot() + "/f")
	if err != nil || string(data) != "kept" {
		t.Fatalf("after promote: %q err=%v", data, err)
	}
}
