package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

// testCluster builds n joined, stabilized Kosha nodes.
func testCluster(t testing.TB, n int, seed uint64, cfg Config) (*simnet.Network, []*Node) {
	t.Helper()
	net := simnet.New(simnet.LAN100)
	return net, testClusterOn(t, net, n, seed, cfg)
}

// testClusterOn is testCluster over a transport the test supplies.
func testClusterOn(t testing.TB, net simnet.Transport, n int, seed uint64, cfg Config) []*Node {
	t.Helper()
	state := seed
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		addr := simnet.Addr(fmt.Sprintf("k%d", i))
		nodes[i] = NewNode(addr, id.Rand128(&state), net, cfg)
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nodes[i].Join(boot); err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
	}
	stabilizeAll(nodes)
	return nodes
}

func stabilizeAll(nodes []*Node) {
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			nd.Overlay().Stabilize()
		}
	}
	for _, nd := range nodes {
		nd.SyncReplicas()
	}
}

func TestSingleNodeBasicOps(t *testing.T) {
	_, nodes := testCluster(t, 1, 1, Config{})
	m := nodes[0].NewMount()

	// Mkdir at root, create a file, write, read back.
	dirVH, dattr, _, err := m.Mkdir(m.Root(), "alice", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if dattr.Type != localfs.TypeDir {
		t.Fatalf("mkdir attr %+v", dattr)
	}
	fvh, _, _, err := m.Create(dirVH, "notes.txt", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello kosha")
	if _, _, err := m.Write(fvh, 0, payload); err != nil {
		t.Fatal(err)
	}
	data, eof, _, err := m.Read(fvh, 0, 100)
	if err != nil || !eof || !bytes.Equal(data, payload) {
		t.Fatalf("read %q eof=%v err=%v", data, eof, err)
	}
	attr, _, err := m.Getattr(fvh)
	if err != nil || attr.Size != int64(len(payload)) {
		t.Fatalf("getattr %+v err=%v", attr, err)
	}
	// Lookup through a fresh handle chain.
	vh2, attr2, _, err := m.LookupPath("/alice/notes.txt")
	if err != nil || attr2.Size != attr.Size {
		t.Fatalf("lookupPath %+v err=%v", attr2, err)
	}
	_ = vh2
	// Listing.
	ents, _, err := m.Readdir(dirVH)
	if err != nil || len(ents) != 1 || ents[0].Name != "notes.txt" {
		t.Fatalf("readdir %v err=%v", ents, err)
	}
	roots, _, err := m.Readdir(m.Root())
	if err != nil || len(roots) != 1 || roots[0].Name != "alice" || roots[0].Type != localfs.TypeDir {
		t.Fatalf("root readdir %v err=%v", roots, err)
	}
	// Remove.
	if _, err := m.Remove(dirVH, "notes.txt"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.LookupPath("/alice/notes.txt"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("after remove err = %v", err)
	}
	if _, err := m.Rmdir(m.Root(), "alice"); err != nil {
		t.Fatal(err)
	}
	roots, _, _ = m.Readdir(m.Root())
	if len(roots) != 0 {
		t.Fatalf("root not empty after rmdir: %v", roots)
	}
}

func TestRootOnlyDirectories(t *testing.T) {
	_, nodes := testCluster(t, 1, 2, Config{})
	m := nodes[0].NewMount()
	if _, _, _, err := m.Create(m.Root(), "f", 0o644, false); err != ErrRootOnlyDirs {
		t.Fatalf("create at root err = %v", err)
	}
	if _, _, err := m.Symlink(m.Root(), "l", "t"); err != ErrRootOnlyDirs {
		t.Fatalf("symlink at root err = %v", err)
	}
}

func TestSingleSystemImageAcrossMounts(t *testing.T) {
	_, nodes := testCluster(t, 4, 3, Config{})
	mA := nodes[0].NewMount()
	mB := nodes[3].NewMount()

	if _, err := mA.WriteFile("/shared/doc.txt", []byte("from A")); err != nil {
		t.Fatal(err)
	}
	data, _, err := mB.ReadFile("/shared/doc.txt")
	if err != nil || string(data) != "from A" {
		t.Fatalf("cross-mount read %q err=%v", data, err)
	}
	// Visible in B's root listing too.
	ents, _, err := mB.Readdir(mB.Root())
	if err != nil || len(ents) != 1 || ents[0].Name != "shared" {
		t.Fatalf("B root listing %v err=%v", ents, err)
	}
	// Writes from B visible at A.
	if _, err := mB.WriteFile("/shared/reply.txt", []byte("from B")); err != nil {
		t.Fatal(err)
	}
	data, _, err = mA.ReadFile("/shared/reply.txt")
	if err != nil || string(data) != "from B" {
		t.Fatalf("A read of B write %q err=%v", data, err)
	}
}

func TestDirectoriesDistributeAcrossNodes(t *testing.T) {
	_, nodes := testCluster(t, 8, 4, Config{Replicas: -1}) // K=0: placement only
	m := nodes[0].NewMount()
	used := map[simnet.Addr]bool{}
	for i := 0; i < 24; i++ {
		user := fmt.Sprintf("user%02d", i)
		if _, err := m.WriteFile("/"+user+"/data", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		pl, _, err := nodes[0].ResolvePath("/" + user)
		if err != nil {
			t.Fatal(err)
		}
		used[pl.Node] = true
	}
	if len(used) < 4 {
		t.Fatalf("24 home dirs landed on only %d of 8 nodes", len(used))
	}
	// All files in one directory stay on the directory's node (Section 3.1).
	for i := 0; i < 10; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/user00/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	pl, _, _ := nodes[0].ResolvePath("/user00")
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			if nd.Store().NumFiles() < 11 {
				t.Fatalf("primary holds %d files, want >= 11", nd.Store().NumFiles())
			}
		}
	}
}

func TestDistributionLevelSplitsSubdirs(t *testing.T) {
	_, nodes := testCluster(t, 8, 5, Config{DistributionLevel: 2, Replicas: -1})
	m := nodes[0].NewMount()
	// Create /proj plus 16 subdirs: with L=2 they land on multiple nodes.
	if _, _, err := m.MkdirAll("/proj"); err != nil {
		t.Fatal(err)
	}
	used := map[simnet.Addr]bool{}
	for i := 0; i < 16; i++ {
		sub := fmt.Sprintf("/proj/sub%02d", i)
		if _, err := m.WriteFile(sub+"/file", []byte("s")); err != nil {
			t.Fatal(err)
		}
		pl, _, err := nodes[0].ResolvePath(sub)
		if err != nil {
			t.Fatal(err)
		}
		used[pl.Node] = true
	}
	if len(used) < 3 {
		t.Fatalf("16 subdirs landed on only %d nodes at L=2", len(used))
	}
	// Level-3 dirs stay with their level-2 parent.
	if _, err := m.WriteFile("/proj/sub00/deep/deeper/f", []byte("d")); err != nil {
		t.Fatal(err)
	}
	p2, _, _ := nodes[0].ResolvePath("/proj/sub00")
	p3, _, _ := nodes[0].ResolvePath("/proj/sub00/deep/deeper")
	if p2.Node != p3.Node {
		t.Fatalf("L+1 dir moved off its parent's node: %s vs %s", p2.Node, p3.Node)
	}
	// Parent listing shows each subdir exactly once, as a directory.
	projVH, _, _, err := m.LookupPath("/proj")
	if err != nil {
		t.Fatal(err)
	}
	ents, _, err := m.Readdir(projVH)
	if err != nil || len(ents) != 16 {
		t.Fatalf("proj listing: %d entries err=%v", len(ents), err)
	}
	for _, e := range ents {
		if e.Type != localfs.TypeDir {
			t.Fatalf("entry %q listed as %v", e.Name, e.Type)
		}
	}
}

func TestCapacityRedirection(t *testing.T) {
	// Build a cluster where every node is tiny except one big one; dirs
	// redirect off full nodes and remain transparently accessible.
	net := simnet.New(simnet.LAN100)
	state := uint64(77)
	var nodes []*Node
	for i := 0; i < 6; i++ {
		cfg := Config{Capacity: 4 << 10, Replicas: -1, RedirectAttempts: 8, UtilizationLimit: 0.5}
		if i == 5 {
			cfg.Capacity = 0 // one unlimited node
		}
		nd := NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, cfg)
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	stabilizeAll(nodes)
	m := nodes[0].NewMount()

	// Fill the small nodes' stores beyond the limit directly.
	for i := 0; i < 5; i++ {
		// Park the filler in the hidden replica area so the virtual root
		// listing is not polluted by this out-of-band write.
		nodes[i].Store().WriteFile(RepPath("/filler"), make([]byte, 3<<10))
	}
	// New directories must redirect to the unlimited node. With a bounded
	// number of rehash attempts an insertion can legitimately fail when
	// every attempt lands on a full node (the Figure 6 failure mode), so
	// require most to succeed and every success to sit on the big node.
	created := []string{}
	for i := 0; i < 10; i++ {
		dir := fmt.Sprintf("/redir%d", i)
		if _, err := m.WriteFile(dir+"/f", []byte("redirected")); err != nil {
			if nfs.IsStatus(err, nfs.ErrNoSpc) {
				continue
			}
			t.Fatalf("create %s: %v", dir, err)
		}
		created = append(created, dir)
		pl, _, err := nodes[0].ResolvePath(dir)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Node != nodes[5].Addr() {
			t.Fatalf("%s placed on %s (util %.2f), want big node", dir, pl.Node, utilOf(nodes, pl.Node))
		}
		// Transparent read-back through a different mount.
		m2 := nodes[2].NewMount()
		data, _, err := m2.ReadFile(dir + "/f")
		if err != nil || string(data) != "redirected" {
			t.Fatalf("read of redirected dir: %q err=%v", data, err)
		}
	}
	if len(created) < 5 {
		t.Fatalf("only %d of 10 dirs created with 8 redirect attempts", len(created))
	}
	// Root listing still shows every created directory once, plain-named.
	ents, _, err := m.Readdir(m.Root())
	if err != nil || len(ents) != len(created) {
		t.Fatalf("root listing after redirects: %v err=%v", ents, err)
	}
}

// readCopy reads a node's copy of a primary-relative physical path, whether
// it holds it as primary or in the replica area.
func readCopy(nd *Node, phys string) ([]byte, error) {
	if data, err := nd.Store().ReadFile(phys); err == nil {
		return data, nil
	}
	return nd.Store().ReadFile(RepPath(phys))
}

func statCopy(nd *Node, phys string) (localfs.Attr, error) {
	if a, err := nd.Store().LookupPath(phys); err == nil {
		return a, nil
	}
	return nd.Store().LookupPath(RepPath(phys))
}

func utilOf(nodes []*Node, addr simnet.Addr) float64 {
	for _, nd := range nodes {
		if nd.Addr() == addr {
			return nd.Store().Utilization()
		}
	}
	return -1
}

func TestReplicationInvariant(t *testing.T) {
	_, nodes := testCluster(t, 6, 8, Config{Replicas: 2})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/rep/data.bin", bytes.Repeat([]byte{7}, 2048)); err != nil {
		t.Fatal(err)
	}
	// The file must exist on the primary plus 2 replicas, byte-identical.
	copies := 0
	for _, nd := range nodes {
		data, err := readCopy(nd, "/rep/data.bin")
		if err == nil {
			copies++
			if len(data) != 2048 || data[0] != 7 {
				t.Fatalf("corrupt copy on %s", nd.Addr())
			}
		}
	}
	if copies != 3 {
		t.Fatalf("found %d copies, want 3 (primary + 2 replicas)", copies)
	}
	// Writes propagate to all copies.
	fvh, _, _, err := m.LookupPath("/rep/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Write(fvh, 0, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		data, err := readCopy(nd, "/rep/data.bin")
		if err == nil && data[0] != 9 {
			t.Fatalf("replica on %s missed the write", nd.Addr())
		}
	}
	// Delete removes every instance (Section 4.2).
	dirVH, _, _, _ := m.LookupPath("/rep")
	if _, err := m.Remove(dirVH, "data.bin"); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if _, err := readCopy(nd, "/rep/data.bin"); err == nil {
			t.Fatalf("stale replica instance on %s after delete", nd.Addr())
		}
	}
}

func TestTransparentFailover(t *testing.T) {
	_, nodes := testCluster(t, 6, 13, Config{Replicas: 2})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/failme/precious.txt", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	pl, _, err := nodes[0].ResolvePath("/failme")
	if err != nil {
		t.Fatal(err)
	}
	var primary *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	if primary == nodes[0] {
		// Use a mount on a different node so the client survives.
		m = nodes[(indexOf(nodes, primary)+1)%len(nodes)].NewMount()
		if _, _, err := m.ReadFile("/failme/precious.txt"); err != nil {
			t.Fatal(err)
		}
	}
	primary.Fail()

	// Access must transparently hit a replica (Section 4.4).
	data, _, err := m.ReadFile("/failme/precious.txt")
	if err != nil || string(data) != "survives" {
		t.Fatalf("failover read %q err=%v", data, err)
	}
	// Writes work against the new primary too, and keep replicating.
	if _, err := m.WriteFile("/failme/new.txt", []byte("post-failure")); err != nil {
		t.Fatalf("post-failure write: %v", err)
	}
	data, _, err = m.ReadFile("/failme/new.txt")
	if err != nil || string(data) != "post-failure" {
		t.Fatalf("post-failure read %q err=%v", data, err)
	}
}

func indexOf(nodes []*Node, target *Node) int {
	for i, nd := range nodes {
		if nd == target {
			return i
		}
	}
	return -1
}

func TestFailoverWithZeroReplicasLosesData(t *testing.T) {
	_, nodes := testCluster(t, 5, 21, Config{Replicas: -1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/gone/data", []byte("unreplicated")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[0].ResolvePath("/gone")
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			if nd == nodes[0] {
				m = nodes[(indexOf(nodes, nd)+1)%len(nodes)].NewMount()
			}
			nd.Fail()
		}
	}
	if _, _, err := m.ReadFile("/gone/data"); err == nil {
		t.Fatal("read of unreplicated data on dead node should fail")
	}
}

func TestMigrationOnJoin(t *testing.T) {
	net, nodes := testCluster(t, 4, 34, Config{Replicas: 1})
	m := nodes[0].NewMount()
	for i := 0; i < 8; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/mig%d/f", i), []byte("content")); err != nil {
			t.Fatal(err)
		}
	}

	// Join 4 more nodes; ownership of some keys moves to them.
	state := uint64(999)
	for i := 4; i < 8; i++ {
		nd := NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, Config{Replicas: 1})
		if _, err := nd.Join(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	stabilizeAll(nodes)
	// Let every old node push content whose ownership moved.
	for _, nd := range nodes {
		nd.SyncReplicas()
	}

	// Every directory's current primary must hold its data locally.
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/mig%d", i)
		pl, _, err := nodes[0].ResolvePath(dir)
		if err != nil {
			t.Fatalf("resolve %s: %v", dir, err)
		}
		var owner *Node
		for _, nd := range nodes {
			if nd.Addr() == pl.Node {
				owner = nd
			}
		}
		if _, err := owner.Store().ReadFile(dir + "/f"); err != nil {
			t.Fatalf("primary %s lacks %s after migration: %v", owner.Addr(), dir, err)
		}
		// And no migration flag is left behind.
		if _, err := owner.Store().LookupPath(dir + "/" + MigrationFlag); err == nil {
			t.Fatalf("migration flag left on %s", owner.Addr())
		}
		// Reads work via any mount.
		m2 := nodes[6].NewMount()
		if _, _, err := m2.ReadFile(dir + "/f"); err != nil {
			t.Fatalf("read %s via new node: %v", dir, err)
		}
	}
}

func TestMigrationFlagTriggersRepush(t *testing.T) {
	_, nodes := testCluster(t, 4, 55, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/flagged/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[0].ResolvePath("/flagged")
	var primary, replica *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	for _, rep := range primary.Overlay().ReplicaCandidates(1) {
		for _, nd := range nodes {
			if nd.Addr() == rep.Addr {
				replica = nd
			}
		}
	}
	if replica == nil {
		t.Fatal("no replica found")
	}
	// Corrupt the replica-area copy: simulate an interrupted migration.
	root := RepPath("/" + pl.PN())
	replica.Store().WriteFile(root+"/"+MigrationFlag, nil)
	replica.Store().RemoveAll(root + "/f")

	// Primary's next sync must detect the flag and re-push.
	primary.SyncReplicas()
	data, err := replica.Store().ReadFile(root + "/f")
	if err != nil || string(data) != "v1" {
		t.Fatalf("replica not repaired: %q err=%v", data, err)
	}
	if _, err := replica.Store().LookupPath(root + "/" + MigrationFlag); err == nil {
		t.Fatal("flag still present after repair")
	}
}

func TestRenameWithinDirectory(t *testing.T) {
	_, nodes := testCluster(t, 4, 89, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/rn/old.txt", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	dirVH, _, _, err := m.LookupPath("/rn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(dirVH, "old.txt", dirVH, "new.txt"); err != nil {
		t.Fatal(err)
	}
	data, _, err := m.ReadFile("/rn/new.txt")
	if err != nil || string(data) != "payload" {
		t.Fatalf("renamed read %q err=%v", data, err)
	}
	if _, _, err := m.ReadFile("/rn/old.txt"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("old name err = %v", err)
	}
	// Replicas renamed too.
	pl, _, _ := nodes[0].ResolvePath("/rn")
	phys := "/" + pl.PN()
	for _, nd := range nodes {
		if _, err := statCopy(nd, phys+"/old.txt"); err == nil {
			t.Fatalf("replica on %s still has old name", nd.Addr())
		}
	}
}

func TestRenameDistributedDirectoryCopyDelete(t *testing.T) {
	_, nodes := testCluster(t, 4, 144, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/olddir/a/b.txt", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(m.Root(), "olddir", m.Root(), "newdir"); err != nil {
		t.Fatal(err)
	}
	data, _, err := m.ReadFile("/newdir/a/b.txt")
	if err != nil || string(data) != "deep" {
		t.Fatalf("post-rename read %q err=%v", data, err)
	}
	if _, _, _, err := m.LookupPath("/olddir"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("old dir err = %v", err)
	}
	ents, _, _ := m.Readdir(m.Root())
	if len(ents) != 1 || ents[0].Name != "newdir" {
		t.Fatalf("root listing after rename: %v", ents)
	}
}

func TestRmdirDistributedCleansLinksAndScaffolding(t *testing.T) {
	_, nodes := testCluster(t, 6, 233, Config{DistributionLevel: 2, Replicas: 1})
	m := nodes[0].NewMount()
	if _, _, err := m.MkdirAll("/top/sub"); err != nil {
		t.Fatal(err)
	}
	topVH, _, _, err := m.LookupPath("/top")
	if err != nil {
		t.Fatal(err)
	}
	// Non-empty: rmdir refused.
	if _, err := m.WriteFile("/top/sub/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rmdir(topVH, "sub"); !nfs.IsStatus(err, nfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	subVH, _, _, _ := m.LookupPath("/top/sub")
	if _, err := m.Remove(subVH, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rmdir(topVH, "sub"); err != nil {
		t.Fatalf("rmdir: %v", err)
	}
	// Gone from listings, resolution, and all stores.
	ents, _, _ := m.Readdir(topVH)
	if len(ents) != 0 {
		t.Fatalf("top still lists %v", ents)
	}
	if _, _, _, err := m.LookupPath("/top/sub"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("lookup removed dir err = %v", err)
	}
	for _, nd := range nodes {
		found := false
		nd.Store().Walk("/", func(p string, a localfs.Attr, _ string) error {
			if BaseName(pathBase(p)) == "sub" {
				found = true
			}
			return nil
		})
		if found {
			t.Fatalf("node %s still stores traces of removed dir", nd.Addr())
		}
	}
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

func TestReviveRejoinsEmpty(t *testing.T) {
	_, nodes := testCluster(t, 5, 377, Config{Replicas: 2})
	m := nodes[1].NewMount()
	if _, err := m.WriteFile("/perm/f", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[1].ResolvePath("/perm")
	var victim *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			victim = nd
		}
	}
	if victim == nodes[1] {
		m = nodes[0].NewMount()
	}
	victim.Fail()
	stabilizeAll(remove(nodes, victim))

	// Data survives via replicas.
	if _, _, err := m.ReadFile("/perm/f"); err != nil {
		t.Fatalf("read during failure: %v", err)
	}

	// Revive with a fresh id: store purged (Section 4.3.2).
	state := uint64(424242)
	if _, err := victim.Revive(id.Rand128(&state), nodes[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if victim.Store().NumFiles() != 0 {
		t.Fatalf("revived node still holds %d files", victim.Store().NumFiles())
	}
	stabilizeAll(nodes)
	// The file is still reachable and consistent.
	data, _, err := m.ReadFile("/perm/f")
	if err != nil || string(data) != "durable" {
		t.Fatalf("read after revive %q err=%v", data, err)
	}
}

func remove(nodes []*Node, dead *Node) []*Node {
	out := make([]*Node, 0, len(nodes))
	for _, nd := range nodes {
		if nd != dead {
			out = append(out, nd)
		}
	}
	return out
}

func TestUserSymlinksPreserved(t *testing.T) {
	_, nodes := testCluster(t, 3, 610, Config{})
	m := nodes[0].NewMount()
	dirVH, _, err := m.MkdirAll("/links")
	if err != nil {
		t.Fatal(err)
	}
	lvh, _, err := m.Symlink(dirVH, "mylink", "../somewhere/else")
	if err != nil {
		t.Fatal(err)
	}
	target, _, err := m.Readlink(lvh)
	if err != nil || target != "../somewhere/else" {
		t.Fatalf("readlink %q err=%v", target, err)
	}
	// Listed as a symlink, not a directory.
	ents, _, err := m.Readdir(dirVH)
	if err != nil || len(ents) != 1 || ents[0].Type != localfs.TypeSymlink {
		t.Fatalf("listing %v err=%v", ents, err)
	}
	// Removable as a file.
	if _, err := m.Remove(dirVH, "mylink"); err != nil {
		t.Fatal(err)
	}
}

func TestSetattrPropagatesToReplicas(t *testing.T) {
	_, nodes := testCluster(t, 4, 987, Config{Replicas: 2})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/sa/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/sa/f")
	if err != nil {
		t.Fatal(err)
	}
	sz := int64(4)
	attr, _, err := m.Setattr(fvh, localfs.SetAttr{Size: &sz})
	if err != nil || attr.Size != 4 {
		t.Fatalf("setattr %+v err=%v", attr, err)
	}
	pl, _, _ := nodes[0].ResolvePath("/sa")
	phys := "/" + pl.PN() + "/f"
	count := 0
	for _, nd := range nodes {
		if a, err := statCopy(nd, phys); err == nil {
			count++
			if a.Size != 4 {
				t.Fatalf("copy on %s has size %d", nd.Addr(), a.Size)
			}
		}
	}
	if count != 3 {
		t.Fatalf("%d copies after setattr, want 3", count)
	}
}

func TestInterposeCostCharged(t *testing.T) {
	_, nodes := testCluster(t, 1, 31, Config{})
	m := nodes[0].NewMount()
	_, _, err := m.MkdirAll("/c")
	if err != nil {
		t.Fatal(err)
	}
	attr, cost, err := m.Getattr(RootVH)
	if err != nil || attr.Type != localfs.TypeDir {
		t.Fatal(err)
	}
	if cost != InterposeCost {
		t.Fatalf("root getattr cost %v, want exactly I", cost)
	}
	_, _, cost, err = m.LookupPath("/c")
	if err != nil {
		t.Fatal(err)
	}
	if cost < InterposeCost {
		t.Fatalf("op cost %v below I", cost)
	}
}

func TestNotPrimaryRejected(t *testing.T) {
	_, nodes := testCluster(t, 6, 47, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/np/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[0].ResolvePath("/np")
	// Find a node that is NOT the primary and send it an Apply directly.
	var wrong *Node
	for _, nd := range nodes {
		if nd.Addr() != pl.Node {
			wrong = nd
			break
		}
	}
	_, _, _, err := nodes[0].apply(nil, site{node: wrong.Addr(), key: Key(pl.PN())},
		FSOp{Kind: FSWriteFile, Path: "/" + pl.PN() + "/evil", Data: []byte("no")})
	if err != ErrNotPrimary {
		t.Fatalf("apply at wrong node err = %v", err)
	}
}

func TestRenameDistributedSubdirViaLink(t *testing.T) {
	// At L=2, a second-level directory renames by moving only its special
	// link (Section 4.1.4) — the stored hierarchy must not move.
	_, nodes := testCluster(t, 6, 611, Config{DistributionLevel: 2, Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/proj/old/deep/file.txt", []byte("stay put")); err != nil {
		t.Fatal(err)
	}
	before, _, err := nodes[0].ResolvePath("/proj/old")
	if err != nil {
		t.Fatal(err)
	}
	projVH, _, _, err := m.LookupPath("/proj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(projVH, "old", projVH, "new"); err != nil {
		t.Fatal(err)
	}
	after, _, err := nodes[0].ResolvePath("/proj/new")
	if err != nil {
		t.Fatal(err)
	}
	// Same node, same placement name: nothing moved.
	if after.Node != before.Node || after.PN() != before.PN() {
		t.Fatalf("hierarchy moved: %s/%s -> %s/%s", before.Node, before.PN(), after.Node, after.PN())
	}
	data, _, err := m.ReadFile("/proj/new/deep/file.txt")
	if err != nil || string(data) != "stay put" {
		t.Fatalf("read after link rename: %q err=%v", data, err)
	}
	if _, _, _, err := m.LookupPath("/proj/old"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("old name still resolves: %v", err)
	}
	// Rename onto an existing sibling is refused.
	if _, err := m.WriteFile("/proj/other/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(projVH, "new", projVH, "other"); !nfs.IsStatus(err, nfs.ErrExist) {
		t.Fatalf("rename onto existing err = %v", err)
	}
}

func TestRenameRedirectedLevel1ViaLinkMove(t *testing.T) {
	// A redirected level-1 home renames by moving its link between probe
	// nodes; the salted hierarchy stays on its node.
	net := simnet.New(simnet.LAN100)
	state := uint64(612)
	var nodes []*Node
	for i := 0; i < 6; i++ {
		cfg := Config{Capacity: 4 << 10, Replicas: -1, RedirectAttempts: 16, UtilizationLimit: 0.5}
		if i == 5 {
			cfg.Capacity = 0
		}
		nd := NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, cfg)
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	stabilizeAll(nodes)
	for i := 0; i < 5; i++ {
		nodes[i].Store().WriteFile(RepPath("/filler"), make([]byte, 3<<10))
	}
	m := nodes[0].NewMount()
	// Find a name that redirects.
	var dir string
	for i := 0; ; i++ {
		dir = fmt.Sprintf("/redir%d", i)
		if _, err := m.WriteFile(dir+"/f", []byte("moved by name only")); err != nil {
			continue
		}
		pl, _, err := nodes[0].ResolvePath(dir)
		if err != nil {
			t.Fatal(err)
		}
		if IsSalted(pl.PN()) {
			break
		}
		if i > 20 {
			t.Skip("no redirected placement with this seed")
		}
	}
	before, _, _ := nodes[0].ResolvePath(dir)
	if _, err := m.Rename(m.Root(), dir[1:], m.Root(), "renamed"); err != nil {
		t.Fatal(err)
	}
	after, _, err := nodes[0].ResolvePath("/renamed")
	if err != nil {
		t.Fatal(err)
	}
	if after.Node != before.Node || after.PN() != before.PN() {
		t.Fatalf("salted hierarchy moved: %s/%s -> %s/%s", before.Node, before.PN(), after.Node, after.PN())
	}
	data, _, err := m.ReadFile("/renamed/f")
	if err != nil || string(data) != "moved by name only" {
		t.Fatalf("read after rename: %q err=%v", data, err)
	}
	if _, _, _, err := m.LookupPath(dir); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("old name still resolves: %v", err)
	}
	// Root listing shows only the new name.
	ents, _, _ := m.Readdir(m.Root())
	for _, e := range ents {
		if e.Name == dir[1:] {
			t.Fatalf("old name in root listing: %v", ents)
		}
	}
}

func TestMountStatfsAggregates(t *testing.T) {
	net := simnet.New(simnet.LAN100)
	state := uint64(712)
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nd := NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net,
			Config{Capacity: int64(i+1) << 20, Replicas: 1})
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	stabilizeAll(nodes)
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/agg/f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	st, _, err := m.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 4 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	// 1+2+3+4 MiB of contributed capacity.
	if st.TotalBytes != 10<<20 {
		t.Fatalf("total = %d", st.TotalBytes)
	}
	// One file + one replica.
	if st.Files != 2 || st.UsedBytes != 2000 {
		t.Fatalf("files=%d used=%d", st.Files, st.UsedBytes)
	}
}

func TestRenameInvalidatesStaleRemoteCaches(t *testing.T) {
	// A mount on another node resolves a directory, then the directory is
	// renamed through a different mount. The stale resolver cache must not
	// alias the renamed hierarchy: the old name disappears, the new name
	// serves the data, and new content under the recreated old name stays
	// separate.
	_, nodes := testCluster(t, 5, 811, Config{DistributionLevel: 2, Replicas: 1})
	mA := nodes[0].NewMount()
	mB := nodes[1].NewMount()

	if _, err := mA.WriteFile("/p/old/data.txt", []byte("original")); err != nil {
		t.Fatal(err)
	}
	// mB caches the resolution of /p/old.
	if _, _, err := mB.ReadFile("/p/old/data.txt"); err != nil {
		t.Fatal(err)
	}
	// mA renames old -> fresh (cheap link rename with storage relocation).
	pVH, _, _, err := mA.LookupPath("/p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Rename(pVH, "old", pVH, "fresh"); err != nil {
		t.Fatal(err)
	}
	// mB's stale cache must yield NOENT for the old name...
	if _, _, err := mB.ReadFile("/p/old/data.txt"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("stale-cache read of old name: %v", err)
	}
	// ...and the new name must serve the data.
	data, _, err := mB.ReadFile("/p/fresh/data.txt")
	if err != nil || string(data) != "original" {
		t.Fatalf("read via new name: %q err=%v", data, err)
	}
	// Recreating the old name yields a separate, empty directory.
	if _, err := mA.WriteFile("/p/old/new.txt", []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	vh, _, _, err := mB.LookupPath("/p/old")
	if err != nil {
		t.Fatal(err)
	}
	ents, _, err := mB.Readdir(vh)
	if err != nil || len(ents) != 1 || ents[0].Name != "new.txt" {
		t.Fatalf("recreated dir listing: %v err=%v", ents, err)
	}
	// The renamed directory is untouched by the recreation.
	data, _, err = mB.ReadFile("/p/fresh/data.txt")
	if err != nil || string(data) != "original" {
		t.Fatalf("renamed dir after recreation: %q err=%v", data, err)
	}
}
