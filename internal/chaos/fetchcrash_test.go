package chaos

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/simnet"
)

// TestScenarioHolderCrashMidPromoteFetch exercises the swarm-repair
// fallback chain: a primary dies while its successor's replica is stale by
// one edit in a big file, so the promote runs a block-level pull repair —
// and the first holder to serve a batch crashes mid-fetch. The repair must
// ride out the dead holder (retry, local chunk reuse, and finally a re-run
// of the adopt against the surviving fresh copy) without losing a single
// acknowledged byte, and the replica set must re-converge after revival.
func TestScenarioHolderCrashMidPromoteFetch(t *testing.T) {
	const (
		seed     = 7707
		replicas = 3
		blobSize = 4 << 20
	)
	c, err := cluster.New(cluster.Options{
		Nodes: 8,
		Seed:  seed,
		Config: core.Config{
			Replicas:     replicas,
			AttrCacheTTL: -1,
			NameCacheTTL: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	byAddr := map[simnet.Addr]int{}
	for i, nd := range c.Nodes {
		byAddr[nd.Addr()] = i
	}

	m := c.Mount(0)
	model := NewOracle()
	blob := make([]byte, blobSize)
	s := uint64(seed)
	for i := range blob {
		s = s*6364136223846793005 + 1442695040888963407
		blob[i] = byte(s >> 33)
	}
	write := func(p string, data []byte) {
		t.Helper()
		if _, err := m.WriteFile(p, data); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		model.WriteFile(p, data)
	}
	for i := 0; i < 4; i++ {
		write(fmt.Sprintf("/fjob/file%02d", i), []byte(fmt.Sprintf("small-%02d", i)))
	}
	write("/fjob/blob.bin", blob)
	c.Stabilize()
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("replicas not converged before fault: %v", err)
	}

	// Leave the heir stale so the promote must pull-repair, while the other
	// candidates keep the fresh copy it repairs from.
	place, pi, si := heir(t, c, "/fjob", replicas)
	primary, succ := place.Node, c.Nodes[si].Addr()

	// One edit in the big file lands while the successor is unreachable:
	// acknowledged by the primary, mirrored to the other candidates, and
	// dropped on the way to the successor. The edit goes through a client
	// outside the partitioned pair, so the write itself routes normally.
	editor := -1
	for i, nd := range c.Nodes {
		if i != pi && nd.Addr() != succ {
			editor = i
			break
		}
	}
	em := c.Mount(editor)
	c.Net.SetPartition(func(a, b simnet.Addr) bool {
		return (a == primary && b == succ) || (a == succ && b == primary)
	})
	edited := append([]byte(nil), blob...)
	copy(edited[blobSize/2:], "EDITED-SIXTEEN-B")
	if _, err := em.WriteFile("/fjob/blob.bin", edited); err != nil {
		t.Fatalf("edit: %v", err)
	}
	model.WriteFile("/fjob/blob.bin", edited)
	// The successor must now be demonstrably stale — otherwise the promote
	// below has nothing to repair and the test passes vacuously.
	blobPhys := joinPhys(place.PhysDir(), "blob.bin")
	if got, err := c.Nodes[byAddr[succ]].Store().ReadFile(core.RepPath(blobPhys)); err != nil {
		t.Fatalf("successor lost its replica copy: %v", err)
	} else if bytes.Equal(got, edited) {
		t.Fatal("successor unexpectedly received the edit through the partition")
	}

	// Arm the fault: the first holder to answer a CHUNK_FETCH dies on the
	// spot, mid-fetch, batches still owed.
	var mu sync.Mutex
	crashed := -1
	for _, nd := range c.Nodes {
		nd.Repl().SetFetchHook(func(holder simnet.Addr, blocks int) {
			mu.Lock()
			defer mu.Unlock()
			if crashed >= 0 {
				return
			}
			if hi, ok := byAddr[holder]; ok {
				crashed = hi
				c.Fail(hi)
			}
		})
	}

	c.Fail(pi)
	c.Net.SetPartition(nil)
	c.Stabilize()

	if crashed < 0 {
		t.Fatal("no block fetch ran: the promote did not exercise the pull-repair path")
	}
	if crashed == pi || c.Nodes[crashed].Addr() == succ {
		t.Fatalf("fetch hook crashed %s, expected a serving holder", c.Nodes[crashed].Addr())
	}

	// The acknowledged edit must be readable from the survivors even before
	// the dead nodes return.
	alive := -1
	for i := range c.Nodes {
		if i != pi && i != crashed {
			alive = i
			break
		}
	}
	got, _, err := c.Mount(alive).ReadFile("/fjob/blob.bin")
	if err != nil {
		t.Fatalf("read blob after promote: %v", err)
	}
	if !bytes.Equal(got, edited) {
		t.Fatalf("promote lost the acknowledged edit: got %d bytes", len(got))
	}

	// Revive the dead, settle, and hold the full steady-state invariants.
	if err := c.Revive(pi); err != nil {
		t.Fatalf("revive primary: %v", err)
	}
	if err := c.Revive(crashed); err != nil {
		t.Fatalf("revive holder: %v", err)
	}
	c.Stabilize()
	mchk := c.Mount(0)
	if err := model.Check(mchk); err != nil {
		t.Fatalf("post-heal oracle check: %v", err)
	}
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("post-heal replica convergence: %v", err)
	}
}

// TestScenarioPromotePullsSymlink: a user symlink created while the
// primary's successor is unreachable reaches the successor only when it is
// promoted: its adopt reads the link's target from a fresh holder
// (enginePeer.ReadLink) and makes the link in its own store.
func TestScenarioPromotePullsSymlink(t *testing.T) {
	const replicas = 3
	c, err := cluster.New(cluster.Options{
		Nodes:  8,
		Seed:   7711,
		Config: core.Config{Replicas: replicas, AttrCacheTTL: -1, NameCacheTTL: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mount(0).WriteFile("/ljob/file", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Stabilize()
	place, pi, succ := heir(t, c, "/ljob", replicas)
	editor := -1
	for i := range c.Nodes {
		if i != pi && i != succ {
			editor = i
			break
		}
	}

	primary, next := place.Node, c.Nodes[succ].Addr()
	c.Net.SetPartition(func(a, b simnet.Addr) bool {
		return (a == primary && b == next) || (a == next && b == primary)
	})
	m := c.Mount(editor)
	dir, _, _, err := m.LookupPath("/ljob")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Symlink(dir, "link", "../elsewhere/target"); err != nil {
		t.Fatalf("symlink: %v", err)
	}
	linkPhys := joinPhys(place.PhysDir(), "link")
	if _, err := c.Nodes[succ].Store().LookupPath(core.RepPath(linkPhys)); err == nil {
		t.Fatal("the successor received the link through the partition: nothing to pull")
	}

	c.Fail(pi)
	c.Net.SetPartition(nil)
	c.Stabilize()
	rm := c.Mount(editor)
	vh, _, _, err := rm.LookupPath("/ljob/link")
	if err != nil {
		t.Fatalf("lookup after promote: %v", err)
	}
	if got, _, err := rm.Readlink(vh); err != nil || got != "../elsewhere/target" {
		t.Fatalf("readlink after promote = %q, %v", got, err)
	}
	attr, err := c.Nodes[succ].Store().LookupPath(linkPhys)
	if err != nil || attr.Type != localfs.TypeSymlink {
		t.Fatalf("promoted successor holds %s as %+v, %v; want the pulled symlink", linkPhys, attr, err)
	}
	if got, _, err := c.Nodes[succ].Store().Readlink(attr.Ino); err != nil || got != "../elsewhere/target" {
		t.Fatalf("promoted successor's link -> %q, %v", got, err)
	}
}

// heir resolves dir and returns its placement, the index of its primary and
// the index of the replica candidate that inherits the root when the primary
// dies: the candidate closest to the tree's key.
func heir(t *testing.T, c *cluster.Cluster, dir string, replicas int) (place core.Place, primary, succ int) {
	t.Helper()
	place, _, err := c.Nodes[0].ResolvePath(dir)
	if err != nil {
		t.Fatal(err)
	}
	primary, succ = -1, -1
	for i, nd := range c.Nodes {
		if nd.Addr() == place.Node {
			primary = i
		}
	}
	if primary < 0 {
		t.Fatalf("primary %s not in cluster", place.Node)
	}
	cands := c.Nodes[primary].Overlay().ReplicaCandidates(replicas)
	if len(cands) < 2 {
		t.Fatalf("primary has %d replica candidates, want >= 2", len(cands))
	}
	ids := make([]id.ID, len(cands))
	for i, cd := range cands {
		ids[i] = cd.ID
	}
	best, _ := id.Closest(core.Key(place.Name), ids)
	for i, nd := range c.Nodes {
		if nd.Overlay().Info().ID == best {
			succ = i
		}
	}
	return place, primary, succ
}
