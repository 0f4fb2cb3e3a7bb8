package chaos

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
)

// staleHeir builds a K = 3 cluster that syncs only when told to, holding
// /pjob, and leaves the heir of /pjob — the replica candidate that inherits
// it if the primary dies — stale by one 4 MiB file, written while the link
// between the primary and the heir was cut: every other candidate holds it.
// It returns the cluster, the oracle, the placement and the indexes of the
// primary and the heir.
func staleHeir(t *testing.T, seed uint64) (c *cluster.Cluster, model *Oracle, place core.Place, pi, si int) {
	t.Helper()
	const replicas = 3
	c, err := cluster.New(cluster.Options{
		Nodes:  8,
		Seed:   seed,
		Config: core.Config{Replicas: replicas, AttrCacheTTL: -1, NameCacheTTL: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	model = NewOracle()
	write := func(m *core.Mount, p string, data []byte) {
		t.Helper()
		if _, err := m.WriteFile(p, data); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		model.WriteFile(p, data)
	}
	write(c.Mount(0), "/pjob/small", []byte("small"))
	c.Stabilize()
	place, pi, si = heir(t, c, "/pjob", replicas)
	editor := -1
	for i := range c.Nodes {
		if i != pi && i != si {
			editor = i
			break
		}
	}
	blob := make([]byte, 4<<20)
	s := seed
	for i := range blob {
		s = s*6364136223846793005 + 1442695040888963407
		blob[i] = byte(s >> 33)
	}
	primary, next := place.Node, c.Nodes[si].Addr()
	c.Net.SetPartition(func(a, b simnet.Addr) bool {
		return (a == primary && b == next) || (a == next && b == primary)
	})
	write(c.Mount(editor), "/pjob/fresh.bin", blob)
	c.Net.SetPartition(nil)
	// Heal the overlay only: the primary learns the heir is alive again, and
	// no replica sync runs.
	for round := 0; round < 3; round++ {
		for _, i := range c.Alive() {
			c.Nodes[i].Overlay().Stabilize()
			c.Nodes[i].Overlay().RepairTable()
		}
	}
	if _, err := c.Nodes[si].Store().LookupPath(core.RepPath(joinPhys(place.PhysDir(), "fresh.bin"))); err == nil {
		t.Fatal("the heir received the file through the partition: nothing to pull")
	}
	return c, model, place, pi, si
}

// TestScenarioSourceCrashMidRefreshPull: the primary's Sync has its stale
// heir pull, and the primary crashes right after serving the heir's first
// CHUNK_FETCH. The pull is cut short with MIGRATION_NOT_COMPLETE up, so the
// heir's copy answers TREE_DIGEST flagged. Promoted by the crash, the heir
// takes its own copy for what it is — behind — and adopts the file from the
// settled candidates. After the primary revives and the cluster syncs, every
// replica converges.
func TestScenarioSourceCrashMidRefreshPull(t *testing.T) {
	c, model, place, pi, si := staleHeir(t, 7721)
	root := place.SubtreeRoot()
	var mu sync.Mutex
	fetched := 0
	c.Nodes[si].Repl().SetFetchHook(func(holder simnet.Addr, _ int) {
		mu.Lock()
		defer mu.Unlock()
		if fetched++; fetched == 1 && holder == place.Node {
			c.Fail(pi)
		}
	})
	c.Nodes[pi].SyncReplicas()
	c.Nodes[si].Repl().SetFetchHook(nil)
	if fetched < 2 {
		t.Fatalf("the heir made %d CHUNK_FETCH round trips, want the crash to cut a longer pull short", fetched)
	}

	td := c.Nodes[si].Repl().DigestLocal(core.RepPath(root), false)
	if !td.Exists || !td.Flag {
		t.Fatalf("the heir's copy after the cut pull answers %+v, want it flagged", td)
	}

	c.Stabilize()
	fresh := joinPhys(place.PhysDir(), "fresh.bin")
	want, _ := model.FileContent("/pjob/fresh.bin")
	if got, err := c.Nodes[si].Store().ReadFile(fresh); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the promoted heir holds %d bytes of fresh.bin (%v), want the %d acknowledged", len(got), err, len(want))
	}
	if td := c.Nodes[si].Repl().DigestLocal(root, false); !td.Exists || td.Flag {
		t.Fatalf("the promoted heir's primary copy answers %+v, want it settled", td)
	}
	if got, _, err := c.Mount(si).ReadFile("/pjob/fresh.bin"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read fresh.bin after the promote: %d bytes, %v", len(got), err)
	}

	if err := c.Revive(pi); err != nil {
		t.Fatalf("revive primary: %v", err)
	}
	if err := model.Check(c.Mount(0)); err != nil {
		t.Fatalf("post-heal oracle check: %v", err)
	}
	if err := ReplicaConvergence(c, model, 3); err != nil {
		t.Fatalf("post-heal replica convergence: %v", err)
	}
}

// TestScenarioPartitionedPullEditsNothing: a one-way partition blocks the
// stale heir from reaching the primary, while the primary still reaches the
// heir. The primary's Sync asks the heir to pull; its first listing of the
// primary's copy fails, and the heir's copy stays as it was — settled,
// unflagged, at its version. Once the partition heals, the next Sync
// converges it.
func TestScenarioPartitionedPullEditsNothing(t *testing.T) {
	c, model, place, pi, si := staleHeir(t, 7723)
	root := place.SubtreeRoot()
	heirRep := c.Nodes[si].Repl()
	before, ver := heirRep.DigestLocal(core.RepPath(root), true), heirRep.VerOf(root)
	primary, next := place.Node, c.Nodes[si].Addr()
	c.Net.SetPartition(func(a, b simnet.Addr) bool { return a == next && b == primary })

	c.Nodes[pi].SyncReplicas()

	after := heirRep.DigestLocal(core.RepPath(root), true)
	if !after.Exists || after.Flag || after.Root != before.Root || heirRep.VerOf(root) != ver {
		t.Fatalf("the heir's copy after a pull that could not list the source: %+v at version %d, want it untouched (%x at %d)",
			after, heirRep.VerOf(root), before.Root, ver)
	}

	c.Net.SetPartition(nil)
	c.Nodes[pi].SyncReplicas()
	want := c.Nodes[pi].Repl().DigestLocal(root, true)
	if got := heirRep.DigestLocal(core.RepPath(root), true); got.Flag || got.Root != want.Root {
		t.Fatalf("the heir's copy after the healed sync: %+v, want the primary's %x", got, want.Root)
	}
	c.Stabilize()
	if err := ReplicaConvergence(c, model, 3); err != nil {
		t.Fatalf("replica convergence: %v", err)
	}
}
