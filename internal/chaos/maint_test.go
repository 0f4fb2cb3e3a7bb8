package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/maint"
	"repro/internal/repl"
	"repro/internal/simnet"
)

// lcgFill fills b with a deterministic pseudo-random byte stream.
func lcgFill(b []byte, seed uint64) {
	s := seed
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = byte(s >> 33)
	}
}

// sumCounter totals one named counter across the cluster.
func sumCounter(c *cluster.Cluster, name string) uint64 {
	var total uint64
	for _, nd := range c.Nodes {
		total += nd.Obs().Counter(name).Load()
	}
	return total
}

// tickAll runs one maintenance round on every live node in index order —
// the same deterministic schedule the runner uses.
func tickAll(c *cluster.Cluster) {
	for _, nd := range c.Nodes {
		if !c.Net.IsDown(nd.Addr()) {
			nd.Maint().Tick()
		}
	}
}

// TestScenarioScrubRepairsSilentCorruption: silent bit-rot on both the
// primary and a replica copy of a file fires no mutation notification, so
// every memoized digest keeps describing the intended bytes and no
// foreground mechanism — including full replica-sync rounds — ever notices.
// The scrub's file verification must detect the mismatch against the cached
// manifests and rebuild both copies within a bounded number of rounds; with
// the scrub never ticked, the corruption provably persists.
func TestScenarioScrubRepairsSilentCorruption(t *testing.T) {
	const (
		seed     = 4242
		replicas = 2
		blobSize = 256 << 10
	)
	c, err := cluster.New(cluster.Options{
		Nodes: 6,
		Seed:  seed,
		Config: core.Config{
			Replicas:     replicas,
			AttrCacheTTL: -1,
			NameCacheTTL: -1,
			MaintScrub:   true,
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
	write := func(p string, data []byte) {
		t.Helper()
		if _, err := m.WriteFile(p, data); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		model.WriteFile(p, data)
	}
	blob := make([]byte, blobSize)
	lcgFill(blob, seed)
	for i := 0; i < 3; i++ {
		write(fmt.Sprintf("/scrub/f%02d", i), []byte(fmt.Sprintf("payload-%02d", i)))
	}
	write("/scrub/blob.bin", blob)
	write("/other/seed", []byte("bystander"))
	c.Stabilize()
	// One more edit so the replicas pull new manifests, then two warm
	// scrub rounds so every holder has verified (and so baselined) its copy
	// before the fault lands.
	edited := append([]byte(nil), blob...)
	copy(edited[blobSize/3:], "EDITED-SIXTEEN-B")
	write("/scrub/blob.bin", edited)
	c.Stabilize()
	tickAll(c)
	tickAll(c)
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("replicas not converged before fault: %v", err)
	}

	place, _, err := c.Nodes[0].ResolvePath("/scrub")
	if err != nil {
		t.Fatal(err)
	}
	pi := byAddr[place.Node]
	cands := c.Nodes[pi].Overlay().ReplicaCandidates(replicas)
	if len(cands) < 1 {
		t.Fatal("primary has no replica candidates")
	}
	ci := byAddr[cands[0].Addr]
	blobPhys := joinPhys(place.PhysDir(), "blob.bin")

	// Flip one byte of the primary copy and, in a different chunk, one byte
	// of a replica copy. No mutation notification fires.
	if err := c.Nodes[pi].Store().(localfs.Corrupter).CorruptFile(blobPhys, 1024); err != nil {
		t.Fatalf("corrupt primary: %v", err)
	}
	if err := c.Nodes[ci].Store().(localfs.Corrupter).CorruptFile(core.RepPath(blobPhys), -2048); err != nil {
		t.Fatalf("corrupt replica: %v", err)
	}

	intact := func(i int, phys string) bool {
		got, err := c.Nodes[i].Store().ReadFile(phys)
		return err == nil && bytes.Equal(got, edited)
	}

	// Scrub disabled (never ticked): full foreground replica-sync rounds run
	// and the divergence survives them — the memoized digests still agree.
	c.Stabilize()
	c.Stabilize()
	if intact(pi, blobPhys) || intact(ci, core.RepPath(blobPhys)) {
		t.Fatal("corruption healed without the scrub: the fault injection is not silent")
	}

	// Scrub enabled: bounded rounds to repair both copies.
	const maxRounds = 12
	repairedIn := -1
	for round := 1; round <= maxRounds; round++ {
		tickAll(c)
		if intact(pi, blobPhys) && intact(ci, core.RepPath(blobPhys)) {
			repairedIn = round
			break
		}
	}
	if repairedIn < 0 {
		t.Fatalf("scrub did not repair the corruption within %d rounds", maxRounds)
	}
	t.Logf("scrub repaired both copies in %d rounds", repairedIn)
	if div := sumCounter(c, "maint.scrub.divergences"); div < 2 {
		t.Fatalf("maint.scrub.divergences = %d, want >= 2", div)
	}
	if rep := sumCounter(c, "maint.scrub.repaired"); rep < 2 {
		t.Fatalf("maint.scrub.repaired = %d, want >= 2", rep)
	}

	if err := model.Check(m); err != nil {
		t.Fatalf("post-repair oracle check: %v", err)
	}
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("post-repair replica convergence: %v", err)
	}
}

// TestScenarioScrubAtKZeroFetchesFromNoNeighbour: with no replicas
// (Config.Replicas -1, so K = 0) a rotted owner file has no copy anywhere
// else. The scrub takes K from the replication engine, so the repair names
// no helper: it fails without a CHUNK_FETCH to a leaf-set neighbour that
// holds nothing, and the divergence is counted.
func TestScenarioScrubAtKZeroFetchesFromNoNeighbour(t *testing.T) {
	const seed = 5151
	c, err := cluster.New(cluster.Options{
		Nodes: 4,
		Seed:  seed,
		Config: core.Config{
			Replicas:     -1,
			AttrCacheTTL: -1,
			NameCacheTTL: -1,
			MaintScrub:   true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 64<<10)
	lcgFill(blob, seed)
	if _, err := c.Mount(0).WriteFile("/solo/blob.bin", blob); err != nil {
		t.Fatal(err)
	}
	c.Stabilize()
	tickAll(c) // baseline the owner's manifest
	place, _, err := c.Nodes[0].ResolvePath("/solo")
	if err != nil {
		t.Fatal(err)
	}
	var owner *core.Node
	for _, nd := range c.Nodes {
		if nd.Addr() == place.Node {
			owner = nd
		}
	}
	if len(owner.Overlay().ReplicaCandidates(1)) == 0 {
		t.Fatal("the owner has no leaf-set neighbour")
	}
	fetches := 0
	owner.Repl().SetFetchHook(func(simnet.Addr, int) { fetches++ })
	if err := owner.Store().(localfs.Corrupter).CorruptFile(joinPhys(place.PhysDir(), "blob.bin"), 1024); err != nil {
		t.Fatal(err)
	}
	before := owner.Obs().Counter("maint.scrub.divergences").Load()
	owner.Maint().Tick()
	if fetches != 0 {
		t.Fatalf("%d CHUNK_FETCH round trips at K = 0, want none", fetches)
	}
	if owner.Obs().Counter("maint.scrub.divergences").Load() == before {
		t.Fatal("the rotted file was not verified")
	}
}

// TestScenarioScrubRepairsLastRootOfOverBudgetNode: one node tracks more
// records than a round's token budget pays record steps for (one token per
// candidate), owns the last of them in root order, and two silent faults
// land on that root's replica on its last candidate.
// One file's digest memo there is warm, so only that candidate's own file
// verification can see the rot; it rebuilds the file with the gatherer, from
// blocks the owner serves. The other file was rewritten just before the
// fault, so its memo is cold and the candidate's digest reports the rot;
// only the owner's exchange, once its cursor reaches the last record,
// repairs that one. Both must be repaired within DESIGN §14's coverage
// bound, ceil(records / floor((TokensPerTick − VerifyFiles) / K)) rounds.
func TestScenarioScrubRepairsLastRootOfOverBudgetNode(t *testing.T) {
	const (
		seed     = 6161
		replicas = 3
		fileSize = 96 << 10
	)
	c, err := cluster.New(cluster.Options{
		Nodes: 4,
		Seed:  seed,
		Config: core.Config{
			Replicas:     replicas,
			AttrCacheTTL: -1,
			NameCacheTTL: -1,
			MaintScrub:   true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	byAddr := map[simnet.Addr]*core.Node{}
	for _, nd := range c.Nodes {
		byAddr[nd.Addr()] = nd
	}
	m := c.Mount(0)
	model := NewOracle()

	// Empty level-1 directories until one node owns enough roots to exceed
	// the budget; only the last of them will hold files, so every node's
	// file-verification window covers its files each round.
	owned := map[simnet.Addr][]string{}
	var owner simnet.Addr
	for i := 0; owner == ""; i++ {
		if i == 400 {
			t.Fatal("no node came to own enough roots")
		}
		dir := fmt.Sprintf("/d%03d", i)
		vh, _, err := m.MkdirAll(dir)
		if err != nil {
			t.Fatalf("mkdir %s: %v", dir, err)
		}
		m.Forget(vh)
		model.MkdirAll(dir)
		pl, _, err := c.Nodes[0].ResolvePath(dir)
		if err != nil {
			t.Fatal(err)
		}
		owned[pl.Node] = append(owned[pl.Node], dir)
		if len(owned[pl.Node])*replicas > maint.TokensPerTick {
			owner = pl.Node
		}
	}
	lastDir := owned[owner][len(owned[owner])-1] // names sort in creation order
	warm := make([]byte, fileSize)
	lcgFill(warm, seed)
	cold := make([]byte, fileSize)
	lcgFill(cold, seed+1)
	for name, data := range map[string][]byte{"warm.bin": warm, "cold.bin": cold} {
		if _, err := m.WriteFile(lastDir+"/"+name, data); err != nil {
			t.Fatal(err)
		}
		model.WriteFile(lastDir+"/"+name, data)
	}
	c.Stabilize()
	tickAll(c)
	tickAll(c)
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("replicas not converged before fault: %v", err)
	}

	// The owner's exchange steps every record it tracks, owned or held, and
	// each costs one token per candidate.
	on := byAddr[owner]
	cands := on.Repl().Candidates()
	tracks := on.Repl().Tracks()
	records, last := len(tracks), tracks[len(tracks)-1].Root
	if records*len(cands) <= maint.TokensPerTick {
		t.Fatalf("owner tracks %d records at %d tokens each, want more than %d tokens' worth", records, len(cands), maint.TokensPerTick)
	}
	place, _, err := c.Nodes[0].ResolvePath(lastDir)
	if err != nil {
		t.Fatal(err)
	}
	if place.Node != owner || place.SubtreeRoot() != last {
		t.Fatalf("%s is %s on %s, want the owner's last root %s", lastDir, place.SubtreeRoot(), place.Node, last)
	}
	lastCand := slices.Max(cands)
	rep := byAddr[lastCand]
	warmPhys := core.RepPath(joinPhys(place.PhysDir(), "warm.bin"))
	coldPhys := core.RepPath(joinPhys(place.PhysDir(), "cold.bin"))

	// Rewrite cold.bin (the mirror drops its memo on the candidate), then rot
	// one byte of each file there. No mutation notification fires.
	cold2 := make([]byte, fileSize)
	lcgFill(cold2, seed+2)
	if _, err := m.WriteFile(lastDir+"/cold.bin", cold2); err != nil {
		t.Fatal(err)
	}
	model.WriteFile(lastDir+"/cold.bin", cold2)
	intact := func(phys string, want []byte) bool {
		got, err := rep.Store().ReadFile(phys)
		return err == nil && bytes.Equal(got, want)
	}
	if !intact(coldPhys, cold2) {
		t.Fatal("the rewrite did not reach the last candidate")
	}
	repairedAt := func(nd *core.Node) uint64 { return nd.Obs().Counter("maint.scrub.repaired").Load() }
	ownerBefore, repBefore := repairedAt(on), repairedAt(rep)
	rot := rep.Store().(localfs.Corrupter)
	if err := rot.CorruptFile(warmPhys, 4096); err != nil {
		t.Fatal(err)
	}
	if err := rot.CorruptFile(coldPhys, -4096); err != nil {
		t.Fatal(err)
	}

	perRound := (maint.TokensPerTick - maint.VerifyFiles) / max(len(cands), 1)
	bound := (records + perRound - 1) / perRound
	repairedIn := -1
	for round := 1; round <= bound; round++ {
		tickAll(c)
		if intact(warmPhys, warm) && intact(coldPhys, cold2) {
			repairedIn = round
			break
		}
	}
	if repairedIn < 0 {
		t.Fatalf("scrub did not repair the last root's replica within %d rounds (%d records)", bound, records)
	}
	t.Logf("%d records on the owner: repaired in %d of %d rounds", records, repairedIn, bound)
	if repairedAt(rep) == repBefore {
		t.Fatal("the candidate's file verification repaired nothing: warm.bin was not rebuilt by the gatherer")
	}
	if repairedAt(on) == ownerBefore {
		t.Fatal("the owner's exchange repaired nothing: cold.bin was not pulled from the last record")
	}
	if err := model.Check(m); err != nil {
		t.Fatalf("post-repair oracle check: %v", err)
	}
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("post-repair replica convergence: %v", err)
	}
}

// rebalCluster builds the skewed-capacity fixture for the rebalancer tests:
// one node's contributed partition is small enough that the /big hierarchy
// pushes it over the high-water mark, every other node has room to spare.
// moverCap <= 0 builds the placement-probe cluster with uniform unlimited
// capacity (placement depends only on the seed, not on capacities).
// seedDirs names the small bystander hierarchies; the fault run picks names
// the overloaded node does not own, so /big is its only migration victim.
func rebalCluster(t *testing.T, seed uint64, mover int, moverCap int64, seedDirs []string) (*cluster.Cluster, *Oracle, []byte) {
	t.Helper()
	const nodes = 8
	var caps []int64
	if moverCap > 0 {
		caps = make([]int64, nodes)
		for i := range caps {
			caps[i] = 1 << 30
		}
		caps[mover] = moverCap
	}
	c, err := cluster.New(cluster.Options{
		Nodes:      nodes,
		Seed:       seed,
		Capacities: caps,
		Config: core.Config{
			Replicas:     2,
			AttrCacheTTL: -1,
			NameCacheTTL: -1,
			// Foreground mkdir redirection stays out of the way so placement
			// is identical with and without the capacity skew.
			UtilizationLimit: 0.99,
			MaintScrub:       true,
			MaintRebalance:   true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	model := NewOracle()
	write := func(p string, data []byte) {
		t.Helper()
		if _, err := m.WriteFile(p, data); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		model.WriteFile(p, data)
	}
	blob := make([]byte, 3<<20+512<<10) // 3.5 MiB: 87% of a 4 MiB partition
	lcgFill(blob, seed)
	write("/big/blob.bin", blob)
	write("/big/readme", []byte("large hierarchy"))
	for i, d := range seedDirs {
		write(fmt.Sprintf("/%s/seed", d), []byte(fmt.Sprintf("seed-%d", i)))
	}
	c.Stabilize()
	return c, model, blob
}

// armedFlagRoot returns the storage root at nd carrying an armed
// MIGRATION_NOT_COMPLETE sentinel in the primary namespace ("" if none).
func armedFlagRoot(nd *core.Node) string {
	found := ""
	nd.Store().Walk("/", func(p string, a localfs.Attr, _ string) error {
		if a.Type == localfs.TypeRegular && path.Base(p) == repl.MigrationFlag &&
			!strings.HasPrefix(p, repl.RepArea) {
			found = path.Dir(p)
		}
		return nil
	})
	return found
}

// TestScenarioRebalanceTargetCrashMidMove: the rebalancer picks a migration
// target, the target arms the MIGRATION_NOT_COMPLETE flag as it starts
// pulling, and dies mid-pull. The move must abort with the flag still armed
// on the partial copy, the level-1 link still naming the source, and every
// acknowledged byte readable at the source. After the target revives (purging the
// orphan), the next maintenance round re-runs the migration — re-arming the
// flag on a fresh root — and the cluster converges with utilization shed.
func TestScenarioRebalanceTargetCrashMidMove(t *testing.T) {
	const (
		seed     = 5151
		moverCap = 4 << 20
	)

	// Probe run: placement (and so the overloaded owner of /big) is a pure
	// function of the seed, independent of the capacity skew.
	probe, _, _ := rebalCluster(t, seed, -1, 0, []string{"d0", "d1"})
	place, _, err := probe.Nodes[0].ResolvePath("/big")
	if err != nil {
		t.Fatal(err)
	}
	mover := -1
	for i, nd := range probe.Nodes {
		if nd.Addr() == place.Node {
			mover = i
		}
	}
	if mover < 0 {
		t.Fatalf("owner of /big (%s) not found", place.Node)
	}
	// Bystander names the overloaded node does not own, so /big is its only
	// eligible victim and the runs below see exactly one move.
	var seedDirs []string
	for i := 0; len(seedDirs) < 2 && i < 32; i++ {
		name := fmt.Sprintf("d%d", i)
		res, err := probe.Nodes[0].Overlay().Route(core.Key(name))
		if err != nil {
			t.Fatal(err)
		}
		if res.Node.Addr != place.Node {
			seedDirs = append(seedDirs, name)
		}
	}
	if len(seedDirs) < 2 {
		t.Fatal("could not find bystander names off the overloaded node")
	}

	// Discovery run: same seed with the skew in place; one clean maintenance
	// pass must migrate /big off the overloaded node. Records the
	// deterministic destination for the fault run.
	disc, discModel, _ := rebalCluster(t, seed, mover, moverCap, seedDirs)
	moverAddr := disc.Nodes[mover].Addr()
	if u := disc.Nodes[mover].Store().Utilization(); u < 0.8 {
		t.Fatalf("mover utilization %.2f, want >= 0.80 (fixture too small)", u)
	}
	tickAll(disc)
	if moves := disc.Nodes[mover].Obs().Counter("maint.rebalance.moves").Load(); moves != 1 {
		t.Fatalf("discovery run made %d moves, want 1", moves)
	}
	disc.Stabilize()
	// The oracle reads through a mount: the first read through the stale
	// resolver entry hits the relocated root's special link, revalidates, and
	// lands on the new holder — the client-transparency half of the move.
	if err := discModel.Check(disc.Mount(0)); err != nil {
		t.Fatalf("discovery run oracle check: %v", err)
	}
	pl, _, err := disc.Nodes[0].ResolvePath("/big")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Node == moverAddr {
		t.Fatal("discovery run did not relocate /big")
	}
	destAddr := pl.Node

	// Fault run: identical cluster, but once the migration flag is up on the
	// destination every further kosha exchange between it and the mover is
	// dropped — the target's koshad dies mid-move with the pull half done.
	c, model, blob := rebalCluster(t, seed, mover, moverCap, seedDirs)
	dest := -1
	for i, nd := range c.Nodes {
		if nd.Addr() == destAddr {
			dest = i
		}
	}
	if dest < 0 {
		t.Fatalf("destination %s not in cluster", destAddr)
	}
	c.Net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		between := (from == moverAddr && to == destAddr) || (from == destAddr && to == moverAddr)
		if between && service == core.KoshaService && armedFlagRoot(c.Nodes[dest]) != "" {
			return simnet.LinkFault{Drop: true}
		}
		return simnet.LinkFault{}
	})
	tickAll(c)

	// The move must have aborted: flag armed on the partial copy, no
	// ownership flip, the byte count untouched.
	partial := armedFlagRoot(c.Nodes[dest])
	if partial == "" {
		t.Fatal("no armed migration flag at the target: the fault never fired")
	}
	if moves := c.Nodes[mover].Obs().Counter("maint.rebalance.moves").Load(); moves != 0 {
		t.Fatalf("aborted migration was counted as %d completed moves", moves)
	}
	if pl, _, err := c.Nodes[0].ResolvePath("/big"); err != nil {
		t.Fatalf("resolve /big after abort: %v", err)
	} else if pl.Node != moverAddr {
		t.Fatalf("/big moved to %s despite the aborted pull", pl.Node)
	}

	// Now the target dies outright. Acknowledged data stays readable at the
	// source through any live client.
	c.Fail(dest)
	c.Stabilize()
	reader := 0
	for reader == dest || reader == mover {
		reader++
	}
	got, _, err := c.Mount(reader).ReadFile("/big/blob.bin")
	if err != nil {
		t.Fatalf("read /big/blob.bin with target down: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("acknowledged blob corrupted after aborted migration (%d bytes)", len(got))
	}

	// Revive (purging the orphaned partial copy), heal, and let maintenance
	// retry: the flag re-arms on a fresh root and the move completes.
	c.Net.SetFaults(nil)
	if err := c.Revive(dest); err != nil {
		t.Fatalf("revive target: %v", err)
	}
	c.Stabilize()
	moved := false
	for round := 0; round < 4 && !moved; round++ {
		tickAll(c)
		moved = c.Nodes[mover].Obs().Counter("maint.rebalance.moves").Load() >= 1
	}
	if !moved {
		t.Fatal("rebalancer never retried the migration after the target revived")
	}
	c.Stabilize()
	// Oracle reads first: they revalidate node 0's stale resolver entries
	// through the relocated root's link, so the resolve below sees the move.
	if err := model.Check(c.Mount(0)); err != nil {
		t.Fatalf("post-retry oracle check: %v", err)
	}
	pl2, _, err := c.Nodes[0].ResolvePath("/big")
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Node == moverAddr {
		t.Fatal("retried migration did not relocate /big")
	}
	if u := c.Nodes[mover].Store().Utilization(); u >= 0.8 {
		t.Fatalf("mover still at %.2f utilization after the move", u)
	}
	if err := ReplicaConvergence(c, model, 2); err != nil {
		t.Fatalf("post-retry replica convergence: %v", err)
	}
}

// TestRebalanceRelinkContinuesTheHomesRecord: the rebalancer moves the
// unsalted home /big off its overloaded owner, and the relink replaces the
// home in place by a special link. The entry at /big stays one record with
// one version chain: on every holder it is live, at a version above the
// home's last, and its copy is a link. A later promote on a replica (what a
// level-1 probe at a new owner sends, version 0) keeps the chain.
func TestRebalanceRelinkContinuesTheHomesRecord(t *testing.T) {
	const seed = 5151
	probe, _, _ := rebalCluster(t, seed, -1, 0, nil)
	place, _, err := probe.Nodes[0].ResolvePath("/big")
	if err != nil {
		t.Fatal(err)
	}
	mover := slices.IndexFunc(probe.Nodes, func(nd *core.Node) bool { return nd.Addr() == place.Node })
	c, model, _ := rebalCluster(t, seed, mover, 4<<20, nil)
	homeVer := c.Nodes[mover].Repl().VerOf("/big")
	tickAll(c)
	if moves := sumCounter(c, "maint.rebalance.moves"); moves != 1 {
		t.Fatalf("%d moves, want 1", moves)
	}
	c.Stabilize()
	if err := model.Check(c.Mount(0)); err != nil {
		t.Fatal(err)
	}
	var replica *repl.Engine
	holders := 0
	for _, nd := range c.Nodes {
		rep := nd.Repl()
		rec, ok := record(rep, "/big")
		if !ok {
			continue
		}
		holders++
		p, held := rep.LocalTreePath("/big")
		a, err := nd.Store().LookupPath(p)
		if rec.Dead || rec.Ver <= homeVer || !held || err != nil || a.Type != localfs.TypeSymlink {
			t.Errorf("%s: record %+v (home's last version %d), copy at %q is %v (err %v): want a live record above the home's chain and a link",
				nd.Addr(), rec, homeVer, p, a.Type, err)
		}
		if p == repl.RepPath("/big") {
			replica = rep
		}
	}
	if holders < 3 || replica == nil {
		t.Fatalf("%d holders of /big, replica found: %v; want the owner and its 2 replicas", holders, replica != nil)
	}
	before := replica.VerOf("/big")
	if !replica.PromoteLocal(repl.Track{PN: "big", Root: "/big"}) {
		t.Fatal("the promote surfaced nothing")
	}
	if rec, _ := record(replica, "/big"); rec.Ver != before || rec.Dead {
		t.Errorf("after a promote the record is %+v, want live at %d", rec, before)
	}
}

// record is rep's record for root.
func record(rep *repl.Engine, root string) (repl.Track, bool) {
	tracks := rep.Tracks()
	i := slices.IndexFunc(tracks, func(tr repl.Track) bool { return tr.Root == root })
	if i < 0 {
		return repl.Track{}, false
	}
	return tracks[i], true
}

// TestMaintScrubSoak is the gated long-run scrub soak: a sustained loop of
// seeded silent-corruption injections against primary and replica copies,
// each batch repaired by a bounded number of maintenance rounds, with the
// oracle and replica-convergence bars held throughout. Opt in with
// KOSHA_MAINT_SOAK=1 (e.g. via `make soak`); KOSHA_MAINT_SEED pins the
// seed, otherwise it derives from the clock and is logged so any failure
// replays from one number.
func TestMaintScrubSoak(t *testing.T) {
	if os.Getenv("KOSHA_MAINT_SOAK") == "" {
		t.Skip("set KOSHA_MAINT_SOAK=1 to enable the scrub soak")
	}
	seed := uint64(time.Now().UnixNano())
	if v := os.Getenv("KOSHA_MAINT_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad KOSHA_MAINT_SEED %q: %v", v, err)
		}
		seed = n
	}
	t.Logf("scrub soak seed %d (replay: KOSHA_MAINT_SOAK=1 KOSHA_MAINT_SEED=%d)", seed, seed)

	const (
		replicas  = 2
		trees     = 6
		filesPer  = 3
		batches   = 10
		perBatch  = 3  // corruptions injected per batch
		maxRepair = 15 // scrub rounds allowed to clear one batch
	)
	rng := seed
	next := func() uint64 { return id.SplitMix64(&rng) }

	c, err := cluster.New(cluster.Options{
		Nodes: 10,
		Seed:  seed,
		Config: core.Config{
			Replicas:     replicas,
			AttrCacheTTL: -1,
			NameCacheTTL: -1,
			MaintScrub:   true,
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
	var files []string
	for tr := 0; tr < trees; tr++ {
		for f := 0; f < filesPer; f++ {
			p := fmt.Sprintf("/soak%02d/f%02d", tr, f)
			data := make([]byte, 2<<10+(tr*filesPer+f)*11<<10)
			lcgFill(data, seed+uint64(tr*filesPer+f))
			if _, err := m.WriteFile(p, data); err != nil {
				t.Fatalf("write %s: %v", p, err)
			}
			model.WriteFile(p, data)
			files = append(files, p)
		}
	}
	c.Stabilize()
	tickAll(c)
	tickAll(c)
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("baseline convergence: %v", err)
	}

	for batch := 0; batch < batches; batch++ {
		for i := 0; i < perBatch; i++ {
			f := files[next()%uint64(len(files))]
			place, _, err := c.Nodes[0].ResolvePath(path.Dir(f))
			if err != nil {
				t.Fatalf("batch %d: resolve %s: %v", batch, f, err)
			}
			phys := joinPhys(place.PhysDir(), path.Base(f))
			victim, vphys := byAddr[place.Node], phys
			if cands := c.Nodes[victim].Overlay().ReplicaCandidates(replicas); len(cands) > 0 && next()%2 == 0 {
				victim, vphys = byAddr[cands[next()%uint64(len(cands))].Addr], core.RepPath(phys)
			}
			if err := c.Nodes[victim].Store().(localfs.Corrupter).CorruptFile(vphys, int64(next()%uint64(32<<10))); err != nil {
				t.Fatalf("batch %d: corrupt %s on node %d: %v", batch, vphys, victim, err)
			}
		}
		repaired := false
		for round := 0; round < maxRepair && !repaired; round++ {
			tickAll(c)
			repaired = ReplicaConvergence(c, model, replicas) == nil
		}
		if !repaired {
			t.Fatalf("batch %d: scrub did not reconverge within %d rounds (seed %d)", batch, maxRepair, seed)
		}
	}

	if err := model.Check(m); err != nil {
		t.Fatalf("final oracle check: %v", err)
	}
	t.Logf("scrub soak: %d rounds, %d divergences, %d repaired, %d bad blocks",
		sumCounter(c, "maint.scrub.rounds"), sumCounter(c, "maint.scrub.divergences"),
		sumCounter(c, "maint.scrub.repaired"), sumCounter(c, "maint.scrub.badblocks"))
	if rep := sumCounter(c, "maint.scrub.repaired"); rep == 0 {
		t.Fatalf("soak injected %d corruptions but repaired none", batches*perBatch)
	}
}

// TestMaintDeterministicReplay: with both maintenance loops enabled and
// ticked every chaos step, the whole run — workload, schedule, maintenance
// RPCs, and the maintenance counters folded into the report — replays
// identically from the seed.
func TestMaintDeterministicReplay(t *testing.T) {
	opts := Options{
		Seed:           2026,
		Steps:          Random(24),
		Maint:          true,
		MaintRebalance: true,
	}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged with maintenance on:\n  run1: %+v\n  run2: %+v", a, b)
	}
	if a.ScrubRounds == 0 {
		t.Fatal("maintenance never ran: no scrub rounds recorded")
	}
}
