package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
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
	// One more edit so the delta push renegotiates manifests, then two warm
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

// TestScenarioScrubRepairsLastRootOfOverBudgetNode: one node owns more
// (root, candidate) pairs than a round's token budget, and two silent faults
// land on the replica of its last root in pair order, on the last candidate.
// One file's digest memo there is warm, so only that candidate's own file
// verification can see the rot; it rebuilds the file with the gatherer, from
// blocks the owner serves. The other file was rewritten just before the
// fault, so its memo is cold and the candidate's digest reports the rot;
// only the owner's digest exchange, once its cursor reaches the last pair,
// repairs that one. Both must be repaired within ceil(pairs/64) + 1 rounds.
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

	// The pairs the owner's exchange visits, counted the way its scrub does.
	on := byAddr[owner]
	cands := on.Overlay().ReplicaCandidates(replicas)
	roots, last := 0, ""
	for _, tr := range on.Repl().Tracks() {
		if owns, _ := on.Overlay().EnsureRootFor(core.Key(tr.PN)); owns && !tr.Dead {
			roots++
			last = tr.Root
		}
	}
	pairs := roots * len(cands)
	if pairs <= maint.TokensPerTick {
		t.Fatalf("owner has %d pairs, want more than %d", pairs, maint.TokensPerTick)
	}
	place, _, err := c.Nodes[0].ResolvePath(lastDir)
	if err != nil {
		t.Fatal(err)
	}
	if place.Node != owner || place.SubtreeRoot() != last {
		t.Fatalf("%s is %s on %s, want the owner's last root %s", lastDir, place.SubtreeRoot(), place.Node, last)
	}
	lastCand := cands[0].Addr
	for _, cd := range cands {
		if cd.Addr > lastCand {
			lastCand = cd.Addr
		}
	}
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

	bound := (pairs+maint.TokensPerTick-1)/maint.TokensPerTick + 1
	repairedIn := -1
	for round := 1; round <= bound; round++ {
		tickAll(c)
		if intact(warmPhys, warm) && intact(coldPhys, cold2) {
			repairedIn = round
			break
		}
	}
	if repairedIn < 0 {
		t.Fatalf("scrub did not repair the last root's replica within %d rounds (%d pairs)", bound, pairs)
	}
	t.Logf("%d pairs on the owner: repaired in %d of %d rounds", pairs, repairedIn, bound)
	if repairedAt(rep) == repBefore {
		t.Fatal("the candidate's file verification repaired nothing: warm.bin was not rebuilt by the gatherer")
	}
	if repairedAt(on) == ownerBefore {
		t.Fatal("the owner's exchange repaired nothing: cold.bin was not pushed from the last pair")
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
// target, arms the MIGRATION_NOT_COMPLETE flag there, and the target dies
// mid-push. The move must abort with the flag still armed on the partial
// copy, the level-1 link still naming the source, and every acknowledged
// byte readable at the source. After the target revives (purging the
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

	// Fault run: identical cluster, but once the migration flag lands on the
	// destination every further kosha exchange from the mover to it is
	// dropped — the target's koshad dies mid-move with the push half done.
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
		if from == moverAddr && to == destAddr && service == core.KoshaService &&
			armedFlagRoot(c.Nodes[dest]) != "" {
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
		t.Fatalf("/big moved to %s despite the aborted push", pl.Node)
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
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}

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
