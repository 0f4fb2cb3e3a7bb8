package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"path"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// dbgHook, when set by a test, receives the cluster just before Run returns
// an invariant-violation error, for post-mortem state dumps.
var dbgHook func(*cluster.Cluster)

// Options configures one harness run. Everything observable — node
// identifiers, workload mix, randomized schedule, injector coin flips, retry
// jitter inside the nodes — derives from Seed, so a failing run reproduces
// from the one number the error message carries.
type Options struct {
	Nodes             int   // cluster size (default 8)
	Replicas          int   // K (default 2); pass -1 for none
	DistributionLevel int   // Kosha distribution level (default 1)
	Seed              int64 // master seed; logged on failure

	// Mounts lists the node indices hosting client mounts. These nodes are
	// protected from crash/partition/degradation: a dead client machine is
	// an NFS client failure, not a Kosha failure mode. Default {0}.
	Mounts []int

	// Steps is the scripted schedule. Nil means RandomSteps randomized steps
	// drawn from the seeded generator.
	Steps       []Step
	RandomSteps int // default 40 (used only when Steps == nil)

	OpsPerStep     int // workload operations between chaos steps (default 4)
	MinLive        int // floor on live nodes (default Replicas+2)
	FullCheckEvery int // full listing check cadence in steps (default 8)

	// WriteBackBytes enables client write-back buffering (core.Config's
	// knob). Mount.WriteFile flushes before acknowledging, so the oracle's
	// acked-history invariants are judged on durable data, not buffers.
	WriteBackBytes int

	// Maint enables the background maintenance subsystem on every node: the
	// anti-entropy scrub always, plus the capacity rebalancer when
	// MaintRebalance is also set. The runner ticks every live node once per
	// chaos step in index order, so maintenance traffic interleaves with the
	// workload as one seed-determined sequence.
	Maint          bool
	MaintRebalance bool

	// Logf, when set, receives the trace live (e.g. t.Logf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if len(o.Mounts) == 0 {
		o.Mounts = []int{0}
	}
	if o.RandomSteps == 0 {
		o.RandomSteps = 40
	}
	if o.OpsPerStep == 0 {
		o.OpsPerStep = 4
	}
	if o.MinLive == 0 {
		o.MinLive = o.Replicas + 2
		if o.MinLive < 3 {
			o.MinLive = 3
		}
	}
	if o.FullCheckEvery == 0 {
		o.FullCheckEvery = 8
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Report summarizes a run for availability accounting and failure triage.
type Report struct {
	Seed       int64
	Ops        int // workload operations issued
	FailedOps  int // first attempts that failed (availability misses)
	CheckReads int // oracle read-backs performed during checks
	CheckMiss  int // oracle read-backs lost to injected faults (lenient mode)
	Applied    int // chaos steps applied
	Skipped    int // chaos steps skipped by guards
	Trace      []string

	// Maintenance totals across all nodes (populated when Options.Maint is
	// set): scrub rounds run, divergences detected and repaired, rebalance
	// moves completed and bytes migrated. Part of the report so determinism
	// tests replay maintenance activity along with the workload.
	ScrubRounds    uint64
	ScrubDiverged  uint64
	ScrubRepaired  uint64
	RebalanceMoves uint64
	RebalanceBytes uint64
}

// Availability is the fraction of workload operations whose first attempt
// succeeded.
func (r *Report) Availability() float64 {
	if r.Ops == 0 {
		return 1
	}
	return 1 - float64(r.FailedOps)/float64(r.Ops)
}

// Run builds a cluster, drives the seeded workload interleaved with the
// fault schedule, checks the oracle invariants after every step, then
// quiesces and verifies full convergence (contents, listings, ghosts, and
// per-subtree replica counts back at K). Any returned error embeds the seed.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{Seed: o.Seed}
	fail := func(format string, args ...any) (*Report, error) {
		return rep, fmt.Errorf("chaos seed %d: %s", o.Seed, fmt.Sprintf(format, args...))
	}

	// Client metadata caches are wall-clock-TTL-driven; under the harness
	// they are disabled so a run's RPC sequence — and with it every injector
	// coin flip — is a pure function of the seed, and so every read is a
	// strict-consistency observation the oracle can judge.
	cfg := core.Config{
		Replicas:          o.Replicas,
		DistributionLevel: o.DistributionLevel,
		AttrCacheTTL:      -1,
		NameCacheTTL:      -1,
		WriteBackBytes:    o.WriteBackBytes,
		MaintScrub:        o.Maint,
		MaintRebalance:    o.Maint && o.MaintRebalance,
	}
	c, err := cluster.New(cluster.Options{Nodes: o.Nodes, Seed: uint64(o.Seed), Config: cfg})
	if err != nil {
		return fail("build cluster: %v", err)
	}
	if dbgHook != nil {
		prev := fail
		fail = func(format string, args ...any) (*Report, error) {
			dbgHook(c)
			return prev(format, args...)
		}
	}
	s := NewScheduler(c, uint64(o.Seed), o.Mounts...)
	defer s.Close()
	s.MinLive = o.MinLive

	r := rand.New(rand.NewSource(o.Seed))
	model := NewOracle()
	mounts := make([]*core.Mount, len(o.Mounts))
	for i, n := range o.Mounts {
		if n < 0 || n >= len(c.Nodes) {
			return fail("mount index %d out of range", n)
		}
		mounts[i] = c.Mount(n)
	}

	trace := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		rep.Trace = append(rep.Trace, line)
		o.Logf("%s", line)
	}

	randPath := func() string {
		depth := 1 + r.Intn(3)
		parts := make([]string, depth)
		for i := range parts {
			parts[i] = fmt.Sprintf("d%d", r.Intn(3))
		}
		return core.JoinVirtual(parts)
	}

	// acked runs one mutating operation. A first attempt that fails under
	// injected loss is an availability miss, not a verdict: the runner lifts
	// the drop faults and re-issues the (idempotent) operation, so by the
	// time the model records it the operation really is acknowledged.
	acked := func(desc string, op func() error) error {
		rep.Ops++
		err := op()
		if err == nil {
			return nil
		}
		rep.FailedOps++
		restore := s.SuspendLoss()
		defer restore()
		if err2 := op(); err2 != nil {
			return fmt.Errorf("%s: %v (first attempt: %v)", desc, err2, err)
		}
		trace("%s: acked on retry after loss (%v)", desc, err)
		return nil
	}

	// readback reads one known file and judges it against the model,
	// tolerating misses and previously-acknowledged staleness only while the
	// network is degraded.
	readback := func() error {
		files := model.Files()
		if len(files) == 0 {
			return nil
		}
		p := files[r.Intn(len(files))]
		rep.Ops++
		got, _, err := mounts[r.Intn(len(mounts))].ReadFile(p)
		degraded := s.LossActive() || s.PartitionActive()
		if err != nil {
			if degraded {
				rep.FailedOps++
				return nil
			}
			return fmt.Errorf("readback %s: %v", p, err)
		}
		if bytes.Equal(got, model.files[p]) {
			return nil
		}
		if degraded && model.acceptedStale(p, got) {
			rep.FailedOps++
			return nil
		}
		return fmt.Errorf("readback %s: wrong contents (%d bytes, want %d)", p, len(got), len(model.files[p]))
	}

	// workload performs one random file-system operation against a random
	// mount, keeping the model in lockstep. While message loss or partitions
	// can move subtree ownership on false suspicion, the workload is
	// read-only: Kosha's last-writer-wins version arbitration assumes
	// fail-stop nodes (the paper's model), so writes acknowledged by a
	// minority view could be legitimately discarded on heal — an invariant
	// the harness must not pretend holds. Reads keep flowing and are judged
	// leniently; crash, duplication, and delay faults see the full mix.
	workload := func(step int) error {
		if s.LossActive() || s.PartitionActive() {
			return readback()
		}
		m := mounts[r.Intn(len(mounts))]
		switch r.Intn(8) {
		case 0, 1, 2: // write (create or overwrite)
			p := randPath() + fmt.Sprintf("/f%d", r.Intn(5))
			data := make([]byte, r.Intn(1500))
			r.Read(data)
			if err := acked(fmt.Sprintf("write %s", p), func() error {
				_, err := m.WriteFile(p, data)
				return err
			}); err != nil {
				return err
			}
			model.WriteFile(p, data)
		case 3: // mkdir
			p := randPath()
			if err := acked(fmt.Sprintf("mkdir %s", p), func() error {
				_, _, err := m.MkdirAll(p)
				return err
			}); err != nil {
				return err
			}
			model.MkdirAll(p)
		case 4: // remove subtree
			p := randPath()
			if !model.Exists(p) {
				return nil
			}
			if err := acked(fmt.Sprintf("rm %s", p), func() error {
				_, err := m.RemoveAllPath(p)
				if nfs.IsStatus(err, nfs.ErrNoEnt) {
					// The earlier (lost-looking) attempt had removed it.
					return nil
				}
				return err
			}); err != nil {
				return err
			}
			model.RemoveAll(p)
		case 5, 6: // read-back of a known file
			return readback()
		case 7: // rename within the same parent
			p := randPath()
			if !model.Exists(p) {
				return nil
			}
			parts := core.SplitVirtual(p)
			parent := core.JoinVirtual(parts[:len(parts)-1])
			newName := fmt.Sprintf("rn%d", step)
			rep.Ops++
			parentVH, _, _, err := m.LookupPath(parent)
			if err != nil {
				return fmt.Errorf("rename lookup %s: %v", parent, err)
			}
			if _, err := m.Rename(parentVH, parts[len(parts)-1], parentVH, newName); err != nil {
				return fmt.Errorf("rename %s: %v", p, err)
			}
			model.Rename(p, path.Join(parent, newName))
		}
		return nil
	}

	// Prepopulate so the very first chaos step has acknowledged state to
	// threaten.
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/d%d/seed", i)
		if _, err := mounts[0].WriteFile(p, []byte(fmt.Sprintf("seed-%d", i))); err != nil {
			return fail("prepopulate %s: %v", p, err)
		}
		model.WriteFile(p, []byte(fmt.Sprintf("seed-%d", i)))
	}
	c.Stabilize()

	steps := o.Steps
	if steps == nil {
		steps = make([]Step, o.RandomSteps)
		for i := range steps {
			steps[i] = s.RandomStep(r)
		}
	}

	for i, st := range steps {
		for k := 0; k < o.OpsPerStep; k++ {
			if err := workload(i*o.OpsPerStep + k); err != nil {
				return fail("step %d workload: %v", i, err)
			}
		}
		applied, desc, err := s.Apply(st)
		if err != nil {
			return fail("step %d apply: %v", i, err)
		}
		if applied {
			rep.Applied++
		} else {
			rep.Skipped++
		}
		trace("step %d: %s", i, desc)
		// A crash is always followed by stabilization so replica repair
		// restores K copies before the schedule may take another node: the
		// oracle invariant assumes at least one live replica per subtree.
		// Likewise after healing a degraded network — writes acknowledged
		// during the outage may sit on their primary alone until replica
		// synchronization pushes them out.
		if applied && (st.Kind == OpCrash || st.Kind == OpHeal || st.Kind == OpClearFaults) {
			c.Stabilize()
		}
		// One maintenance round per step, every live node in index order:
		// scrub exchanges and rebalance moves run between workload bursts
		// exactly where a real deployment's low-rate timers would, and the
		// fixed order keeps the run a pure function of the seed.
		if o.Maint {
			for j := range c.Nodes {
				if !s.Down(j) {
					c.Nodes[j].Maint().Tick()
				}
			}
		}

		m := mounts[i%len(mounts)]
		rep.CheckReads += len(model.Files())
		if s.LossActive() || s.PartitionActive() {
			missed, err := model.CheckFilesLenient(m)
			if err != nil {
				return fail("step %d check (lenient): %v", i, err)
			}
			rep.CheckMiss += missed
		} else if (i+1)%o.FullCheckEvery == 0 {
			if err := model.Check(m); err != nil {
				return fail("step %d full check: %v", i, err)
			}
		} else {
			if err := model.CheckFiles(m); err != nil {
				return fail("step %d check: %v", i, err)
			}
		}
	}

	// Dirty write-back buffers must land before the oracle's final
	// read-backs. A no-op under the default write-through configuration.
	for i, m := range mounts {
		if _, err := m.FlushAll(); err != nil {
			return fail("flush mount %d: %v", i, err)
		}
	}
	if err := s.Quiesce(); err != nil {
		return fail("quiesce: %v", err)
	}
	for i, m := range mounts {
		if err := model.Check(m); err != nil {
			return fail("final check mount %d: %v", i, err)
		}
	}
	if err := ReplicaConvergence(c, model, o.Replicas); err != nil {
		return fail("replica convergence: %v", err)
	}
	if o.Maint {
		for _, nd := range c.Nodes {
			reg := nd.Obs()
			rep.ScrubRounds += reg.Counter("maint.scrub.rounds").Load()
			rep.ScrubDiverged += reg.Counter("maint.scrub.divergences").Load()
			rep.ScrubRepaired += reg.Counter("maint.scrub.repaired").Load()
			rep.RebalanceMoves += reg.Counter("maint.rebalance.moves").Load()
			rep.RebalanceBytes += reg.Counter("maint.rebalance.bytes").Load()
		}
	}
	return rep, nil
}

// ReplicaConvergence verifies the paper's steady-state replication invariant
// (Section 4.2): after quiescence, every model file is held by its current
// primary in the primary namespace and by each of the primary's K leaf-set
// replica candidates in the replica area; the same holds for the root
// directory's name index under its own key. Call only on a healed,
// stabilized cluster.
func ReplicaConvergence(c *cluster.Cluster, model *Oracle, k int) error {
	if k <= 0 || len(c.Nodes) == 0 {
		return nil
	}
	byAddr := map[simnet.Addr]*core.Node{}
	for _, nd := range c.Nodes {
		byAddr[nd.Addr()] = nd
	}
	// Resolution goes through a mount first: its lookup leaves the node's
	// resolver chain for the directory validated, where ResolvePath alone
	// would hand back an entry another node's rename left dangling.
	resolver, view := c.Nodes[0], c.Mount(0)
	type rootKey struct {
		primary simnet.Addr
		root    string
	}
	checkedRoots := map[rootKey]bool{}
	for _, f := range model.Files() {
		want := model.files[f]
		if vh, _, _, err := view.LookupPath(path.Dir(f)); err == nil {
			view.Forget(vh)
		}
		pl, _, err := resolver.ResolvePath(path.Dir(f))
		if err != nil {
			return fmt.Errorf("resolve %s: %w", f, err)
		}
		if pl.VRoot {
			continue
		}
		primary := byAddr[pl.Node]
		if primary == nil {
			return fmt.Errorf("resolve %s: unknown primary %s", f, pl.Node)
		}
		phys := joinPhys(pl.PhysDir(), path.Base(f))
		got, err := primary.Store().ReadFile(phys)
		if err != nil {
			return fmt.Errorf("primary %s lost %s (%s): %v", pl.Node, f, phys, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("primary %s holds stale %s (%d bytes, want %d)", pl.Node, f, len(got), len(want))
		}
		cands := primary.Overlay().ReplicaCandidates(k)
		if want, have := k, len(cands); have < want && have < len(c.Nodes)-1 {
			return fmt.Errorf("primary %s has %d replica candidates, want %d", pl.Node, have, want)
		}
		for _, rc := range cands {
			repNode := byAddr[rc.Addr]
			if repNode == nil {
				return fmt.Errorf("candidate %s for %s not in cluster", rc.Addr, f)
			}
			got, err := repNode.Store().ReadFile(core.RepPath(phys))
			if err != nil {
				return fmt.Errorf("replica %s missing %s (%s): %v", rc.Addr, f, core.RepPath(phys), err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("replica %s holds stale %s (%d bytes, want %d)", rc.Addr, f, len(got), len(want))
			}
		}

		// Beyond per-file bytes: every replica's copy of the whole hierarchy
		// must be byte-identical to the primary's, which the Merkle root
		// digests certify in one comparison per (primary, root) pair.
		root := pl.SubtreeRoot()
		if root == "/" || root == "" || checkedRoots[rootKey{pl.Node, root}] {
			continue
		}
		checkedRoots[rootKey{pl.Node, root}] = true
		if err := digestsAgree(primary, byAddr, cands, root); err != nil {
			return err
		}
	}
	// The root directory's name index is one more replicated hierarchy, held
	// by the owner of Key(RootPN) once any level-1 directory has existed.
	res, err := resolver.Overlay().Route(core.Key(core.RootPN))
	if err != nil {
		return fmt.Errorf("route root index: %w", err)
	}
	holder := byAddr[res.Node.Addr]
	if holder == nil {
		return fmt.Errorf("root index routed to unknown node %s", res.Node.Addr)
	}
	if len(model.List("/")) == 0 && !holder.Repl().DigestLocal(core.RootStore, false).Exists {
		return nil
	}
	return digestsAgree(holder, byAddr, holder.Overlay().ReplicaCandidates(k), core.RootStore)
}

// digestsAgree checks that primary holds a settled copy of the hierarchy at
// root and that every replica candidate's replica-area copy has its digest.
func digestsAgree(primary *core.Node, byAddr map[simnet.Addr]*core.Node, cands []pastry.NodeInfo, root string) error {
	ptd := primary.Repl().DigestLocal(root, true)
	if !ptd.Exists {
		return fmt.Errorf("primary %s has no subtree at %s", primary.Addr(), root)
	}
	if ptd.Flag {
		return fmt.Errorf("primary %s left the migration sentinel at %s", primary.Addr(), root)
	}
	for _, rc := range cands {
		rtd := byAddr[rc.Addr].Repl().DigestLocal(core.RepPath(root), true)
		if !rtd.Exists {
			return fmt.Errorf("replica %s holds no copy of %s", rc.Addr, root)
		}
		if rtd.Flag {
			return fmt.Errorf("replica %s stuck mid-migration at %s", rc.Addr, root)
		}
		if rtd.Root != ptd.Root {
			return fmt.Errorf("replica %s digest diverges from primary %s at %s", rc.Addr, primary.Addr(), root)
		}
	}
	return nil
}

func joinPhys(dir, name string) string {
	if dir == "/" || dir == "" {
		return "/" + name
	}
	return dir + "/" + name
}
