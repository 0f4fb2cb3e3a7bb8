package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"path"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

const (
	// fullCheckEvery is the cadence, in steps, of the oracle's full check
	// (listings and removed paths as well as file contents).
	fullCheckEvery = 8
	// convergedEvery is the cadence, in steps, of the converged overlay
	// invariant tier when Options.Invariants is set.
	convergedEvery = 6
)

// Options configures one harness run. Everything observable — node
// identifiers, workload, schedule, injector coin flips, retry jitter inside
// the nodes — derives from Seed, so a failing run reproduces from the one
// number the error message carries.
type Options struct {
	Nodes    int   // cluster size (default 8)
	Replicas int   // K (default 2); pass -1 for none
	Seed     int64 // master seed; logged on failure

	// Steps is the fault schedule: a Script, Random steps (default
	// Random(40)) or availability-trace Churn.
	Steps StepSource
	// Workload is the traffic between steps: the runner's own Mix (the
	// default) or a TraceWorkload.
	Workload   WorkloadSource
	OpsPerStep int // workload operations after each step (default 4)
	MinLive    int // floor on live nodes (default Replicas+2, at least 3)

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

	// Invariants holds the overlay to pastry.CheckInvariants during the
	// run: the live tier after every step, the converged tier every
	// convergedEvery steps and after quiesce.
	Invariants bool

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
	if o.Steps == nil {
		o.Steps = Random(40)
	}
	if o.Workload == nil {
		o.Workload = Mix{}
	}
	if o.OpsPerStep == 0 {
		o.OpsPerStep = 4
	}
	if o.MinLive == 0 {
		o.MinLive = max(o.Replicas+2, 3)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Report summarizes a run for availability accounting and failure triage.
type Report struct {
	Ops       int // workload operations issued
	FailedOps int // first attempts that failed (availability misses)
	Writes    int // acknowledged file writes
	Reads     int // file reads judged against the model
	Applied   int // chaos steps applied
	Skipped   int // chaos steps skipped by guards
	Crashes   int // nodes crashed, by steps
	Revives   int // nodes revived, by steps and the closing quiesce
	Trace     []string

	// ScrubRounds totals the anti-entropy scrub rounds run on every node.
	ScrubRounds uint64

	// OpCost is the summed simulated critical-path cost of workload ops.
	OpCost simnet.Cost
	// MeanRouteHops averages the overlay routes the workload bursts take
	// (the nodes' route counters across each burst); ReplicaFanout comes
	// from the nodes' counters over the whole run. ProbeMeanHops and
	// ProbeMaxHops come from the converged invariant tier's route sampling
	// after quiesce (Options.Invariants).
	MeanRouteHops float64
	ReplicaFanout float64
	ProbeMeanHops float64
	ProbeMaxHops  int
	// MeanJoinCost averages every overlay join: bring-up and revives.
	MeanJoinCost simnet.Cost
	// RootReaddirMsgs is what one listing of "/" costs in network messages
	// after quiesce, through a mount that has listed it before: the number
	// that must stay flat as the node count grows.
	RootReaddirMsgs uint64
}

// Availability is the fraction of workload operations whose first attempt
// succeeded.
func (r *Report) Availability() float64 {
	if r.Ops == 0 {
		return 1
	}
	return 1 - float64(r.FailedOps)/float64(r.Ops)
}

// harness is one run's state, shared by the runner and its step and
// workload sources.
type harness struct {
	o     Options
	c     *cluster.Cluster
	s     *Scheduler
	r     *rand.Rand
	model *Oracle
	m     *core.Mount // the client mount, on protected node 0
	rep   *Report
}

func (x *harness) trace(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	x.rep.Trace = append(x.rep.Trace, line)
	x.o.Logf("%s", line)
}

func (x *harness) degraded() bool { return x.s.LossActive() || x.s.PartitionActive() }

// Run builds a cluster and takes it through the step source's schedule.
// After each step it runs a burst of the workload source's operations, one
// maintenance tick and the checks: the oracle's (lenient while the network
// is degraded) and, with Options.Invariants, the overlay's. It then
// quiesces, verifies full convergence (contents, listings, ghosts,
// per-subtree replica counts back at K and, with Options.Invariants, the
// converged overlay) and measures the root listing. Any returned error
// embeds the seed.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{}
	fail := func(format string, args ...any) (*Report, error) {
		return rep, fmt.Errorf("chaos seed %d: %s", o.Seed, fmt.Sprintf(format, args...))
	}

	// Client metadata caches are wall-clock-TTL-driven; under the harness
	// they are disabled so a run's RPC sequence — and with it every injector
	// coin flip — is a pure function of the seed, and so every read is a
	// strict-consistency observation the oracle can judge. Trace buffers
	// are off: per-node rings dominate memory at hundreds of nodes.
	cfg := core.Config{
		Replicas:       o.Replicas,
		AttrCacheTTL:   -1,
		NameCacheTTL:   -1,
		TraceBufSize:   -1,
		WriteBackBytes: o.WriteBackBytes,
		MaintScrub:     o.Maint,
		MaintRebalance: o.Maint && o.MaintRebalance,
	}
	c, err := cluster.New(cluster.Options{Nodes: o.Nodes, Seed: uint64(o.Seed), Config: cfg})
	if err != nil {
		return fail("build cluster: %v", err)
	}
	s := NewScheduler(c, uint64(o.Seed), 0)
	defer s.Close()
	s.MinLive = o.MinLive
	x := &harness{o: o, c: c, s: s, r: rand.New(rand.NewSource(o.Seed)), model: NewOracle(), m: c.Mount(0), rep: rep}

	op, err := o.Workload.ops(x)
	if err != nil {
		return fail("workload: %v", err)
	}
	var hops, routes uint64 // routing done by the workload bursts
	next := o.Steps.steps(x)
	i := 0 // steps drawn; after the loop, the schedule's length
	for ; ; i++ {
		st, ok := next(i)
		if !ok {
			break
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
		x.trace("step %d: %s", i, desc)
		// A crash is always followed by stabilization so replica repair
		// restores K copies before the schedule may take another node: the
		// oracle invariant assumes at least one live replica per subtree.
		// Likewise after healing a degraded network — writes acknowledged
		// during the outage may sit on their primary alone until replica
		// synchronization pushes them out. A churn step stabilizes itself.
		if applied && (st.Kind == OpCrash || st.Kind == OpHeal || st.Kind == OpClearFaults) {
			c.Stabilize()
		}

		// While message loss or partitions can move subtree ownership on
		// false suspicion, the workload is read-only: Kosha's
		// last-writer-wins version arbitration assumes fail-stop nodes (the
		// paper's model), so writes acknowledged by a minority view could be
		// legitimately discarded on heal — an invariant the harness must not
		// pretend holds. Reads keep flowing and are judged leniently; crash,
		// duplication, and delay faults see the full workload.
		h0, n0 := x.routeTotals()
		for k := 0; k < o.OpsPerStep; k++ {
			var err error
			if x.degraded() {
				err = x.readback()
			} else {
				err = op(i*o.OpsPerStep + k)
			}
			if err != nil {
				return fail("step %d workload: %v", i, err)
			}
		}
		h1, n1 := x.routeTotals()
		hops, routes = hops+h1-h0, routes+n1-n0

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

		if x.degraded() {
			if _, err := x.model.CheckFilesLenient(x.m); err != nil {
				return fail("step %d check (lenient): %v", i, err)
			}
		} else if (i+1)%fullCheckEvery == 0 {
			if err := x.model.Check(x.m); err != nil {
				return fail("step %d full check: %v", i, err)
			}
		} else if err := x.model.CheckFiles(x.m); err != nil {
			return fail("step %d check: %v", i, err)
		}
		if o.Invariants {
			if _, err := x.checkOverlay(pastry.InvariantLive, uint64(i)); err != nil {
				return fail("step %d live invariants: %v", i, err)
			}
			if (i+1)%convergedEvery == 0 {
				if _, err := x.checkOverlay(pastry.InvariantConverged, uint64(i)); err != nil {
					return fail("step %d converged invariants: %v", i, err)
				}
			}
		}
	}

	// Dirty write-back buffers must land before the oracle's final
	// read-backs. A no-op under the default write-through configuration.
	if _, err := x.m.FlushAll(); err != nil {
		return fail("flush: %v", err)
	}
	if err := s.Quiesce(); err != nil {
		return fail("quiesce: %v", err)
	}
	if err := x.model.Check(x.m); err != nil {
		return fail("final check: %v", err)
	}
	if err := ReplicaConvergence(c, x.model, o.Replicas); err != nil {
		return fail("replica convergence: %v", err)
	}
	// Two listings, the second measured: the first pays for whatever rebind
	// the churn left due (route hops, which do grow with N).
	for range 2 {
		before := c.Net.Stats().Messages
		if _, _, err := x.m.Readdir(core.RootVH); err != nil {
			return fail("root listing: %v", err)
		}
		rep.RootReaddirMsgs = c.Net.Stats().Messages - before
	}
	if o.Invariants {
		inv, err := x.checkOverlay(pastry.InvariantConverged, uint64(i))
		if err != nil {
			return fail("final converged invariants: %v", err)
		}
		rep.ProbeMeanHops, rep.ProbeMaxHops = inv.MeanHops, inv.MaxHops
	}

	rep.Crashes, rep.Revives = s.crashes, s.revives
	var agg obs.Snapshot
	for _, nd := range c.Nodes {
		agg.Merge(nd.Obs().Snapshot())
	}
	if routes > 0 {
		rep.MeanRouteHops = float64(hops) / float64(routes)
	}
	rep.ReplicaFanout = agg.MeanRatio("replicate.fanout", "replicate.count")
	rep.ScrubRounds = agg.Counters["maint.scrub.rounds"]
	if o.Maint {
		// Traced so that same-seed replays compare the maintenance activity.
		x.trace("maint: %d scrub rounds, %d divergences, %d repaired, %d rebalance moves (%d bytes)",
			rep.ScrubRounds, agg.Counters["maint.scrub.divergences"], agg.Counters["maint.scrub.repaired"],
			agg.Counters["maint.rebalance.moves"], agg.Counters["maint.rebalance.bytes"])
	}
	if n := len(c.JoinCosts); n > 0 {
		rep.MeanJoinCost = simnet.Seq(c.JoinCosts...) / simnet.Cost(n)
	}
	return rep, nil
}

// routeTotals sums the route.hops and route.count counters of every node.
func (x *harness) routeTotals() (hops, routes uint64) {
	for _, nd := range x.c.Nodes {
		hops += nd.Obs().Counter("route.hops").Load()
		routes += nd.Obs().Counter("route.count").Load()
	}
	return hops, routes
}

// checkOverlay runs the pastry invariant oracle over the live membership.
func (x *harness) checkOverlay(level pastry.InvariantLevel, salt uint64) (*pastry.InvariantReport, error) {
	var live []*pastry.Node
	for i, nd := range x.c.Nodes {
		if !x.s.Down(i) {
			live = append(live, nd.Overlay())
		}
	}
	io := pastry.InvariantOptions{Level: level, Seed: uint64(x.o.Seed) ^ (salt * 0x9e3779b97f4a7c15)}
	if level == pastry.InvariantConverged {
		io.ReplicaK = x.o.Replicas
	}
	return pastry.CheckInvariants(live, io)
}

// acked runs one mutating operation. A first attempt that fails is an
// availability miss, not a verdict: the runner lifts the drop faults and
// re-issues the (idempotent) operation, so by the time the model records it
// the operation really is acknowledged.
func (x *harness) acked(desc string, op func() (simnet.Cost, error)) error {
	x.rep.Ops++
	cost, err := op()
	x.rep.OpCost += cost
	if err == nil {
		return nil
	}
	x.rep.FailedOps++
	restore := x.s.SuspendLoss()
	defer restore()
	cost, err2 := op()
	x.rep.OpCost += cost
	if err2 != nil {
		return fmt.Errorf("%s: %v (first attempt: %v)", desc, err2, err)
	}
	x.trace("%s: acked on retry (%v)", desc, err)
	return nil
}

// write writes data at p through acked and records it in the model.
func (x *harness) write(p string, data []byte) error {
	if err := x.acked("write "+p, func() (simnet.Cost, error) { return x.m.WriteFile(p, data) }); err != nil {
		return err
	}
	x.model.WriteFile(p, data)
	x.rep.Writes++
	return nil
}

// readback reads one known file, drawn from the run's stream, and judges it.
func (x *harness) readback() error {
	files := x.model.Files()
	if len(files) == 0 {
		return nil
	}
	return x.read(files[x.r.Intn(len(files))])
}

// read reads p and judges it against the model, tolerating misses and
// previously-acknowledged staleness only while the network is degraded.
func (x *harness) read(p string) error {
	x.rep.Ops++
	x.rep.Reads++
	got, cost, err := x.m.ReadFile(p)
	x.rep.OpCost += cost
	if err != nil {
		if x.degraded() {
			x.rep.FailedOps++
			return nil
		}
		return fmt.Errorf("readback %s: %v", p, err)
	}
	want, ok := x.model.FileContent(p)
	if !ok {
		return fmt.Errorf("readback %s: path the model never acknowledged", p)
	}
	if bytes.Equal(got, want) {
		return nil
	}
	if x.degraded() && x.model.acceptedStale(p, got) {
		x.rep.FailedOps++
		return nil
	}
	return fmt.Errorf("readback %s: wrong contents (%d bytes, want %d)", p, len(got), len(want))
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
