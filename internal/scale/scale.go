// Package scale is the thousand-node soak harness: it stands up a large
// simnet cluster, replays the synthesized Purdue workload (internal/trace)
// as sustained traffic while the availability trace drives diurnal churn,
// and holds the overlay to the invariant oracle in internal/pastry — the
// scaled-up descendant of the paper's eight-machine evaluation (Section 6)
// run at the population its Pastry substrate was designed for.
//
// The harness judges every operation against the chaos package's oracle
// model (no acknowledged write lost, reads return acknowledged contents)
// and checks the overlay at two tiers: structural invariants every epoch
// while churn is in flight, full convergence invariants (leaf-set
// completeness and symmetry against ground truth, bounded route hops,
// replica placement) at a configurable cadence and after final quiesce.
// Everything derives from one seed: same seed, same schedule, same report.
package scale

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Options configures a soak run.
type Options struct {
	// Nodes is the cluster size (default 100).
	Nodes int
	// Replicas is Kosha's K (default 2).
	Replicas int
	// Seed drives everything: ID assignment, the availability trace, the
	// workload stream, payload bytes, and invariant route sampling.
	Seed uint64
	// Ops is the total workload operation count across the run (default
	// 50 per epoch).
	Ops int
	// Epochs is how many availability-trace hours to replay (default 36).
	Epochs int
	// StartHour is the first trace hour (default 600, so the default
	// window covers the hour-615 failure spike).
	StartHour int
	// CheckEvery runs the converged-tier invariant check every that many
	// epochs (default 6; structural checks run every epoch regardless).
	CheckEvery int
	// MinLive floors the live population; the churn scheduler skips
	// crashes that would sink below it (default Nodes/2).
	MinLive int
	// Mounts is how many client mounts drive traffic, attached to nodes
	// 0..Mounts-1, which are protected from churn (default 1).
	Mounts int
	// SampleRoutes is the per-check route sample size for the invariant
	// oracle (default 32).
	SampleRoutes int
	// Maint enables the background maintenance engine (anti-entropy scrub)
	// on every node and ticks each live node once per epoch, in index
	// order, after the epoch's traffic — the same deterministic schedule
	// the chaos runner uses.
	Maint bool
	// FS overrides the synthesized file-system snapshot (default the
	// Purdue engineering trace, Table 1).
	FS trace.FSConfig
	// Workload overrides the operation mix (default read-mostly with a
	// 4 KiB payload cap).
	Workload trace.WorkloadConfig
	// Logf, when set, receives progress lines (wire to t.Logf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 100
	}
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.Epochs == 0 {
		o.Epochs = 36
	}
	if o.StartHour == 0 {
		o.StartHour = 600
	}
	if o.Ops == 0 {
		o.Ops = 50 * o.Epochs
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 6
	}
	if o.MinLive == 0 {
		o.MinLive = o.Nodes / 2
	}
	if o.Mounts == 0 {
		o.Mounts = 1
	}
	if o.SampleRoutes == 0 {
		o.SampleRoutes = 32
	}
	if o.FS == (trace.FSConfig{}) {
		o.FS = trace.PurdueFSConfig()
	}
	if o.Workload == (trace.WorkloadConfig{}) {
		o.Workload = trace.DefaultWorkloadConfig()
	}
	return o
}

// Report summarizes a soak run.
type Report struct {
	Nodes  int
	Epochs int
	Seed   uint64

	Ops      int
	Writes   int
	Reads    int
	Stats    int
	Readdirs int
	Retries  int // ops that needed one stabilize-and-retry

	Crashes     int
	Revives     int
	MinLiveSeen int

	// MeanRouteHops/ReplicaFanout come from the nodes' own counters over
	// the workload traffic; ProbeMeanHops/ProbeMaxHops from the invariant
	// oracle's route sampling at final quiesce.
	MeanRouteHops float64
	ReplicaFanout float64
	ProbeMeanHops float64
	ProbeMaxHops  int

	// Join cost statistics over every overlay join (bring-up + revives):
	// the raw convergence-time-vs-N signal.
	Joins        int
	MeanJoinCost simnet.Cost

	// OpCost is the summed simulated critical-path cost of workload ops.
	OpCost simnet.Cost

	// RootReaddirMsgs is what one listing of "/" costs in network messages
	// at final quiesce, through a mount that has listed it before: the
	// number the roadmap wants flat from 8 to 1000 nodes.
	RootReaddirMsgs uint64

	// Maintenance totals over the run (zero unless Options.Maint): scrub
	// rounds ticked, divergences caught, and repairs applied.
	ScrubRounds    uint64
	ScrubDiverged  uint64
	ScrubRepaired  uint64
	ScrubBadBlocks uint64
}

func (r *Report) logf(o Options, format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Run executes the soak and returns its report; any oracle or invariant
// violation aborts with an error naming the epoch.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{Nodes: opts.Nodes, Epochs: opts.Epochs, Seed: opts.Seed, MinLiveSeen: opts.Nodes}

	c, err := cluster.New(cluster.Options{
		Nodes: opts.Nodes,
		Seed:  opts.Seed,
		Config: core.Config{
			Replicas: opts.Replicas,
			// TTL caches and trace buffers off: wall-clock-dependent reuse
			// would break seed determinism, and per-node ring buffers
			// dominate memory at N=1000.
			AttrCacheTTL: -1,
			NameCacheTTL: -1,
			TraceBufSize: -1,
			MaintScrub:   opts.Maint,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("scale: bring-up: %w", err)
	}
	rep.logf(opts, "scale: %d nodes up, replaying %d ops over %d epochs (seed %d)",
		opts.Nodes, opts.Ops, opts.Epochs, opts.Seed)

	avail := trace.GenAvail(trace.CorporateAvailConfig(opts.Nodes), opts.Seed+1)
	fs := trace.GenFS(opts.FS, opts.Seed+2)
	work := trace.NewWorkload(fs, opts.Workload, opts.Seed+3)
	model := chaos.NewOracle()
	mounts := make([]*core.Mount, opts.Mounts)
	for i := range mounts {
		mounts[i] = c.Mount(i)
	}
	payloadState := opts.Seed + 4

	opsLeft := opts.Ops
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		hour := (opts.StartHour + epoch) % avail.Hours

		// Churn first — revive machines the trace brings back, then crash
		// the ones it takes down (guarded), then let the overlay settle —
		// so the epoch's traffic always runs against a stabilized view.
		var backUp []int
		for i, nd := range c.Nodes {
			if c.Net.IsDown(nd.Addr()) && avail.Up[hour][i] {
				backUp = append(backUp, i)
			}
		}
		if err := c.ReviveNodes(backUp); err != nil {
			return rep, fmt.Errorf("scale: epoch %d (hour %d): revive: %w", epoch, hour, err)
		}
		rep.Revives += len(backUp)
		crashed := crashByTrace(c, avail, hour, opts)
		rep.Crashes += crashed
		if crashed > 0 {
			c.Stabilize()
		}
		if live := len(c.Alive()); live < rep.MinLiveSeen {
			rep.MinLiveSeen = live
		}

		if epoch%opts.CheckEvery == opts.CheckEvery-1 {
			if _, err := checkOverlay(c, opts, pastry.InvariantConverged, uint64(epoch)); err != nil {
				return rep, fmt.Errorf("scale: epoch %d (hour %d): converged invariants: %w", epoch, hour, err)
			}
		}

		n := opsLeft / (opts.Epochs - epoch)
		opsLeft -= n
		for i := 0; i < n; i++ {
			if err := runOp(c, mounts, work, model, &payloadState, rep); err != nil {
				return rep, fmt.Errorf("scale: epoch %d (hour %d) op %d: %w", epoch, hour, i, err)
			}
		}

		if opts.Maint {
			for _, nd := range c.Nodes {
				if !c.Net.IsDown(nd.Addr()) {
					nd.Maint().Tick()
				}
			}
		}

		if _, err := checkOverlay(c, opts, pastry.InvariantLive, uint64(epoch)); err != nil {
			return rep, fmt.Errorf("scale: epoch %d (hour %d): live invariants: %w", epoch, hour, err)
		}
		if epoch%opts.CheckEvery == 0 {
			rep.logf(opts, "scale: epoch %d/%d hour %d: %d live, +%d/-%d churn, %d ops done",
				epoch, opts.Epochs, hour, len(c.Alive()), len(backUp), crashed, rep.Ops)
		}
	}

	// Final quiesce: flush write-back state, revive everything, stabilize,
	// then hold the full converged bar — oracle contents through the mount,
	// K replicas per subtree, and the overlay invariants with route probes.
	for _, m := range mounts {
		if _, err := m.FlushAll(); err != nil {
			return rep, fmt.Errorf("scale: final flush: %w", err)
		}
	}
	var down []int
	for i, nd := range c.Nodes {
		if c.Net.IsDown(nd.Addr()) {
			down = append(down, i)
		}
	}
	if err := c.ReviveNodes(down); err != nil {
		return rep, fmt.Errorf("scale: final revive: %w", err)
	}
	rep.Revives += len(down)
	c.Stabilize()
	if err := model.Check(mounts[0]); err != nil {
		return rep, fmt.Errorf("scale: final oracle check: %w", err)
	}
	if err := chaos.ReplicaConvergence(c, model, opts.Replicas); err != nil {
		return rep, fmt.Errorf("scale: final replica convergence: %w", err)
	}
	// Two listings, the second measured: the first pays for whatever rebind
	// the churn left due (route hops, which do grow with N).
	for i := 0; i < 2; i++ {
		before := c.Net.Stats().Messages
		if _, _, err := mounts[0].Readdir(core.RootVH); err != nil {
			return rep, fmt.Errorf("scale: final root listing: %w", err)
		}
		rep.RootReaddirMsgs = c.Net.Stats().Messages - before
	}
	inv, err := checkOverlay(c, opts, pastry.InvariantConverged, uint64(opts.Epochs))
	if err != nil {
		return rep, fmt.Errorf("scale: final converged invariants: %w", err)
	}
	rep.ProbeMeanHops = inv.MeanHops
	rep.ProbeMaxHops = inv.MaxHops

	var agg obs.Snapshot
	for _, nd := range c.Nodes {
		agg.Merge(nd.Obs().Snapshot())
	}
	rep.MeanRouteHops = agg.MeanRatio("route.hops", "route.count")
	rep.ReplicaFanout = agg.MeanRatio("replicate.fanout", "replicate.count")
	rep.ScrubRounds = agg.Counters["maint.scrub.rounds"]
	rep.ScrubDiverged = agg.Counters["maint.scrub.divergences"]
	rep.ScrubRepaired = agg.Counters["maint.scrub.repaired"]
	rep.ScrubBadBlocks = agg.Counters["maint.scrub.badblocks"]
	rep.Joins = len(c.JoinCosts)
	if rep.Joins > 0 {
		rep.MeanJoinCost = simnet.Seq(c.JoinCosts...) / simnet.Cost(rep.Joins)
	}
	rep.logf(opts, "scale: done: %d ops (%d retried), churn -%d/+%d, workload hops %.2f, probe hops %.2f (max %d)",
		rep.Ops, rep.Retries, rep.Crashes, rep.Revives, rep.MeanRouteHops, rep.ProbeMeanHops, rep.ProbeMaxHops)
	return rep, nil
}

// checkOverlay runs the pastry invariant oracle over the currently-live
// membership.
func checkOverlay(c *cluster.Cluster, opts Options, level pastry.InvariantLevel, salt uint64) (*pastry.InvariantReport, error) {
	var live []*pastry.Node
	for _, nd := range c.Nodes {
		if !c.Net.IsDown(nd.Addr()) {
			live = append(live, nd.Overlay())
		}
	}
	io := pastry.InvariantOptions{
		Level:        level,
		Seed:         opts.Seed ^ (salt * 0x9e3779b97f4a7c15),
		SampleRoutes: opts.SampleRoutes,
	}
	if level == pastry.InvariantConverged {
		io.ReplicaK = opts.Replicas
	}
	return pastry.CheckInvariants(live, io)
}

// runOp executes one workload operation through a mount, judges it against
// the oracle model, and records it. A first failure gets one
// stabilize-and-retry — an op can race the immediately preceding crash
// batch's fail-over — and a second failure is a soak failure.
func runOp(c *cluster.Cluster, mounts []*core.Mount, work *trace.Workload, model *chaos.Oracle, payloadState *uint64, rep *Report) error {
	op := work.Next()
	m := mounts[rep.Ops%len(mounts)]
	rep.Ops++
	err := applyOp(m, op, model, payloadState, rep)
	if err != nil {
		rep.Retries++
		c.Stabilize()
		err = applyOp(m, op, model, payloadState, rep)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.Kind, op.Path, err)
	}
	return nil
}

func applyOp(m *core.Mount, op trace.WorkloadOp, model *chaos.Oracle, payloadState *uint64, rep *Report) error {
	switch op.Kind {
	case trace.OpWrite:
		data := payload(payloadState, op.Path, int(op.Size))
		cost, err := m.WriteFile(op.Path, data)
		rep.OpCost += cost
		if err != nil {
			return err
		}
		model.WriteFile(op.Path, data)
		rep.Writes++
	case trace.OpRead:
		got, cost, err := m.ReadFile(op.Path)
		rep.OpCost += cost
		if err != nil {
			return err
		}
		want, ok := model.FileContent(op.Path)
		if !ok {
			return fmt.Errorf("read of path the model never acknowledged")
		}
		if string(got) != string(want) {
			return fmt.Errorf("content mismatch: got %d bytes, want %d", len(got), len(want))
		}
		rep.Reads++
	case trace.OpStat:
		_, attr, cost, err := m.LookupPath(op.Path)
		rep.OpCost += cost
		if err != nil {
			return err
		}
		if attr.Type != localfs.TypeRegular {
			return fmt.Errorf("stat resolved to %v, want regular file", attr.Type)
		}
		rep.Stats++
	case trace.OpReaddir:
		vh, _, cost, err := m.LookupPath(op.Path)
		rep.OpCost += cost
		if err != nil {
			return err
		}
		ents, cost, err := m.Readdir(vh)
		rep.OpCost += cost
		if err != nil {
			return err
		}
		have := map[string]bool{}
		for _, e := range ents {
			have[e.Name] = true
		}
		for _, name := range model.List(op.Path) {
			if !have[name] {
				return fmt.Errorf("readdir missing acknowledged entry %q", name)
			}
		}
		rep.Readdirs++
	}
	return nil
}

// payload produces deterministic file contents: a path-stamped header so
// misdirected reads are self-evident, padded with seeded bytes.
func payload(state *uint64, path string, size int) []byte {
	out := make([]byte, 0, size)
	out = append(out, path...)
	out = append(out, ':')
	for len(out) < size {
		*state ^= *state << 13
		*state ^= *state >> 7
		*state ^= *state << 17
		v := *state
		for i := 0; i < 8 && len(out) < size; i++ {
			out = append(out, byte(v>>(8*i)))
		}
	}
	return out[:size]
}

// crashByTrace fails the live nodes the availability trace marks down at
// hour, under three guards: protected mount homes never crash, the live
// population stays above MinLive, and accepted victims sit at least
// Replicas+1 positions apart on the live ring — so every primary plus its
// K leaf-set replica candidates keeps at least one survivor and no
// acknowledged write can lose all copies in a single epoch.
func crashByTrace(c *cluster.Cluster, avail *trace.AvailTrace, hour int, opts Options) int {
	alive := c.Alive()
	ringPos := map[int]int{} // node index -> position on the live ring
	ring := make([]int, len(alive))
	copy(ring, alive)
	sortByOverlayID(c, ring)
	for pos, idx := range ring {
		ringPos[idx] = pos
	}

	live := len(alive)
	var victims []int
	for _, idx := range alive {
		if idx < opts.Mounts || avail.Up[hour][idx] {
			continue
		}
		if live-1 < opts.MinLive {
			break
		}
		ok := true
		for _, v := range victims {
			d := ringPos[idx] - ringPos[v]
			if d < 0 {
				d = -d
			}
			if n := len(ring); d > n/2 {
				d = n - d
			}
			if d <= opts.Replicas {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		victims = append(victims, idx)
		live--
	}
	for _, idx := range victims {
		c.Fail(idx)
	}
	return len(victims)
}

func sortByOverlayID(c *cluster.Cluster, idxs []int) {
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && c.Nodes[idxs[j]].Overlay().Info().ID.Less(c.Nodes[idxs[j-1]].Overlay().Info().ID); j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
}
