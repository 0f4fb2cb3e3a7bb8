package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
)

// RebalanceOptions parameterizes the capacity-driven rebalancer experiment:
// a cluster whose placement hashes concentrate storage on one node, pushed
// past the high-water mark by sizing that node's hierarchies large, then
// handed to the background maintenance engine to shed load until per-node
// utilization flattens toward the fleet mean.
type RebalanceOptions struct {
	Nodes     int
	Trees     int // level-1 hierarchies, one file each
	BigFile   int // bytes per file in hierarchies the hot node owns
	SmallFile int // bytes per file everywhere else
	Seed      uint64
	// TargetHot sizes the uniform capacity so the most-loaded node sits at
	// this utilization before the rebalancer runs.
	TargetHot float64
	// MaxRounds bounds the maintenance rounds (one tick of every node plus
	// a stabilize pass per round); the run stops early once a round makes
	// no further moves and nobody sits above the high-water mark.
	MaxRounds int
}

// DefaultRebalanceOptions is the acceptance shape: a >2x utilization skew
// flattened to within 1.3x of the fleet mean.
func DefaultRebalanceOptions() RebalanceOptions {
	return RebalanceOptions{
		Nodes:     8,
		Trees:     40,
		BigFile:   96 << 10,
		SmallFile: 12 << 10,
		Seed:      41,
		TargetHot: 0.9,
		MaxRounds: 8,
	}
}

// QuickRebalanceOptions is the -quick shrink: fewer, smaller trees.
func QuickRebalanceOptions() RebalanceOptions {
	o := DefaultRebalanceOptions()
	o.Trees = 24
	o.BigFile = 48 << 10
	o.SmallFile = 6 << 10
	return o
}

// RebalanceResult reports utilization before and after the rebalancer runs,
// plus what the flattening cost in migrated bytes.
type RebalanceResult struct {
	Nodes     int    `json:"nodes"`
	Trees     int    `json:"trees"`
	Seed      uint64 `json:"seed"`
	Capacity  int64  `json:"capacity_bytes"`   // per-node contributed capacity
	UsedTotal int64  `json:"used_total_bytes"` // cluster-wide stored bytes before

	HighWater float64 `json:"high_water"` // absolute utilization trip point
	LowWater  float64 `json:"low_water"`  // shedding target

	UtilMaxBefore  float64 `json:"util_max_before"`
	UtilMeanBefore float64 `json:"util_mean_before"`
	SkewBefore     float64 `json:"skew_before"` // max/mean before

	Rounds     int     `json:"rounds"`
	Moves      uint64  `json:"moves"`
	MovedBytes uint64  `json:"moved_bytes"`
	MovedFrac  float64 `json:"moved_fraction"` // moved bytes / stored bytes

	UtilMaxAfter  float64 `json:"util_max_after"`
	UtilMeanAfter float64 `json:"util_mean_after"`
	SkewAfter     float64 `json:"skew_after"` // max/mean after
}

// utilStats returns the max and mean of per-node utilization.
func utilStats(c *cluster.Cluster) (max, mean float64) {
	for _, nd := range c.Nodes {
		u := nd.Store().Utilization()
		if u > max {
			max = u
		}
		mean += u
	}
	mean /= float64(len(c.Nodes))
	return max, mean
}

// rebalCorpus writes one file per tree through the mount; sizeOf picks each
// tree's file size (the probe pass uses a uniform tiny size, the measured
// pass the engineered skew).
func rebalCorpus(c *cluster.Cluster, opts RebalanceOptions, sizeOf func(tree int) int) error {
	m := c.Mount(0)
	for tr := 0; tr < opts.Trees; tr++ {
		data := dedupPayload(sizeOf(tr), opts.Seed+uint64(tr)*7919)
		if _, err := m.WriteFile(fmt.Sprintf("/reb%02d/data.bin", tr), data); err != nil {
			return fmt.Errorf("write tree %d: %w", tr, err)
		}
	}
	c.Stabilize()
	return nil
}

// RunRebalance executes the experiment in three passes over one seed:
//
//  1. Probe: tiny uniform writes discover which node owns which tree
//     (placement depends only on names and the seed, never on sizes).
//  2. Sizing: the trees of the most-burdened owner are written big, the
//     rest small, and the resulting per-node stored bytes fix a uniform
//     capacity that puts the hottest node at TargetHot utilization — and
//     fix the water marks relative to the fleet-mean utilization, so
//     "balanced" means within a band of the mean rather than an arbitrary
//     absolute level.
//  3. Measured: the same cluster rebuilt with that capacity and the
//     rebalancer on; maintenance rounds run until the moves stop.
func RunRebalance(opts RebalanceOptions) (*RebalanceResult, error) {
	cfg := koshaCfg()
	cfg.UtilizationLimit = 0.99 // keep foreground redirection out of placement

	// Pass 1: placement probe.
	probe, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("rebalance probe: %w", err)
	}
	if err := rebalCorpus(probe, opts, func(int) int { return 1 << 10 }); err != nil {
		return nil, fmt.Errorf("rebalance probe: %w", err)
	}
	owner := make([]int, opts.Trees)
	owned := make([]int, opts.Nodes)
	for tr := 0; tr < opts.Trees; tr++ {
		_, i, err := primaryOf(probe, fmt.Sprintf("/reb%02d", tr))
		if err != nil {
			return nil, fmt.Errorf("rebalance probe: %w", err)
		}
		owner[tr] = i
		owned[i]++
	}
	hot := 0
	for i, n := range owned {
		if n > owned[hot] {
			hot = i
		}
	}
	if owned[hot] < 2 {
		return nil, fmt.Errorf("rebalance: hot node owns only %d trees; pick another seed", owned[hot])
	}
	sizeOf := func(tr int) int {
		if owner[tr] == hot {
			return opts.BigFile
		}
		return opts.SmallFile
	}

	// Pass 2: sizing — replay the skewed corpus on unlimited capacity and
	// read off per-node stored bytes.
	sizing, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("rebalance sizing: %w", err)
	}
	if err := rebalCorpus(sizing, opts, sizeOf); err != nil {
		return nil, fmt.Errorf("rebalance sizing: %w", err)
	}
	var usedMax, usedTotal int64
	for _, nd := range sizing.Nodes {
		u := nd.Store().Used()
		usedTotal += u
		if u > usedMax {
			usedMax = u
		}
	}
	capacity := int64(float64(usedMax) / opts.TargetHot)
	meanUtil := float64(usedTotal) / float64(opts.Nodes) / float64(capacity)
	highWater := 1.25 * meanUtil
	lowWater := 1.05 * meanUtil

	// Pass 3: measured run with the rebalancer on.
	mcfg := cfg
	mcfg.MaintRebalance = true
	mcfg.MaintHighWater = highWater
	mcfg.MaintLowWater = lowWater
	caps := make([]int64, opts.Nodes)
	for i := range caps {
		caps[i] = capacity
	}
	c, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: mcfg, Capacities: caps})
	if err != nil {
		return nil, fmt.Errorf("rebalance run: %w", err)
	}
	if err := rebalCorpus(c, opts, sizeOf); err != nil {
		return nil, fmt.Errorf("rebalance run: %w", err)
	}

	res := &RebalanceResult{
		Nodes:     opts.Nodes,
		Trees:     opts.Trees,
		Seed:      opts.Seed,
		Capacity:  capacity,
		UsedTotal: usedTotal,
		HighWater: highWater,
		LowWater:  lowWater,
	}
	res.UtilMaxBefore, res.UtilMeanBefore = utilStats(c)
	if res.UtilMeanBefore > 0 {
		res.SkewBefore = res.UtilMaxBefore / res.UtilMeanBefore
	}

	moves := func() uint64 {
		var total uint64
		for _, nd := range c.Nodes {
			total += nd.Obs().Counter("maint.rebalance.moves").Load()
		}
		return total
	}
	prev := uint64(0)
	for r := 0; r < opts.MaxRounds; r++ {
		for _, nd := range c.Nodes {
			nd.Maint().Tick()
		}
		c.Stabilize()
		res.Rounds++
		cur := moves()
		maxU, _ := utilStats(c)
		if cur == prev && maxU < highWater {
			break
		}
		prev = cur
	}

	res.Moves = moves()
	for _, nd := range c.Nodes {
		res.MovedBytes += nd.Obs().Counter("maint.rebalance.bytes").Load()
	}
	if usedTotal > 0 {
		res.MovedFrac = float64(res.MovedBytes) / float64(usedTotal)
	}
	res.UtilMaxAfter, res.UtilMeanAfter = utilStats(c)
	if res.UtilMeanAfter > 0 {
		res.SkewAfter = res.UtilMaxAfter / res.UtilMeanAfter
	}
	return res, nil
}

// Fprint renders the result as a text report.
func (r *RebalanceResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Capacity-driven rebalancer, %d nodes, %d trees (seed %d)\n", r.Nodes, r.Trees, r.Seed)
	fmt.Fprintf(w, "per-node capacity %d B, %d B stored, water marks %.2f/%.2f\n",
		r.Capacity, r.UsedTotal, r.HighWater, r.LowWater)
	fmt.Fprintf(w, "%-22s %8s %8s %8s\n", "", "max", "mean", "max/mean")
	fmt.Fprintf(w, "%-22s %8.3f %8.3f %8.2fx\n", "utilization before", r.UtilMaxBefore, r.UtilMeanBefore, r.SkewBefore)
	fmt.Fprintf(w, "%-22s %8.3f %8.3f %8.2fx\n", "utilization after", r.UtilMaxAfter, r.UtilMeanAfter, r.SkewAfter)
	fmt.Fprintf(w, "%d moves over %d rounds migrated %d bytes (%.1f%% of stored)\n",
		r.Moves, r.Rounds, r.MovedBytes, r.MovedFrac*100)
}

// FprintCSV renders the before/after rows as CSV.
func (r *RebalanceResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "phase,util_max,util_mean,skew")
	fmt.Fprintf(w, "before,%.4f,%.4f,%.4f\n", r.UtilMaxBefore, r.UtilMeanBefore, r.SkewBefore)
	fmt.Fprintf(w, "after,%.4f,%.4f,%.4f\n", r.UtilMaxAfter, r.UtilMeanAfter, r.SkewAfter)
	fmt.Fprintf(w, "moves,%d,%d,%.4f\n", r.Moves, r.MovedBytes, r.MovedFrac)
}
