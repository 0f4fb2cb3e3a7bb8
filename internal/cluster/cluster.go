// Package cluster assembles multi-node Kosha deployments in one process:
// the substitute for the paper's eight-machine FreeBSD testbed (Section
// 6.1). It wires N core.Nodes onto a shared simulated network, joins them
// into one Pastry overlay, and offers failure injection and membership
// churn for the integration tests and benchmark harnesses.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/simnet"
)

// Options configures a cluster build.
type Options struct {
	// Nodes is the initial node count.
	Nodes int
	// Seed drives nodeId assignment; experiments vary it across runs ("50
	// runs ... varying the nodeId assignments", Section 6.2).
	Seed uint64
	// Config is applied to every node.
	Config core.Config
	// Capacities optionally overrides Config.Capacity per node, for the
	// heterogeneous-capacity experiment (Figure 6: 8x3 GB, 4x4 GB, 4x5 GB).
	Capacities []int64
}

// Cluster is a running set of Kosha nodes on one simulated network.
type Cluster struct {
	Net   *simnet.Network
	Nodes []*core.Node

	// JoinCosts records the simulated cost of every overlay join (initial
	// build, AddNode, and revives), in order — the raw data behind the
	// join-convergence-time-vs-N curve of the scale experiment.
	JoinCosts []simnet.Cost

	seedState uint64
	cfg       core.Config
	nextAddr  int
}

// overlayRounds is how many rounds of overlay repair Stabilize runs.
const overlayRounds = 3

// New builds, joins, and stabilizes a cluster on a LAN100 network.
//
// Its overlay rounds stop at the first one that changes no node's overlay
// state (pastry.Node.Mutations), at most overlayRounds. New's network is
// private and fault-free until New returns, so such a quiet round is a
// fixpoint: every later round would send the same messages, get the same
// answers and change nothing either. Stabilize keeps its fixed rounds,
// because its callers run it with faults installed, where the injector
// draws afresh for every message and a quiet round predicts nothing.
func New(opts Options) (*Cluster, error) {
	c, err := join(opts)
	if err != nil {
		return nil, err
	}
	for round := 0; round < overlayRounds; round++ {
		before := c.mutations()
		c.overlayRound()
		if c.mutations() == before {
			break
		}
	}
	c.syncRounds()
	return c, nil
}

// join builds the cluster New settles: opts.Nodes nodes joined one by one
// through the first.
func join(opts Options) (*Cluster, error) {
	c := &Cluster{
		Net:       simnet.New(simnet.LAN100),
		seedState: opts.Seed,
		cfg:       opts.Config,
	}
	for i := 0; i < opts.Nodes; i++ {
		cfg := opts.Config
		if i < len(opts.Capacities) {
			cfg.Capacity = opts.Capacities[i]
		}
		if _, err := c.addNode(cfg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) addNode(cfg core.Config) (*core.Node, error) {
	addr := simnet.Addr(fmt.Sprintf("node%02d", c.nextAddr))
	c.nextAddr++
	nodeID := id.Rand128(&c.seedState)
	nd := core.NewNode(addr, nodeID, c.Net, cfg)
	var boot simnet.Addr
	if len(c.Nodes) > 0 {
		boot = c.Nodes[0].Addr()
	}
	cost, err := nd.Join(boot)
	if err != nil {
		return nil, fmt.Errorf("cluster: join %s: %w", addr, err)
	}
	c.JoinCosts = append(c.JoinCosts, cost)
	c.Nodes = append(c.Nodes, nd)
	return nd, nil
}

// AddNode joins one more node (default config) and stabilizes.
func (c *Cluster) AddNode() (*core.Node, error) {
	nd, err := c.addNode(c.cfg)
	if err != nil {
		return nil, err
	}
	c.Stabilize()
	return nd, nil
}

// Stabilize runs overlay repair — leaf-set probing plus background
// routing-table maintenance — and replica synchronization until the
// membership views settle, returning the total simulated cost.
func (c *Cluster) Stabilize() simnet.Cost {
	var total simnet.Cost
	for round := 0; round < overlayRounds; round++ {
		total = simnet.Seq(total, c.overlayRound())
	}
	return simnet.Seq(total, c.syncRounds())
}

// overlayRound runs one round of overlay repair: leaf-set probing, then
// routing-table maintenance, on every live node in index order.
func (c *Cluster) overlayRound() simnet.Cost {
	var total simnet.Cost
	for _, nd := range c.Nodes {
		if !c.Net.IsDown(nd.Addr()) {
			total = simnet.Seq(total, nd.Overlay().Stabilize())
			total = simnet.Seq(total, nd.Overlay().RepairTable())
		}
	}
	return total
}

// syncRounds runs replica synchronization twice on every live node: after
// heavy churn a node promoted from a stale copy first learns the newer
// version (or deletion) from a peer in round one and redistributes it in
// round two.
func (c *Cluster) syncRounds() simnet.Cost {
	var total simnet.Cost
	for round := 0; round < 2; round++ {
		for _, nd := range c.Nodes {
			if !c.Net.IsDown(nd.Addr()) {
				total = simnet.Seq(total, nd.SyncReplicas())
			}
		}
	}
	return total
}

// mutations sums every node's overlay mutation count.
func (c *Cluster) mutations() uint64 {
	var sum uint64
	for _, nd := range c.Nodes {
		sum += nd.Overlay().Mutations()
	}
	return sum
}

// Mount returns a client mount attached through node i's koshad.
func (c *Cluster) Mount(i int) *core.Mount { return c.Nodes[i].NewMount() }

// Fail crashes node i.
func (c *Cluster) Fail(i int) { c.Nodes[i].Fail() }

// Revive restarts node i with a fresh overlay identifier (its store is
// purged, Section 4.3.2) and stabilizes.
func (c *Cluster) Revive(i int) error {
	if err := c.reviveOne(i); err != nil {
		return err
	}
	c.Stabilize()
	return nil
}

// ReviveNodes restarts a batch of crashed nodes and stabilizes once at the
// end. Under trace-driven churn a single epoch revives many machines;
// stabilizing the whole cluster once per machine (as Revive does) is the
// O(N) scan that made large-cluster churn intractable.
func (c *Cluster) ReviveNodes(idxs []int) error {
	for _, i := range idxs {
		if err := c.reviveOne(i); err != nil {
			return err
		}
	}
	if len(idxs) > 0 {
		c.Stabilize()
	}
	return nil
}

// reviveOne rejoins one crashed node without stabilizing. The rejoin
// bootstraps through the first node that is actually alive — under churn
// the next node in index order may itself be down, and bootstrapping
// through a dead seed would fail the whole revival.
func (c *Cluster) reviveOne(i int) error {
	var seed simnet.Addr
	for off := 1; off < len(c.Nodes); off++ {
		cand := c.Nodes[(i+off)%len(c.Nodes)]
		if !c.Net.IsDown(cand.Addr()) {
			seed = cand.Addr()
			break
		}
	}
	if seed == "" {
		return fmt.Errorf("cluster: revive %d: no live seed node", i)
	}
	cost, err := c.Nodes[i].Revive(id.Rand128(&c.seedState), seed)
	if err != nil {
		return err
	}
	c.JoinCosts = append(c.JoinCosts, cost)
	return nil
}

// Alive returns the indices of nodes currently up.
func (c *Cluster) Alive() []int {
	var out []int
	for i, nd := range c.Nodes {
		if !c.Net.IsDown(nd.Addr()) {
			out = append(out, i)
		}
	}
	return out
}

// NodeStat summarizes one node's store occupancy.
type NodeStat struct {
	Addr  simnet.Addr
	Files int64
	Bytes int64
}

// StoreStats snapshots per-node occupancy (file counts and bytes), the raw
// data behind the load-distribution analysis (Figure 5).
func (c *Cluster) StoreStats() []NodeStat {
	out := make([]NodeStat, len(c.Nodes))
	for i, nd := range c.Nodes {
		out[i] = NodeStat{
			Addr:  nd.Addr(),
			Files: nd.Store().NumFiles(),
			Bytes: nd.Store().Used(),
		}
	}
	return out
}
