package pastry

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/simnet"
)

// liveNodes filters nodes by an optional alive set (nil = all).
func liveNodes(nodes []*Node, alive map[int]bool) []*Node {
	var out []*Node
	for i, nd := range nodes {
		if alive == nil || alive[i] {
			out = append(out, nd)
		}
	}
	return out
}

func TestInvariantsHoldAfterSerialJoin(t *testing.T) {
	for _, n := range []int{2, 5, 9, 12, 15, 16, 48} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, nodes := buildOverlay(t, n, uint64(100+n), 0)
			rep, err := CheckInvariants(nodes, InvariantOptions{
				Level:    InvariantConverged,
				Seed:     uint64(n),
				ReplicaK: 2,
			})
			if err != nil {
				t.Fatalf("converged invariants (n=%d): %v", n, err)
			}
			if rep.Routes == 0 {
				t.Fatalf("no routes sampled")
			}
		})
	}
}

// TestJoinStorm is the join-storm regression: N nodes joining concurrently
// through one bootstrap node must still converge to complete, symmetric
// leaf sets once stabilization runs — concurrent joiners discover each
// other through their announcements and the stabilizer's leaf-set pulls,
// not through any serialized admission.
func TestJoinStorm(t *testing.T) {
	const n = 48
	net := simnet.New(simnet.LAN100)
	state := uint64(4242)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(id.Rand128(&state), simnet.Addr(fmt.Sprintf("node%d", i)), net, 0)
		nodes[i].Attach()
	}
	if _, err := nodes[0].Bootstrap(""); err != nil {
		t.Fatalf("seed bootstrap: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = nodes[i].Bootstrap(nodes[0].Info().Addr)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("storm bootstrap node %d: %v", i, err)
		}
	}
	// Structural invariants must hold immediately, before any stabilization.
	if _, err := CheckInvariants(nodes, InvariantOptions{Level: InvariantLive, Seed: 1}); err != nil {
		t.Fatalf("live invariants right after storm: %v", err)
	}
	for round := 0; round < 4; round++ {
		for _, nd := range nodes {
			nd.Stabilize()
		}
	}
	rep, err := CheckInvariants(nodes, InvariantOptions{
		Level:    InvariantConverged,
		Seed:     2,
		ReplicaK: 2,
	})
	if err != nil {
		t.Fatalf("converged invariants after storm + stabilize: %v", err)
	}
	t.Logf("storm converged: %d nodes, mean hops %.2f, max %d", rep.Nodes, rep.MeanHops, rep.MaxHops)
}

// TestRepairTablePurgesDeadEntries drives churn that leaf-set stabilization
// alone does not clean up: nodes far from a survivor's ring neighborhood
// die, leaving stale routing-table entries that only a table-maintenance
// pass removes.
func TestRepairTablePurgesDeadEntries(t *testing.T) {
	const n = 40
	net, nodes := buildOverlay(t, n, 77, 0)

	// Kill every third node (never the bootstrap).
	alive := map[int]bool{}
	for i := range nodes {
		alive[i] = true
	}
	for i := 3; i < n; i += 3 {
		net.SetDown(nodes[i].Info().Addr, true)
		alive[i] = false
	}
	survivors := liveNodes(nodes, alive)

	for round := 0; round < 3; round++ {
		for _, nd := range survivors {
			nd.Stabilize()
			nd.RepairTable()
		}
	}

	deadAddr := map[simnet.Addr]bool{}
	for i, nd := range nodes {
		if !alive[i] {
			deadAddr[nd.Info().Addr] = true
		}
	}
	for _, nd := range survivors {
		for _, te := range nd.TableEntries() {
			if deadAddr[te.Node.Addr] {
				t.Fatalf("%s table[%d][%d] still names dead node %s after repair",
					nd.Info().Addr, te.Row, te.Col, te.Node.Addr)
			}
		}
	}
	if _, err := CheckInvariants(survivors, InvariantOptions{
		Level:    InvariantConverged,
		Seed:     3,
		ReplicaK: 2,
	}); err != nil {
		t.Fatalf("converged invariants after churn + repair: %v", err)
	}
}

// TestHopGrowthLogarithmic pins the scaling law on pastry-only overlays:
// Pastry promises O(log16 N) route hops, so a 10x population growth may at
// most double the mean hop count. This is the acceptance threshold behind
// the koshabench scale experiment's hops-vs-N curve.
func TestHopGrowthLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node overlay build; skipped in -short")
	}
	mean := func(n int) float64 {
		net := simnet.New(simnet.LAN100)
		state := uint64(9000 + n)
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = NewNode(id.Rand128(&state), simnet.Addr(fmt.Sprintf("node%04d", i)), net, 0)
			nodes[i].Attach()
			var boot simnet.Addr
			if i > 0 {
				boot = nodes[0].Info().Addr
			}
			if _, err := nodes[i].Bootstrap(boot); err != nil {
				t.Fatalf("bootstrap node %d of %d: %v", i, n, err)
			}
		}
		for round := 0; round < 2; round++ {
			for _, nd := range nodes {
				nd.Stabilize()
			}
		}
		rep, err := CheckInvariants(nodes, InvariantOptions{
			Level:        InvariantConverged,
			Seed:         uint64(n),
			SampleRoutes: 256,
			ReplicaK:     2,
		})
		if err != nil {
			t.Fatalf("converged invariants at n=%d: %v", n, err)
		}
		t.Logf("n=%4d: mean hops %.2f, max %d over %d sampled routes", n, rep.MeanHops, rep.MaxHops, rep.Routes)
		return rep.MeanHops
	}
	h100 := mean(100)
	h1000 := mean(1000)
	if h1000 > 2*h100 {
		t.Fatalf("hop growth super-logarithmic: hops(1000)=%.2f > 2 x hops(100)=%.2f", h1000, h100)
	}
}
