package cluster_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"path"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
)

// runOracle drives a random operation sequence through three mounts of a
// six-node cluster and through chaos.Oracle, the one reference model of the
// virtual file system: Kosha's observable behaviour must match a plain tree
// regardless of placement, replication, distribution level, or injected
// churn. The model is checked through a random mount every 25 steps and
// through all three at the end. Everything is a function of the seed.
func runOracle(t *testing.T, cfg core.Config, steps int, seed int64, churn bool) {
	t.Helper()
	c, err := cluster.New(cluster.Options{Nodes: 6, Seed: uint64(seed), Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	o := chaos.NewOracle()
	mounts := []*core.Mount{c.Mount(0), c.Mount(2), c.Mount(4)}

	randPath := func() string {
		parts := make([]string, 1+r.Intn(4))
		for i := range parts {
			parts[i] = fmt.Sprintf("d%d", r.Intn(3))
		}
		return core.JoinVirtual(parts)
	}

	var ops []string
	logOp := func(format string, args ...interface{}) {
		ops = append(ops, fmt.Sprintf(format, args...))
	}
	t.Cleanup(func() {
		if t.Failed() {
			for _, op := range ops {
				t.Log(op)
			}
		}
	})
	downNode := -1
	for step := 0; step < steps; step++ {
		mi := r.Intn(len(mounts))
		m := mounts[mi]
		switch r.Intn(11) {
		case 0, 1, 2, 3: // write (create or overwrite)
			p := randPath() + fmt.Sprintf("/f%d", r.Intn(5))
			data := make([]byte, r.Intn(2000))
			r.Read(data)
			if _, err := m.WriteFile(p, data); err != nil {
				t.Fatalf("step %d write %s: %v", step, p, err)
			}
			o.WriteFile(p, data)
			logOp("%d mount %d write %s", step, mi, p)
		case 4, 5: // mkdir
			p := randPath()
			if _, _, err := m.MkdirAll(p); err != nil {
				t.Fatalf("step %d mkdir %s: %v", step, p, err)
			}
			o.MkdirAll(p)
			logOp("%d mount %d mkdir %s", step, mi, p)
		case 6: // remove subtree
			p := randPath()
			if o.Exists(p) {
				if _, err := m.RemoveAllPath(p); err != nil {
					t.Fatalf("step %d rm %s: %v", step, p, err)
				}
				o.RemoveAll(p)
				logOp("%d mount %d rm %s", step, mi, p)
			}
		case 7: // read-back of a known file
			if files := o.Files(); len(files) > 0 {
				p := files[step%len(files)]
				want, _ := o.FileContent(p)
				got, _, err := m.ReadFile(p)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d readback %s: %d bytes err=%v, want %d", step, p, len(got), err, len(want))
				}
			}
		case 8: // churn: crash or revive a node that hosts no mount
			if !churn {
				continue
			}
			if downNode < 0 {
				downNode = 1 + 2*r.Intn(2) // node 1 or 3
				c.Fail(downNode)
				c.Stabilize()
				logOp("%d crash node %d", step, downNode)
			} else {
				if err := c.Revive(downNode); err != nil {
					t.Fatalf("step %d revive: %v", step, err)
				}
				logOp("%d revive node %d", step, downNode)
				downNode = -1
			}
		case 9: // stabilize
			c.Stabilize()
		case 10: // rename within the same parent
			p := randPath()
			if !o.Exists(p) {
				continue
			}
			parent, newName := path.Dir(p), fmt.Sprintf("rn%d", step)
			parentVH, _, _, err := m.LookupPath(parent)
			if err != nil {
				t.Fatalf("step %d rename lookup %s: %v", step, parent, err)
			}
			if _, err := m.Rename(parentVH, path.Base(p), parentVH, newName); err != nil {
				t.Fatalf("step %d rename %s: %v", step, p, err)
			}
			o.Rename(p, path.Join(parent, newName))
			logOp("%d mount %d rename %s -> %s", step, mi, p, path.Join(parent, newName))
		}
		if step%25 == 24 {
			if err := o.Check(mounts[r.Intn(len(mounts))]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Revive any node still down, then a final full check from every mount.
	if downNode >= 0 {
		if err := c.Revive(downNode); err != nil {
			t.Fatal(err)
		}
	}
	c.Stabilize()
	for i, m := range mounts {
		if err := o.Check(m); err != nil {
			t.Fatalf("final, mount %d: %v", i, err)
		}
	}
}

func TestOracleLevel1(t *testing.T) {
	runOracle(t, core.Config{Replicas: 2}, 120, 101, false)
}

func TestOracleLevel3(t *testing.T) {
	runOracle(t, core.Config{Replicas: 2, DistributionLevel: 3}, 120, 202, false)
}

func TestOracleWithChurn(t *testing.T) {
	runOracle(t, core.Config{Replicas: 2}, 150, 303, true)
}

func TestOracleWithChurnDeepDistribution(t *testing.T) {
	runOracle(t, core.Config{Replicas: 3, DistributionLevel: 2}, 150, 404, true)
}

func TestOracleNoReplicasNoChurn(t *testing.T) {
	runOracle(t, core.Config{Replicas: -1, DistributionLevel: 2}, 100, 505, false)
}

// sweepSeeds widens TestOracleSeedSweep to seeds 1000 … 1000+N-1; `make
// chaos` runs it with 1000.
var sweepSeeds = flag.Int("seeds", 0, "TestOracleSeedSweep: run seeds 1000..1000+N-1 instead of the committed list")

// regressionSeeds each failed once, and with the twelve seeds from 1000 they
// are what every run sweeps: the first ten were red from PR 16 to PR 20 (nine
// wrote under the old name of a distributed directory renamed above the leaf
// distributed level, 1021 returned the resolver's internal sentinel from
// Rename), 1284 is the one seed that needs RemoveAllPath's NOTEMPTY
// redrive, and 1152 emptied the root index once leaf-set changes stopped
// running Sync: a bind at a node that took itself for the index's owner
// stamped a no-op MkdirAll of the index and mirrored an empty copy.
var regressionSeeds = []int64{1013, 1021, 1025, 1031, 1049, 1067, 1073, 1109, 1121, 1163, 1284, 1152}

// TestOracleSeedSweep runs shorter sequences across many seeds to shake out
// ordering-dependent bugs the fixed-seed cases miss. The seed picks the
// configuration (seed%3: L=1 K=2, L=2 K=2, L=3 K=3) and whether nodes crash
// (even seeds).
func TestOracleSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	n, extra := int64(*sweepSeeds), []int64(nil)
	if n <= 0 {
		n, extra = 12, regressionSeeds
	}
	var seeds []int64
	for s := int64(1000); s < 1000+n; s++ {
		seeds = append(seeds, s)
	}
	seeds = append(seeds, extra...)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := core.Config{Replicas: 2}
			switch seed % 3 {
			case 1:
				cfg.DistributionLevel = 2
			case 2:
				cfg = core.Config{Replicas: 3, DistributionLevel: 3}
			}
			runOracle(t, cfg, 80, seed, seed%2 == 0)
		})
	}
}
