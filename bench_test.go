// Package repro's root benchmarks are the ablations of the design choices
// DESIGN.md calls out, reported as custom metrics:
//
//	BenchmarkAblationSyncFanout       — synchronous vs asynchronous fan-out
//	BenchmarkAblationReplicaCount     — write cost vs K under synchronous fan-out
//	BenchmarkAblationReadFromReplicas — read-load spread and per-read price of replica reads
//
// plus BenchmarkParallelMetadata, the concurrency-scaling check of the
// sharded hot path. A primary always replies before its fan-out, so the two
// synchronous prices are derived: the run's own cost plus the fan-out time
// every node recorded in its op.replicate histogram meanwhile. The paper's
// tables and figures, the metadata-cache ablation among them, print via
// `go run ./cmd/koshabench` (and run in internal/experiments' tests); the
// per-layer microbenchmarks live in the bench/ ledger (`make bench-json`).
package main

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/kosha"
)

// fanoutCost sums the op.replicate histograms of the cluster's nodes: the
// simulated time their primaries spent fanning mutations out to replicas,
// which a synchronous primary would have added to its replies.
func fanoutCost(c *cluster.Cluster) simnet.Cost {
	var sum int64
	for _, nd := range c.Nodes {
		sum += nd.Obs().Snapshot().Hists["op."+obs.OpReplicate].SumNS
	}
	return simnet.Cost(sum)
}

// BenchmarkAblationSyncFanout quantifies the design choice of keeping
// replica fan-out off the client-visible path: the slowdown a write-heavy
// workload would see if every primary waited for its replicas.
func BenchmarkAblationSyncFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Options{Nodes: 6, Seed: 77, Config: core.Config{Replicas: 2}})
		if err != nil {
			b.Fatal(err)
		}
		m := c.Mount(0)
		var async simnet.Cost
		payload := make([]byte, 32<<10)
		before := fanoutCost(c)
		for f := 0; f < 50; f++ {
			cost, err := m.WriteFile(fmt.Sprintf("/w/f%02d", f), payload)
			if err != nil {
				b.Fatal(err)
			}
			async += cost
		}
		sync := async + fanoutCost(c) - before
		b.ReportMetric(sync.Seconds()/async.Seconds(), "sync/async-slowdown")
	}
}

// BenchmarkAblationReplicaCount measures write cost against replica count
// under synchronous replication, exposing the fan-out price the paper's
// asynchronous design avoids.
func BenchmarkAblationReplicaCount(b *testing.B) {
	for _, k := range []int{0, 1, 3} {
		k := k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			kk := k
			if kk == 0 {
				kk = -1 // Config encodes K=0 as -1
			}
			c, err := cluster.New(cluster.Options{
				Nodes: 8, Seed: 31,
				Config: core.Config{Replicas: kk},
			})
			if err != nil {
				b.Fatal(err)
			}
			m := c.Mount(0)
			payload := make([]byte, 16<<10)
			var total simnet.Cost
			b.ResetTimer()
			before := fanoutCost(c)
			for i := 0; i < b.N; i++ {
				cost, err := m.WriteFile(fmt.Sprintf("/k/f%04d", i%512), payload)
				if err != nil {
					b.Fatal(err)
				}
				total += cost
			}
			total += fanoutCost(c) - before
			b.ReportMetric(total.Seconds()/float64(b.N)*1e3, "sim-ms/op")
		})
	}
}

// BenchmarkAblationReadFromReplicas measures the Section 4.2 extension:
// read-load spread across holders (reported as the busiest node's share of
// reads) and the simulated price of a read, with replica reads off vs on.
func BenchmarkAblationReadFromReplicas(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			c, err := cluster.New(cluster.Options{
				Nodes: 8, Seed: 41,
				Config: core.Config{Replicas: 2, ReadFromReplicas: enabled},
			})
			if err != nil {
				b.Fatal(err)
			}
			m := c.Mount(0)
			if _, err := m.WriteFile("/hot/object", make([]byte, 64<<10)); err != nil {
				b.Fatal(err)
			}
			fvh, _, _, err := m.LookupPath("/hot/object")
			if err != nil {
				b.Fatal(err)
			}
			var spent simnet.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, cost, err := m.Read(fvh, 0, 32<<10)
				if err != nil {
					b.Fatal(err)
				}
				spent += cost
			}
			b.StopTimer()
			b.ReportMetric(spent.Seconds()/float64(b.N)*1e3, "sim-ms/read")
			spread := m.ReadSpread()
			var reads, max int64
			for _, v := range spread {
				reads += v
				if v > max {
					max = v
				}
			}
			if reads > 0 {
				b.ReportMetric(float64(max)/float64(reads)*100, "busiest-node-%reads")
				b.ReportMetric(float64(len(spread)), "nodes-serving")
			}
		})
	}
}

// BenchmarkParallelMetadata measures hot-path metadata throughput as
// goroutines are added on one shared Mount: warm-cache Lookup + Getattr
// against per-goroutine files, so the only shared state is the sharded
// handle table and metadata caches. Run with -cpu=1,2,4,8 to see the
// scaling the sharded design buys; a global-mutex hot path flatlines here.
func BenchmarkParallelMetadata(b *testing.B) {
	c, err := kosha.NewCluster(kosha.ClusterOptions{
		Nodes: 8,
		Seed:  6,
		Config: kosha.Config{
			Replicas:     1,
			AttrCacheTTL: time.Hour,
			NameCacheTTL: time.Hour,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	m := c.Mount(0)
	const files = 64
	dirs := make([]core.VH, files)
	for i := 0; i < files; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/par/g%d/file", i), []byte("x")); err != nil {
			b.Fatal(err)
		}
		dvh, _, _, err := m.LookupPath(fmt.Sprintf("/par/g%d", i))
		if err != nil {
			b.Fatal(err)
		}
		dirs[i] = dvh
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		slot := int(next.Add(1)-1) % files
		dvh := dirs[slot]
		for pb.Next() {
			vh, _, _, err := m.Lookup(dvh, "file")
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := m.Getattr(vh); err != nil {
				b.Fatal(err)
			}
			m.Forget(vh)
		}
	})
}
