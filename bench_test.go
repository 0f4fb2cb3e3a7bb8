// Package repro's root benchmarks are the ablations of the design choices
// DESIGN.md calls out, reported as custom metrics:
//
//	BenchmarkAblationSyncReplication  — synchronous vs asynchronous fan-out
//	BenchmarkAblationReplicaCount     — write cost vs K under synchronous fan-out
//	BenchmarkAblationReadFromReplicas — read-load spread with replica reads
//	BenchmarkAblationMetadataCache    — client metadata caches on vs off
//
// plus BenchmarkParallelMetadata, the concurrency-scaling check of the
// sharded hot path. The paper's tables and figures print via
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
	"repro/internal/experiments"
	"repro/internal/simnet"
	"repro/kosha"
)

// BenchmarkAblationSyncReplication quantifies the design choice of keeping
// replica fan-out off the client-visible path: it reruns a write-heavy
// workload with synchronous replication and reports the slowdown.
func BenchmarkAblationSyncReplication(b *testing.B) {
	run := func(sync bool) float64 {
		cfg := core.Config{Replicas: 2, SyncReplication: sync}
		c, err := cluster.New(cluster.Options{Nodes: 6, Seed: 77, Config: cfg})
		if err != nil {
			b.Fatal(err)
		}
		m := c.Mount(0)
		var total simnet.Cost
		payload := make([]byte, 32<<10)
		for i := 0; i < 50; i++ {
			cost, err := m.WriteFile(fmt.Sprintf("/w/f%02d", i), payload)
			if err != nil {
				b.Fatal(err)
			}
			total += cost
		}
		return total.Seconds()
	}
	for i := 0; i < b.N; i++ {
		async := run(false)
		sync := run(true)
		b.ReportMetric(sync/async, "sync/async-slowdown")
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
				Config: core.Config{Replicas: kk, SyncReplication: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			m := c.Mount(0)
			payload := make([]byte, 16<<10)
			var total simnet.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost, err := m.WriteFile(fmt.Sprintf("/k/f%04d", i%512), payload)
				if err != nil {
					b.Fatal(err)
				}
				total += cost
			}
			b.ReportMetric(total.Seconds()/float64(b.N)*1e3, "sim-ms/op")
		})
	}
}

// BenchmarkAblationReadFromReplicas measures the Section 4.2 extension:
// read-load spread across holders (reported as the busiest node's share of
// reads) with replica reads off vs on.
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := m.Read(fvh, 0, 32<<10); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			spread := m.ReadSpread()
			var total, max int64
			for _, v := range spread {
				total += v
				if v > max {
					max = v
				}
			}
			if total > 0 {
				b.ReportMetric(float64(max)/float64(total)*100, "busiest-node-%reads")
				b.ReportMetric(float64(len(spread)), "nodes-serving")
			}
		})
	}
}

// BenchmarkAblationMetadataCache quantifies the client-side attribute/name
// caches plus READDIRPLUS batching: a readdir+stat-all-entries scan with the
// caches on vs off, reported as NFS round trips per client operation and the
// percent of RPCs the caches eliminate.
func BenchmarkAblationMetadataCache(b *testing.B) {
	opts := experiments.DefaultCacheAblationOptions()
	if testing.Short() {
		opts = experiments.QuickCacheAblationOptions()
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCacheAblation(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On.RPCsOp, "rpcs/op-cached")
		b.ReportMetric(res.Off.RPCsOp, "rpcs/op-uncached")
		b.ReportMetric(res.RPCReductionPct, "rpc-reduction-%")
		b.ReportMetric(res.TimeSavedPct, "sim-time-saved-%")
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
