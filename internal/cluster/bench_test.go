package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkClusterBuild times a whole cluster build, the set-up of every
// benchmark workload: N joins through the first node, then three rounds of
// overlay repair and two of replica sync.
func BenchmarkClusterBuild(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(Options{Nodes: n, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
