package core

import (
	"testing"
	"time"
)

// TestLookupPathAllocs pins the allocation count of the uncached metadata
// path: a 4-component Mount.LookupPath over simnet with the client caches
// off is one resolver-cache hit and one LOOKUPPATH round trip: 16
// allocations. The per-component walk it replaced (a GETATTR and four
// LOOKUPs, the path split three times over) spent 36. The cached counterpart
// is pinned beside it: a Mount.Lookup answered by a warm name-cache row joins
// the child's path (2), splits the directory's to find its depth (1) and
// publishes one handle-table row (1): 4 allocations and no RPC.
func TestLookupPathAllocs(t *testing.T) {
	_, nodes := testCluster(t, 8, 5, Config{DistributionLevel: 2, NoMetadataCache: true, TraceBufSize: -1})
	m := nodes[0].NewMount()
	const file = "/a/b/c/file.txt"
	if _, err := m.WriteFile(file, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var err error
	n := testing.AllocsPerRun(200, func() {
		var vh VH
		if vh, _, _, err = m.LookupPath(file); err == nil {
			m.Forget(vh)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > 16 {
		t.Errorf("uncached 4-component LookupPath allocates %.1f times, want <= 16", n)
	}

	_, nodes = testCluster(t, 8, 5, Config{DistributionLevel: 2, AttrCacheTTL: time.Hour, NameCacheTTL: time.Hour, TraceBufSize: -1})
	m = nodes[0].NewMount()
	if _, err := m.WriteFile(file, []byte("x")); err != nil {
		t.Fatal(err)
	}
	dir, _, _, err := m.LookupPath("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].ResetNFSStats()
	n = testing.AllocsPerRun(200, func() {
		var vh VH
		if vh, _, _, err = m.Lookup(dir, "file.txt"); err == nil {
			m.Forget(vh)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rpcs := nodes[0].NFSStats().RPCs; n > 4 || rpcs > 1 {
		t.Errorf("warm name-hit Lookup allocates %.1f times over %d RPCs, want <= 4 and the one warming LOOKUP", n, rpcs)
	}
}
