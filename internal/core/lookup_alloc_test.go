package core

import "testing"

// TestLookupPathAllocs pins the allocation count of the uncached metadata
// path: a 4-component Mount.LookupPath over simnet with the client caches
// off is one resolver-cache hit and one LOOKUPPATH round trip: 16
// allocations. The per-component walk it replaced (a GETATTR and four
// LOOKUPs, the path split three times over) spent 36.
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
}
