package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/localfs"
	"repro/internal/nfs"
)

// TestCachedMetadataHitsCostInterposeOnly verifies the acceptance criterion
// that a Getattr or Lookup served from the client caches is charged exactly
// the interposition constant — no link or disk cost — and issues no RPC.
func TestCachedMetadataHitsCostInterposeOnly(t *testing.T) {
	_, nodes := testCluster(t, 4, 9001, Config{})
	n := nodes[0]
	m := n.NewMount()
	if _, err := m.WriteFile("/home/notes.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	dirVH, _, _, err := m.LookupPath("/home")
	if err != nil {
		t.Fatal(err)
	}

	// First lookup resolves over the network and warms both caches.
	vh, attr, _, err := m.Lookup(dirVH, "notes.txt")
	if err != nil || attr.Size != 5 {
		t.Fatalf("lookup: %+v err=%v", attr, err)
	}

	n.ResetNFSStats()
	attr2, cost, err := m.Getattr(vh)
	if err != nil || attr2 != attr {
		t.Fatalf("cached getattr: %+v err=%v", attr2, err)
	}
	if cost != InterposeCost {
		t.Fatalf("cached getattr cost %v, want exactly I=%v", cost, InterposeCost)
	}
	vh2, attr3, cost, err := m.Lookup(dirVH, "notes.txt")
	if err != nil || attr3 != attr {
		t.Fatalf("cached lookup: %+v err=%v", attr3, err)
	}
	if cost != InterposeCost {
		t.Fatalf("cached lookup cost %v, want exactly I=%v", cost, InterposeCost)
	}
	if s := n.NFSStats(); s.RPCs != 0 {
		t.Fatalf("cache hits issued %d RPCs", s.RPCs)
	}
	// The cached handle remains fully usable.
	data, _, _, err := m.Read(vh2, 0, 100)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read via cached handle: %q err=%v", data, err)
	}
}

// TestReaddirPlusPrewarmsCaches verifies the N+1 collapse: after one
// Readdir, stat-ing every listed entry issues zero further RPCs.
func TestReaddirPlusPrewarmsCaches(t *testing.T) {
	_, nodes := testCluster(t, 4, 9002, Config{})
	n := nodes[0]
	m := n.NewMount()
	const files = 12
	for i := 0; i < files; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/proj/f%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	dirVH, _, _, err := m.LookupPath("/proj")
	if err != nil {
		t.Fatal(err)
	}
	ents, _, err := m.Readdir(dirVH)
	if err != nil || len(ents) != files {
		t.Fatalf("readdir: %d entries err=%v", len(ents), err)
	}

	n.ResetNFSStats()
	for _, e := range ents {
		vh, _, _, err := m.Lookup(dirVH, e.Name)
		if err != nil {
			t.Fatalf("lookup %s: %v", e.Name, err)
		}
		if _, _, err := m.Getattr(vh); err != nil {
			t.Fatalf("getattr %s: %v", e.Name, err)
		}
		m.forget(vh)
	}
	if s := n.NFSStats(); s.RPCs != 0 {
		t.Fatalf("stat-all-entries after readdir issued %d RPCs, want 0", s.RPCs)
	}
}

// TestWriteInvalidatesCachedAttrs: a write through the same mount must not
// leave a stale size in the caches, whichever of them answers: Getattr on the
// handle, or Lookup by name (a warm name-cache row), write-through and with a
// write-back buffer absorbing the write.
func TestWriteInvalidatesCachedAttrs(t *testing.T) {
	for _, wb := range []int{0, 1 << 20} {
		_, nodes := testCluster(t, 4, 9003, Config{
			WriteBackBytes: wb, AttrCacheTTL: time.Hour, NameCacheTTL: time.Hour,
		})
		m := nodes[0].NewMount()
		if _, err := m.WriteFile("/home/f", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		dir, _, _, err := m.LookupPath("/home")
		if err != nil {
			t.Fatal(err)
		}
		vh, attr, _, err := m.LookupPath("/home/f")
		if err != nil || attr.Size != 3 {
			t.Fatalf("wb=%d lookup: %+v err=%v", wb, attr, err)
		}
		sizes := func(when string, want int64) {
			t.Helper()
			// Getattr first: under write-back it is what lands the buffered
			// bytes, and a LOOKUP answers with what the primary holds.
			if attr, _, err := m.Getattr(vh); err != nil || attr.Size != want {
				t.Errorf("wb=%d %s getattr: size %d err=%v, want %d (stale cache?)", wb, when, attr.Size, err, want)
			}
			byName, attr, _, err := m.Lookup(dir, "f")
			if err != nil || attr.Size != want {
				t.Errorf("wb=%d %s lookup by name: size %d err=%v, want %d (stale cache?)", wb, when, attr.Size, err, want)
			}
			m.Forget(byName)
		}
		sizes("pre-write", 3) // and warms the name cache
		if _, _, err := m.Write(vh, 3, []byte("defg")); err != nil {
			t.Fatal(err)
		}
		sizes("post-write", 7)
		sz := int64(2)
		if _, _, err := m.Setattr(vh, localfs.SetAttr{Size: &sz}); err != nil {
			t.Fatal(err)
		}
		sizes("post-truncate", 2)
	}
}

// TestCrossMountWriteVisibility: a writer on node A must be visible through
// node B's mount — immediately on the data path (reads bypass the metadata
// caches), and on the attribute path no later than the TTL.
func TestCrossMountWriteVisibility(t *testing.T) {
	_, nodes := testCluster(t, 4, 9004, Config{})
	ma := nodes[0].NewMount()
	mb := nodes[1].NewMount()

	if _, err := ma.WriteFile("/share/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	vhB, attrB, _, err := mb.LookupPath("/share/f")
	if err != nil || attrB.Size != 2 {
		t.Fatalf("B lookup: %+v err=%v", attrB, err)
	}
	if attrB, _, err = mb.Getattr(vhB); err != nil || attrB.Size != 2 {
		t.Fatalf("B getattr: %+v err=%v", attrB, err)
	}

	// A extends the file; B's cached size may serve stale within the TTL...
	if _, err := ma.WriteFile("/share/f", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mb.Getattr(vhB); err != nil {
		t.Fatal(err)
	}
	// ...but a fresh open-and-read (close-to-open) sees the new data at once.
	data, _, err := mb.ReadFile("/share/f")
	if err != nil || !bytes.Equal(data, []byte("v2-longer")) {
		t.Fatalf("B read-after-remote-write: %q err=%v", data, err)
	}

	// Past the TTL the attribute cache must revalidate.
	mb.meta.now = func() time.Time {
		return time.Now().Add(nodes[1].Config().AttrCacheTTL + time.Second)
	}
	attrB, _, err = mb.Getattr(vhB)
	if err != nil || attrB.Size != int64(len("v2-longer")) {
		t.Fatalf("B getattr after TTL: %+v err=%v", attrB, err)
	}
}

// TestRenameRemoveDropCacheEntries: mutations must drop the name-cache
// entries they invalidate, on the mutating mount.
func TestRenameRemoveDropCacheEntries(t *testing.T) {
	_, nodes := testCluster(t, 4, 9005, Config{})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/w/old", []byte("x")); err != nil {
		t.Fatal(err)
	}
	dirVH, _, _, err := m.LookupPath("/w")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the caches for /w/old.
	if _, _, _, err := m.Lookup(dirVH, "old"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(dirVH, "old", dirVH, "new"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Lookup(dirVH, "old"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("lookup of renamed-away name: %v (served from stale cache?)", err)
	}
	if _, attr, _, err := m.Lookup(dirVH, "new"); err != nil || attr.Size != 1 {
		t.Fatalf("lookup of new name: %+v err=%v", attr, err)
	}

	// Warm, then remove: the name must disappear immediately.
	if _, _, _, err := m.Lookup(dirVH, "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Remove(dirVH, "new"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Lookup(dirVH, "new"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("lookup of removed name: %v (served from stale cache?)", err)
	}
}

// TestFailoverDropsCacheEntries: the failover invalidation path
// (dropCachesUnder) must flush metadata caches, and cached handles naming a
// crashed primary must transparently fail over on next use.
func TestFailoverDropsCacheEntries(t *testing.T) {
	net, nodes := testCluster(t, 6, 9006, Config{Replicas: 2})
	n := nodes[0]
	m := n.NewMount()
	if _, err := m.WriteFile("/ha/f", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	stabilizeAll(nodes)
	dirVH, _, _, err := m.LookupPath("/ha")
	if err != nil {
		t.Fatal(err)
	}
	vh, _, _, err := m.Lookup(dirVH, "f")
	if err != nil {
		t.Fatal(err)
	}

	// dropCachesUnder (the failover hook) must empty both caches for the
	// subtree: the next Getattr goes back to the network.
	m.dropCachesUnder("/ha/f")
	n.ResetNFSStats()
	if _, _, err := m.Getattr(vh); err != nil {
		t.Fatal(err)
	}
	if s := n.NFSStats(); s.RPCs == 0 {
		t.Fatal("getattr after dropCachesUnder served from cache")
	}

	// Crash the primary for /ha: reads through the cached handle must heal.
	pl, _, err := n.ResolvePath("/ha")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Node != n.Addr() { // only meaningful when the primary is remote
		for _, nd := range nodes {
			if nd.Addr() == pl.Node {
				nd.Fail()
			}
		}
		data, _, _, err := m.Read(vh, 0, 100)
		if err != nil || string(data) != "survives" {
			t.Fatalf("read after failover: %q err=%v", data, err)
		}
	}
	_ = net
}

// TestMetadataCacheDisabled: NoMetadataCache must force every Getattr and
// Lookup back onto the network.
func TestMetadataCacheDisabled(t *testing.T) {
	_, nodes := testCluster(t, 4, 9007, Config{NoMetadataCache: true})
	n := nodes[0]
	m := n.NewMount()
	if _, err := m.WriteFile("/home/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	dirVH, _, _, err := m.LookupPath("/home")
	if err != nil {
		t.Fatal(err)
	}
	vh, _, _, err := m.Lookup(dirVH, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Getattr(vh); err != nil {
		t.Fatal(err)
	}
	n.ResetNFSStats()
	if _, _, _, err := m.Lookup(dirVH, "f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Getattr(vh); err != nil {
		t.Fatal(err)
	}
	if s := n.NFSStats(); s.RPCs == 0 {
		t.Fatal("caching disabled but no RPCs issued")
	}
}

// TestConcurrentCacheUse exercises the cache paths from many goroutines so
// the -race run in CI covers the metadata maps.
func TestConcurrentCacheUse(t *testing.T) {
	_, nodes := testCluster(t, 4, 9008, Config{})
	m := nodes[0].NewMount()
	for i := 0; i < 6; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/c/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	dirVH, _, _, err := m.LookupPath("/c")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("f%d", (g+i)%6)
				vh, _, _, err := m.Lookup(dirVH, name)
				if err != nil {
					t.Errorf("lookup %s: %v", name, err)
					return
				}
				if _, _, err := m.Getattr(vh); err != nil {
					t.Errorf("getattr %s: %v", name, err)
					return
				}
				m.forget(vh)
				switch i % 10 {
				case 3:
					if _, _, err := m.Readdir(dirVH); err != nil {
						t.Errorf("readdir: %v", err)
						return
					}
				case 7:
					p := fmt.Sprintf("/c/g%d", g)
					if _, err := m.WriteFile(p, []byte("y")); err != nil {
						t.Errorf("write %s: %v", p, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestReaddirWithoutCacheBuildsNoRows: READDIRPLUS pre-warms the metadata
// cache with a row per child, and a mount whose cache keeps nothing builds
// none. Listing 50 entries then allocates no more than listing 5 beyond the
// names the longer reply decodes, one per entry: 45 more. The listing's
// slices are as many at either size, the decoded page and the result sized
// from it; they were 48 more while the lone page was copied into a
// drained-listing slice and the result grew by doubling. Building the rows
// cost four allocations an entry more (the child's virtual and physical
// paths, each joined and cleaned): 233. With the cache on the rows are built
// and serve the children with no RPC (TestReaddirPlusPrewarmsCaches).
func TestReaddirWithoutCacheBuildsNoRows(t *testing.T) {
	_, nodes := testCluster(t, 4, 9002, Config{NoMetadataCache: true, TraceBufSize: -1})
	m := nodes[0].NewMount()
	list := func(dir string, files int) float64 {
		for i := 0; i < files; i++ {
			if _, err := m.WriteFile(fmt.Sprintf("%s/f%02d", dir, i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		vh, _, _, err := m.LookupPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			var ents []DirEntry
			if ents, _, err = m.Readdir(vh); err == nil && len(ents) != files {
				t.Fatalf("%s: %d entries, want %d", dir, len(ents), files)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	small, large := list("/proj/small", 5), list("/proj/large", 50)
	if names := 45.0; large-small > names {
		t.Errorf("listing 50 entries allocates %.0f times, 5 entries %.0f: want at most %.0f more, the names decoded", large, small, names)
	}
}
