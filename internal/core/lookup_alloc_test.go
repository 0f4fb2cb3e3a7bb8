package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestLookupPathAllocs pins the allocation count of the uncached metadata
// path: a 4-component Mount.LookupPath over simnet with the client caches
// off is one resolver-cache hit and one LOOKUPPATH round trip: 14
// allocations. The per-component walk it replaced (a GETATTR and four
// LOOKUPs, the path split three times over) spent 36. A ReadFile of the same
// file is that walk asking for the data too, and allocates one more. The
// cached counterpart
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
	if n > 14 {
		t.Errorf("uncached 4-component LookupPath allocates %.1f times, want <= 14", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _, err = m.ReadFile(file) }); err != nil || n > 15 {
		t.Errorf("uncached ReadFile of a 1-byte file allocates %.1f times (err=%v), want <= 15", n, err)
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

// walkCounter is a store that counts its whole-subtree walks. It embeds the
// concrete store so the Merkle memo still sees its mutation notifications.
type walkCounter struct {
	*localfs.FS
	walks int
}

func (w *walkCounter) Walk(p string, fn localfs.WalkFunc) error {
	w.walks++
	return w.FS.Walk(p, fn)
}

// TestTreeDigestAnswersFromTheMemo: what a peer holds is asked with
// TREE_DIGEST, and a warm hierarchy answers it from the Merkle memo — no
// more allocations at 1000 files than at 100, and no walk of the store. An
// ask for the versions alone costs the same on a hierarchy just mutated (its
// memo dropped) and is the 20-byte reply a missing root gets. (The retired
// STAT_TREE walked the subtree on every question.)
func TestTreeDigestAnswersFromTheMemo(t *testing.T) {
	ask := func(files int) (hashed, plain float64, walks int) {
		store := &walkCounter{FS: localfs.New(0, simnet.Disk7200)}
		state := uint64(5)
		n := NewNodeWithStore("k0", id.Rand128(&state), simnet.New(simnet.LAN100), Config{}, store)
		for i := 0; i < files; i++ {
			if err := store.WriteFile(fmt.Sprintf("/h/d%d/f%d", i%10, i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		handle := n.serve(KoshaService, koshaProcs)
		answer := func(hash bool, size int) func() {
			e := wire.NewEncoder(16)
			e.PutUint32(kTreeDigest)
			e.PutString("/h")
			e.PutBool(hash)
			return func() {
				resp, _, err := handle(obs.TraceContext{}, "peer", e.Bytes())
				d := wire.NewDecoder(resp)
				if err != nil || d.Uint32() != codeOK || !d.Bool() || len(resp) != size {
					t.Fatalf("TREE_DIGEST = %x, %v, want %d bytes for an existing root", resp, err, size)
				}
			}
		}
		answer(true, 52)() // warm the memo
		store.walks = 0
		hashed = testing.AllocsPerRun(100, answer(true, 52))
		if err := store.WriteFile("/h/d0/f0", []byte("y")); err != nil {
			t.Fatal(err)
		}
		plain = testing.AllocsPerRun(100, answer(false, 20))
		return hashed, plain, store.walks
	}
	small, smallPlain, walksSmall := ask(100)
	large, largePlain, walksLarge := ask(1000)
	// Two allocations of slack: under the race detector the runtime's own
	// allocations land in the count. A walk costs two per file.
	if large > small+2 || largePlain > smallPlain+2 || walksSmall != 0 || walksLarge != 0 {
		t.Fatalf("TREE_DIGEST: %.0f warm / %.0f version-only allocs, %d walks at 100 files; %.0f / %.0f, %d at 1000; want allocations flat in the file count and no walk",
			small, smallPlain, walksSmall, large, largePlain, walksLarge)
	}
}
