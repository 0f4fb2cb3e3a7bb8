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
// off is one resolver-cache hit and one LOOKUPPATH round trip: 7
// allocations. Three are the message: the request frame, the nfs client's
// codec (its encoder and decoder in one object) and the reply frame. Two are
// the names the server decodes to look up, the storage root's and the file's
// (a one-byte name costs nothing). One is the physical directory, the
// storage root joined to the levels below it, and one the handle-table row.
// The resolver's levels are prefixes of the path and cost nothing. It was 14
// while the path was split, every level re-joined to probe the resolver
// cache, the codec was two objects, and the row's path was joined from the
// components again; the per-component walk before LOOKUPPATH (a GETATTR and
// four LOOKUPs) spent 36. A ReadFile of the same file is that walk asking
// for the data too, which the reply frame carries: 7 as well (15 before).
// The cached counterpart is pinned beside it: a Mount.Lookup answered by a
// warm name-cache row publishes one handle-table row and nothing else, no
// RPC (4 before: the child's path joined twice over and the directory's
// split to find its depth).
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
	if n > 7 {
		t.Errorf("uncached 4-component LookupPath allocates %.1f times, want <= 7", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _, err = m.ReadFile(file) }); err != nil || n > 7 {
		t.Errorf("uncached ReadFile of a 1-byte file allocates %.1f times (err=%v), want <= 7", n, err)
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
	if rpcs := nodes[0].NFSStats().RPCs; n > 1 || rpcs > 1 {
		t.Errorf("warm name-hit Lookup allocates %.1f times over %d RPCs, want <= 1 and the one warming LOOKUP", n, rpcs)
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

// TestServeAllocatesTheReplyAndOneObject: a request served through the kosha
// dispatch table allocates its reply frame and one object, the decoder and
// the encoder together, beyond what its handler builds. The reply is the
// encoder's own bytes; it used to be copied once more, and the decoder and
// the encoder were an object each (4 beyond the handler).
func TestServeAllocatesTheReplyAndOneObject(t *testing.T) {
	store := localfs.New(0, simnet.Disk7200)
	state := uint64(5)
	n := NewNodeWithStore("k0", id.Rand128(&state), simnet.New(simnet.LAN100), Config{}, store)
	if err := store.WriteFile("/h/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	e := wire.NewEncoder(16)
	e.PutUint32(kTreeDigest)
	e.PutString("/h")
	e.PutBool(true)
	req := e.Bytes()
	handle := n.serve(KoshaService, koshaProcs)
	var resp []byte
	var err error
	serve := func() { resp, _, err = handle(obs.TraceContext{}, "peer", req) }
	serve() // warm the memo
	served := testing.AllocsPerRun(100, serve)
	if err != nil || len(resp) != 52 {
		t.Fatalf("TREE_DIGEST = %x, %v, want 52 bytes", resp, err)
	}
	var d wire.Decoder
	var out wire.Encoder
	out.Grow(256)
	handler := testing.AllocsPerRun(100, func() {
		d.Reset(req[4:])
		out.Reset()
		_, err = n.serveTreeDigest(obs.TraceContext{}, "peer", &d, &out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if served > handler+2 {
		t.Errorf("a served TREE_DIGEST allocates %.0f times, its handler %.0f: want the reply frame and one object beyond the handler", served, handler)
	}
}
