package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestLookupPathAllocs pins the allocation count of the uncached metadata
// path: a 4-component Mount.LookupPath over simnet with the client caches
// off is one resolver-cache hit and one LOOKUPPATH round trip: 4
// allocations. Two are the message: the nfs client's codec (its encoder and
// decoder in one object, with the array the request frame is encoded into)
// and the reply frame. One is the physical directory, the storage root
// joined to the levels below it, and one the handle-table row. The server
// looks every component up where it lies in the request frame
// (FileSystem.LookupName) and the resolver's levels are prefixes of the
// path, so neither costs anything. It was 5 while the request frame was
// allocated beside the codec, 7 while the server decoded each name into a
// string to look it up (a one-byte name cost nothing even then), 14 while
// the path was split, every level re-joined to probe the resolver cache, the
// codec was two objects, and the row's path was joined from the components
// again; the per-component walk before LOOKUPPATH (a GETATTR and four
// LOOKUPs) spent 36. A ReadFile of the same file is that walk asking for the
// data too, which the reply frame carries: 4 as well (5, 7, and 15 before
// that).
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
	racetest.SkipAllocs(t)
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
	if n > 4 {
		t.Errorf("uncached 4-component LookupPath allocates %.1f times, want <= 4", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _, err = m.ReadFile(file) }); err != nil || n > 4 {
		t.Errorf("uncached ReadFile of a 1-byte file allocates %.1f times (err=%v), want <= 4", n, err)
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

// TestServeAllocatesOneObject: a request served through the kosha dispatch
// table allocates one object beyond what its handler builds, a wire.Codec:
// the decoder, the encoder and the array a reply of up to 248 bytes is
// encoded into, which the caller is handed. A larger reply adds the frames
// the encoder grows into past the array, as a fresh encoder's would: exactly
// one up to twice the array. A TREE_DIGEST reply is 52 bytes; a DIR_DIGESTS
// reply of 6 entries, 300 bytes. It was 2 while
// the reply was a frame beside the codec object, 4 while the reply was
// copied once more and the decoder and the encoder were an object each.
func TestServeAllocatesOneObject(t *testing.T) {
	store := localfs.New(0, simnet.Disk7200)
	state := uint64(5)
	n := NewNodeWithStore("k0", id.Rand128(&state), simnet.New(simnet.LAN100), Config{}, store)
	if err := store.WriteFile("/h/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := store.WriteFile(fmt.Sprintf("/h/wide/file%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	treeDigest := wire.NewEncoder(16)
	treeDigest.PutUint32(kTreeDigest)
	treeDigest.PutString("/h")
	treeDigest.PutBool(true)
	dirDigests := wire.NewEncoder(16)
	dirDigests.PutUint32(kDirDigests)
	dirDigests.PutString("/h/wide")
	handle := n.serve(KoshaService, koshaProcs)
	racetest.SkipAllocs(t)
	for _, c := range []struct {
		req    []byte
		frames float64 // beyond the Codec
	}{{treeDigest.Bytes(), 0}, {dirDigests.Bytes(), 1}} {
		var resp []byte
		var err error
		serve := func() { resp, _, err = handle(obs.TraceContext{}, "peer", c.req) }
		serve() // warm the memo
		served := testing.AllocsPerRun(100, serve)
		if err != nil || wire.NewDecoder(resp).Uint32() != codeOK || (len(resp) > 248) != (c.frames > 0) {
			t.Fatalf("proc %d = %d bytes, %v", c.req[3], len(resp), err)
		}
		var d wire.Decoder
		var out wire.Encoder
		out.Grow(64 << 10)
		handler := testing.AllocsPerRun(100, func() {
			d.Reset(c.req[4:])
			out.Reset()
			_, err = koshaProcs[uint32(c.req[3])].serve(n, obs.TraceContext{}, "peer", &d, &out)
		})
		if err != nil {
			t.Fatal(err)
		}
		if served != handler+1+c.frames {
			t.Errorf("a served proc %d with a %d-byte reply allocates %.0f times, its handler %.0f: want the Codec and %.0f frames beyond the handler",
				c.req[3], len(resp), served, handler, c.frames)
		}
	}
}

// TestServedReplyDoesNotPinItsRequest: a reply small enough to be encoded in
// the serving Codec keeps that Codec alive as long as the caller holds the
// reply, and the Codec's decoder has read the request; serve lets go of the
// request first, so a 20-byte kApply reply held by its caller does not keep
// the 1 MiB frame it answered alive.
func TestServedReplyDoesNotPinItsRequest(t *testing.T) {
	store := localfs.New(0, simnet.Disk7200)
	state := uint64(5)
	n := NewNodeWithStore("k0", id.Rand128(&state), simnet.New(simnet.LAN100), Config{}, store)
	handle := n.serve(KoshaService, koshaProcs)
	if err := store.WriteFile("/home/f", nil); err != nil {
		t.Fatal(err)
	}
	r := applyReq{Op: FSOp{Kind: FSWrite, Path: "/home/f", Data: make([]byte, 1<<20)}}
	frame := r.frame(kApply)
	req := make([]byte, len(frame))
	copy(req, frame)
	freed := make(chan struct{})
	runtime.SetFinalizer(&req[0], func(*byte) { close(freed) })
	resp, _, err := handle(obs.TraceContext{}, "peer", req)
	if err != nil || len(resp) > 248 || wire.NewDecoder(resp).Uint32() != codeOK {
		t.Fatalf("kApply = %d bytes, %v; want a reply inside the Codec", len(resp), err)
	}
	req, frame = nil, nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(resp)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("the %d-byte kApply request is still alive while its %d-byte reply is held", len(r.Op.Data), len(resp))
	runtime.KeepAlive(resp)
}

// TestServedMutationAllocatesNoTrackStrings: a served kApply or kMirror of a
// write into a hierarchy the node already tracks takes the Track's names from
// the engine's record, so it allocates no more than the same write carrying
// no Track at all (two more, its PN and root, while the frame's names were
// decoded into fresh strings). Of the op's paths, the apply allocates the one
// it stores by, and the mirror exactly one replica path, the replica-area
// prefix joined onto the frame's bytes once (two before: the decoded path,
// then the joined one); a mirrored rename, one per path.
func TestServedMutationAllocatesNoTrackStrings(t *testing.T) {
	store := localfs.New(0, simnet.Disk7200)
	state := uint64(5)
	n := NewNodeWithStore("k0", id.Rand128(&state), simnet.New(simnet.LAN100), Config{}, store)
	for _, p := range []string{"/home/f", RepPath("/home/f")} {
		if err := store.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	handle := n.serve(KoshaService, koshaProcs)
	tracked := Track{PN: "home", Root: "/home"}
	write := FSOp{Kind: FSWrite, Path: "/home/f", Data: []byte("y")}
	served := func(proc uint32, tr Track) float64 {
		r := applyReq{Track: tr, Op: write}
		req := r.frame(proc)
		var err error
		serve := func() {
			var resp []byte
			if resp, _, err = handle(obs.TraceContext{}, "peer", req); err == nil && wire.NewDecoder(resp).Uint32() != codeOK {
				err = fmt.Errorf("reply code %x", resp[:4])
			}
		}
		serve() // the first apply of the hierarchy records it
		allocs := testing.AllocsPerRun(100, serve)
		if err != nil {
			t.Fatalf("proc %d: %v", proc, err)
		}
		return allocs
	}
	racetest.SkipAllocs(t)
	for _, proc := range []uint32{kApply, kMirror} {
		if got, none := served(proc, tracked), served(proc, Track{}); got > none {
			t.Errorf("proc %d: a write into a tracked hierarchy allocates %.0f times, %.0f with no Track: want no Track strings", proc, got, none)
		}
	}

	decoded := func(mirror bool, op FSOp) (applyReq, float64) {
		r := applyReq{Track: tracked, Op: op}
		req := r.frame(kMirror)[4:]
		var d wire.Decoder
		allocs := testing.AllocsPerRun(100, func() {
			d.Reset(req)
			r = decodeApplyReq(&d, n.rep, mirror)
		})
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		return r, allocs
	}
	rename := FSOp{Kind: FSRename, Path: "/home/f", Path2: "/home/g"}
	for _, c := range []struct {
		mirror      bool
		op          FSOp
		path, path2 string
		allocs      float64
	}{
		{false, write, "/home/f", "", 1},
		{true, write, RepPath("/home/f"), "", 1},
		{true, rename, RepPath("/home/f"), RepPath("/home/g"), 2},
	} {
		r, allocs := decoded(c.mirror, c.op)
		if r.Op.Path != c.path || r.Op.Path2 != c.path2 || r.Track != tracked {
			t.Errorf("mirror=%v %v: decoded %q %q %+v, want %q %q %+v", c.mirror, c.op.Kind, r.Op.Path, r.Op.Path2, r.Track, c.path, c.path2, tracked)
		}
		if allocs != c.allocs {
			t.Errorf("mirror=%v %v: decoding allocates %.0f times, want %.0f: its paths and no Track string", c.mirror, c.op.Kind, allocs, c.allocs)
		}
	}
}
