package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestLookupPathAllocs pins the allocation count of the uncached metadata
// path: a 4-component Mount.LookupPath over simnet with the client caches
// off is one resolver-cache hit and one LOOKUPPATH round trip: 2
// allocations. One is the message, the reply frame: the nfs client's codec
// (its encoder and decoder in one object, with the array the request frame
// is encoded into) is a pooled one. The other is the handle-table row, which
// keeps no physical path: the walk encodes the storage root and the levels
// below it as components where they lie (nfs.Client.WalkParts), and the row
// derives the path from them (ventry.at). It was 3 while the physical
// directory was joined for the walk and kept in the row.
// The server looks every component up where it lies in the request frame
// (FileSystem.LookupName) and the resolver's levels are prefixes of the
// path, so neither costs anything. It was 4 while every call allocated its
// codec, 5 while the request frame was
// allocated beside the codec, 7 while the server decoded each name into a
// string to look it up (a one-byte name cost nothing even then), 14 while
// the path was split, every level re-joined to probe the resolver cache, the
// codec was two objects, and the row's path was joined from the components
// again; the per-component walk before LOOKUPPATH (a GETATTR and four
// LOOKUPs) spent 36. A ReadFile of the same file is that walk asking for the
// data too, which the reply frame carries: 2 as well (3, 4, 5, 7, and 15
// before that).
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
	if n > 2 {
		t.Errorf("uncached 4-component LookupPath allocates %.1f times, want <= 2: the row and the reply", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _, err = m.ReadFile(file) }); err != nil || n > 2 {
		t.Errorf("uncached ReadFile of a 1-byte file allocates %.1f times (err=%v), want <= 2", n, err)
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

// servingNet is simnet counting the objects allocated inside its outermost
// calls: by the transport, the handlers serving them and every call those
// make, so what a caller allocates itself is the rest.
type servingNet struct {
	*simnet.Network
	depth  int
	inside uint64
}

func (s *servingNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	var ms runtime.MemStats
	if s.depth++; s.depth == 1 {
		runtime.ReadMemStats(&ms)
		s.inside -= ms.Mallocs
	}
	resp, cost, err := s.Network.CallCtx(ctx, from, to, service, req)
	if s.depth--; s.depth == 0 {
		runtime.ReadMemStats(&ms)
		s.inside += ms.Mallocs
	}
	return resp, cost, err
}

// callerAllocs returns the fewest objects op allocated outside s's calls over
// runs runs of it, which it is handed the index of.
func (s *servingNet) callerAllocs(t *testing.T, runs int, op func(i int) error) uint64 {
	t.Helper()
	least := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		total, inside := ms.Mallocs, s.inside
		err := op(i)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, ms.Mallocs-total-(s.inside-inside))
	}
	return least
}

// TestHeldHandleMutationsAllocateOnlyTheirReply pins what Remove, Rmdir and
// Rename cost a client that holds the directory's handle below level L:
// nothing beyond the kApply reply, which the serving side allocates. The
// request encodes each physical path from the row's parts (ventry.at) and
// the caches drop the names in place (dropChildUnder); a Remove or an Rmdir
// allocated 2 objects before, joining the path, and a Rename 8.
func TestHeldHandleMutationsAllocateOnlyTheirReply(t *testing.T) {
	sn := &servingNet{Network: simnet.New(simnet.LAN100)}
	nodes := testClusterOn(t, sn, 8, 5, Config{DistributionLevel: 2, Replicas: 2, TraceBufSize: -1})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 16
	names := func(prefix string) []string {
		out := make([]string, runs)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	files, dirs, from, to := names("f"), names("d"), names("r"), names("s")
	for i := 0; i < runs; i++ {
		for _, name := range []string{files[i], from[i]} {
			vh, _, _, err := m.Create(dir, name, 0o644, false)
			if err != nil {
				t.Fatal(err)
			}
			m.Forget(vh)
		}
		vh, _, _, err := m.Mkdir(dir, dirs[i], 0o755)
		if err != nil {
			t.Fatal(err)
		}
		m.Forget(vh)
	}
	racetest.SkipAllocs(t)
	ops := []struct {
		name string
		op   func(i int) error
	}{
		{"Remove", func(i int) error { _, err := m.Remove(dir, files[i]); return err }},
		{"Rmdir", func(i int) error { _, err := m.Rmdir(dir, dirs[i]); return err }},
		{"Rename", func(i int) error { _, err := m.Rename(dir, from[i], dir, to[i]); return err }},
	}
	for _, o := range ops {
		if n := sn.callerAllocs(t, runs, o.op); n != 0 {
			t.Errorf("%s on a held handle allocates %d objects on the client, want 0 beyond the kApply reply", o.name, n)
		}
	}
}

// TestRootListingAllocatesItsSlices: listing "/" asks the index's holder
// whether it still owns the key beside the READDIRPLUS, and reads only the
// verdict, so the client allocates the page's entry slice and the listing
// alone; the names are views of the page. It was 8 objects with three names
// at K = 2: a string per name, and the K holders' addresses decoded into a
// fresh slice of fresh strings.
func TestRootListingAllocatesItsSlices(t *testing.T) {
	sn := &servingNet{Network: simnet.New(simnet.LAN100)}
	nodes := testClusterOn(t, sn, 8, 5, Config{Replicas: 2, TraceBufSize: -1})
	m := nodes[0].NewMount()
	for _, name := range []string{"alice", "bob", "carol"} {
		if _, _, _, err := m.Mkdir(m.Root(), name, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	racetest.SkipAllocs(t)
	if n := sn.callerAllocs(t, 16, func(int) error {
		ents, _, err := m.Readdir(m.Root())
		if err == nil && len(ents) != 3 {
			t.Fatalf("the root lists %v", ents)
		}
		return err
	}); n != 2 {
		t.Errorf("listing the root allocates %d objects on the client, want 2: the page's entries and the listing", n)
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
// table allocates one object beyond what its handler builds: the reply at
// its own length. The decoder and the encoder sit in a pooled wire.Codec,
// whose array a reply of up to 264 bytes is encoded into and then copied out
// of; a larger reply is the frame the encoder grew past the array, exactly
// one up to twice the array, handed over as it is. A TREE_DIGEST reply is 52
// bytes, and the caller gets them in a 64-byte slice; a DIR_DIGESTS reply of
// 6 entries, 300 bytes, in its grown 576-byte frame (the size class of twice
// the array), with no Codec. A reply that is a status alone, a failure's or
// a kMirror's, is the status's shared frame (wire.StatusFrame): nothing
// beyond the handler (it was a 4-byte copy). It was the
// Codec, 416 bytes, while each reply was encoded into a fresh one, 2 objects
// while the reply was a frame beside the codec object, 4 while the reply was
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
	missing := applyReq{Op: FSOp{Kind: FSRemove, Path: "/h/none"}}
	mirror := applyReq{Op: FSOp{Kind: FSWrite, Path: "/h/d/f", Data: []byte("y")}}
	handle := n.serve(KoshaService, koshaProcs)
	racetest.SkipAllocs(t)
	for _, c := range []struct {
		req      []byte
		code     uint32
		len, cap int     // the reply's length and the most room it may hold
		objs     float64 // objects beyond the handler's
	}{
		{treeDigest.Bytes(), codeOK, 52, 64, 1},
		{dirDigests.Bytes(), codeOK, 300, 576, 1},
		// A reply that is a status alone is the status's shared frame.
		{missing.request(kApply).E.Bytes(), codeNFSBase + uint32(nfs.ErrNoEnt), 4, 4, 0},
		{mirror.request(kMirror).E.Frame().AppendTo(nil), codeOK, 4, 4, 0},
	} {
		var resp []byte
		var err error
		serve := func() { resp, _, err = handle(obs.TraceContext{}, "peer", c.req) }
		serve() // warm the memo
		served := testing.AllocsPerRun(100, serve)
		if err != nil || wire.NewDecoder(resp).Uint32() != c.code || len(resp) != c.len || cap(resp) > c.cap {
			t.Fatalf("proc %d = %d bytes in %d of room, %v; want %d in at most %d", c.req[3], len(resp), cap(resp), err, c.len, c.cap)
		}
		if c.len == 4 && &resp[0] != &wire.StatusFrame(c.code)[0] {
			t.Errorf("proc %d: a bare status %d is not its shared frame", c.req[3], c.code)
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
		if served != handler+c.objs {
			t.Errorf("a served proc %d with a %d-byte reply allocates %.0f times, its handler %.0f: want %.0f beyond the handler",
				c.req[3], len(resp), served, handler, c.objs)
		}
	}
}

// TestServedReplyDoesNotPinItsRequest: a reply small enough to be encoded in
// the serving Codec keeps that Codec alive as long as the caller holds the
// reply, and the Codec's decoder has read the request; serve lets go of the
// request first, so an 84-byte kApply reply held by its caller does not keep
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
	req := r.request(kApply).E.Frame().AppendTo(nil) // as it arrives over TCP: one flat frame
	freed := make(chan struct{})
	runtime.SetFinalizer(&req[0], func(*byte) { close(freed) })
	resp, _, err := handle(obs.TraceContext{}, "peer", req)
	if err != nil || len(resp) > 264 || wire.NewDecoder(resp).Uint32() != codeOK {
		t.Fatalf("kApply = %d bytes, %v; want a reply inside the Codec", len(resp), err)
	}
	req = nil
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
// decoded into fresh strings). The op's paths allocate nothing: an apply's
// are views of the frame, and a mirror's replica paths, a rename's two
// included, are built into the handler's room (one per path while each was
// a fresh string, two before that: the decoded path, then the joined one).
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
		req := r.request(proc).E.Frame()
		var err error
		serve := func() {
			var resp []byte
			if resp, _, err = handle(obs.TraceContext{}, "peer", wire.Lend(req)); err == nil && wire.NewDecoder(resp).Uint32() != codeOK {
				err = fmt.Errorf("reply code %x", resp[:4])
			}
			wire.EndLend(req)
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
		req := r.request(kMirror).E.Frame().AppendTo(nil)[4:]
		var d wire.Decoder
		room := new(applyRoom)
		allocs := testing.AllocsPerRun(100, func() {
			d.Reset(req)
			r = decodeApplyReq(&d, n.rep, mirror, room)
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
		{false, write, "/home/f", "", 0},
		{true, write, RepPath("/home/f"), "", 0},
		{true, rename, RepPath("/home/f"), RepPath("/home/g"), 0},
		{false, rename, "/home/f", "/home/g", 0},
	} {
		r, allocs := decoded(c.mirror, c.op)
		if r.Op.Path != c.path || r.Op.Path2 != c.path2 || r.Track != tracked {
			t.Errorf("mirror=%v %v: decoded %q %q %+v, want %q %q %+v", c.mirror, c.op.Kind, r.Op.Path, r.Op.Path2, r.Track, c.path, c.path2, tracked)
		}
		if allocs != c.allocs {
			t.Errorf("mirror=%v %v: decoding allocates %.0f times, want %.0f: no path and no Track string", c.mirror, c.op.Kind, allocs, c.allocs)
		}
	}
}
