package repl

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"testing"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// storePeer is a Peer whose remote node is a real engine (eng) over its own
// store (remote): digests, listings, links and blocks are answered from that
// store, Mirror applies ops the way a replica node would (replica-area
// translation, lenient semantics), and Pull runs the remote engine's own
// Pull, whose listing and block calls come back to the engine under test
// (local) through backPeer. Both repair directions are testable end to end
// without a network.
type storePeer struct {
	remote  localfs.FileSystem
	eng     *Engine
	reg     *obs.Registry // the remote engine's counters
	mk      *merkle.Cache // eng's digest cache
	blocks  *cas.Store    // eng's content-addressed block index
	local   *Engine       // the engine under test, which a Pull fetches from
	mirrors []mirrorRec
	pulls   []pullRec
	vers    map[string]uint64    // primary-relative root -> recorded Ver
	fetches map[simnet.Addr]int  // CHUNK_FETCH round trips served per holder address
	down    map[simnet.Addr]bool // addresses whose block procedures fail
	lies    map[simnet.Addr]bool // addresses whose CHUNK_FETCH answers carry wrong bytes
	// noManifest makes every CHUNK_MANIFEST answer exists=false, as a remote
	// whose file changed type would; noFetch makes every CHUNK_FETCH fail.
	noManifest, noFetch bool
	// onManifest, when set, runs once after a CHUNK_MANIFEST is answered.
	onManifest func()
	// localDown fails the block procedures a remote pull sends back to
	// local; localBatches records the size of each CHUNK_FETCH it sends.
	localDown    bool
	localBatches []int
}

// pullRec is one recorded Pull call.
type pullRec struct {
	to      simnet.Addr
	t       Track
	src     string
	primary bool
}

var errPeerDown = &nfs.Error{Proc: nfs.Proc(200), Status: nfs.ErrIO}

func newStorePeer() *storePeer {
	s := &storePeer{
		remote:  localfs.New(0, simnet.DiskModel{}),
		reg:     obs.NewRegistry(),
		vers:    map[string]uint64{},
		fetches: map[simnet.Addr]int{},
		down:    map[simnet.Addr]bool{},
		lies:    map[simnet.Addr]bool{},
	}
	s.eng = New(Options{
		Self:     "remote",
		Store:    s.remote,
		Overlay:  &fakeOverlay{},
		Peer:     backPeer{s},
		Replicas: 1,
		Key:      func(pn string) id.ID { return id.HashKey(pn) },
		Registry: s.reg,
	})
	s.mk, s.blocks = s.eng.mk, s.eng.cas
	return s
}

// serve makes e the engine the peer's pulls fetch from.
func serve(peer Peer, e *Engine) {
	switch p := peer.(type) {
	case *storePeer:
		p.local = e
	case *countingPeers:
		for _, s := range p.at {
			s.local = e
		}
	}
}

func (s *storePeer) Mirror(_ obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	s.mirrors = append(s.mirrors, mirrorRec{to: to, op: op, primary: primary})
	if !primary {
		op.Path = RepPath(op.Path)
	}
	if err := applyLenient(s.remote, op); err != nil {
		return 0, err
	}
	s.vers[t.Root] = t.Ver
	return 0, nil
}

// Pull runs the remote engine's pull from local, as a kPull handler would,
// and records the version the remote now holds.
func (s *storePeer) Pull(tc obs.TraceContext, to simnet.Addr, t Track, src string, primary bool) (simnet.Cost, error) {
	s.pulls = append(s.pulls, pullRec{to: to, t: t, src: src, primary: primary})
	c, err := s.eng.Pull(tc, "self", t, src, primary)
	if err == nil {
		s.vers[t.Root] = t.Ver
	}
	return c, err
}

// applyLenient executes the op kinds repair mirrors, with the tolerant
// semantics core's replica apply uses.
func applyLenient(fs localfs.FileSystem, op FSOp) error {
	switch op.Kind {
	case FSMkdirAll:
		_, err := fs.MkdirAll(op.Path)
		return err
	case FSRemoveAll:
		return fs.RemoveAll(op.Path)
	case FSSymlink:
		dir, err := fs.MkdirAll(path.Dir(op.Path))
		if err != nil {
			return err
		}
		fs.RemoveAll(op.Path)
		_, _, err = fs.Symlink(dir.Ino, path.Base(op.Path), op.Target)
		return err
	}
	return fmt.Errorf("storePeer: unscripted op %v", op.Kind)
}

// backPeer is the remote engine's network: every call reaches the engine
// under test, answered from its store as its koshad's handlers would.
type backPeer struct{ s *storePeer }

func (b backPeer) DirDigests(_ obs.TraceContext, _ simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	ents, ok, err := b.s.local.DirDigestsLocal(dir)
	return ents, ok, 0, err
}

func (b backPeer) ReadLink(_ obs.TraceContext, _ simnet.Addr, phys string) (string, simnet.Cost, error) {
	attr, err := b.s.local.store.LookupPath(phys)
	if err != nil {
		return "", 0, err
	}
	t, _, err := b.s.local.store.Readlink(attr.Ino)
	return t, 0, err
}

func (b backPeer) ChunkManifest(_ obs.TraceContext, _ simnet.Addr, phys string) (cas.Manifest, uint32, bool, simnet.Cost, error) {
	if b.s.localDown {
		return nil, 0, false, 0, errPeerDown
	}
	m, mode, ok := b.s.local.ManifestLocal(phys)
	return m, mode, ok, 0, nil
}

func (b backPeer) ChunkFetch(_ obs.TraceContext, _ simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	b.s.localBatches = append(b.s.localBatches, len(hashes))
	if b.s.localDown {
		return nil, 0, errPeerDown
	}
	b.s.local.ManifestLocal(phys)
	blocks := make([][]byte, len(hashes))
	for i, h := range hashes {
		blocks[i], _ = b.s.local.GetBlock(h)
	}
	return blocks, 0, nil
}

func (backPeer) Mirror(obs.TraceContext, simnet.Addr, Track, FSOp, bool) (simnet.Cost, error) {
	return 0, errPeerDown
}

func (backPeer) Promote(obs.TraceContext, simnet.Addr, Track) (bool, simnet.Cost, error) {
	return false, 0, errPeerDown
}

func (backPeer) Pull(obs.TraceContext, simnet.Addr, Track, string, bool) (simnet.Cost, error) {
	return 0, errPeerDown
}

func (backPeer) DigestTree(obs.TraceContext, simnet.Addr, string, bool) (TreeDigest, simnet.Cost, error) {
	return TreeDigest{}, 0, errPeerDown
}

func (s *storePeer) Promote(obs.TraceContext, simnet.Addr, Track) (bool, simnet.Cost, error) {
	return false, 0, nil
}

func (s *storePeer) DigestTree(_ obs.TraceContext, to simnet.Addr, root string, _ bool) (TreeDigest, simnet.Cost, error) {
	var td TreeDigest
	td.Ver = s.vers[PrimaryRoot(root)]
	if _, err := s.remote.LookupPath(root); err != nil {
		return td, 0, nil
	}
	td.Exists = true
	if _, err := s.remote.LookupPath(path.Join(root, MigrationFlag)); err == nil {
		td.Flag = true
	}
	if d, err := s.mk.DigestOf(root); err == nil {
		td.Root = d
	}
	return td, 0, nil
}

func (s *storePeer) DirDigests(_ obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	ents, ok, err := s.mk.Entries(dir)
	return ents, ok, 0, err
}

func (s *storePeer) ReadLink(_ obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	attr, err := s.remote.LookupPath(phys)
	if err != nil {
		return "", 0, err
	}
	t, _, err := s.remote.Readlink(attr.Ino)
	return t, 0, err
}

func (s *storePeer) ChunkManifest(_ obs.TraceContext, to simnet.Addr, phys string) (cas.Manifest, uint32, bool, simnet.Cost, error) {
	if s.down[to] {
		return nil, 0, false, 0, errPeerDown
	}
	var man cas.Manifest
	var mode uint32
	exists := false
	if attr, err := s.remote.LookupPath(phys); !s.noManifest && err == nil && attr.Type == localfs.TypeRegular {
		if m, err := s.mk.ManifestOf(phys); err == nil {
			man, mode, exists = m, attr.Mode, true
		}
	}
	if hook := s.onManifest; hook != nil {
		s.onManifest = nil
		hook()
	}
	return man, mode, exists, 0, nil
}

func (s *storePeer) ChunkFetch(_ obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	if s.down[to] || s.noFetch {
		return nil, 0, errPeerDown
	}
	s.fetches[to]++
	if phys != "" {
		if attr, err := s.remote.LookupPath(phys); err == nil && attr.Type == localfs.TypeRegular {
			s.mk.ManifestOf(phys)
		}
	}
	blocks := make([][]byte, len(hashes))
	for i, h := range hashes {
		if b, ok := s.blocks.Get(h); ok {
			if s.lies[to] {
				b = append([]byte(nil), b...)
				b[0] ^= 0xFF
			}
			blocks[i] = b
		}
	}
	return blocks, 0, nil
}

// refreshAsked is the primary->replica tail of the owner round (SyncOwned):
// ask r1 once, with the hash, and hand the answer to refresh.
func refreshAsked(e *Engine, peer *storePeer, t Track) (simnet.Cost, error) {
	remote, _, err := peer.DigestTree(obs.TraceContext{}, "r1", RepPath(t.Root), true)
	if err != nil {
		return 0, err
	}
	src, ok := e.LocalTreePath(t.Root)
	if !ok {
		return 0, nil
	}
	_, cost, err := e.refresh(obs.TraceContext{}, "r1", t, src, remote)
	return cost, err
}

func deltaEngine(t *testing.T, peer Peer) (*Engine, localfs.FileSystem, *obs.Registry) {
	t.Helper()
	store := localfs.New(0, simnet.DiskModel{})
	reg := obs.NewRegistry()
	rep := pastry.NodeInfo{ID: id.HashKey("r1"), Addr: "r1"}
	e := New(Options{
		Self:     "self",
		Store:    store,
		Overlay:  &fakeOverlay{isRoot: true, reps: []pastry.NodeInfo{rep}},
		Peer:     peer,
		Replicas: 1,
		Key:      func(pn string) id.ID { return id.HashKey(pn) },
		Events:   obs.NewEventLog(16),
		Registry: reg,
	})
	serve(peer, e)
	return e, store, reg
}

// Regression (satellite fix): fetchTree used to skip ANY file named like the
// migration flag, silently dropping legitimately-named user files deeper in
// the tree. Only the root-level sentinel is protocol state.
func TestFetchTreeKeepsNestedFlagNamedFile(t *testing.T) {
	peer := newStorePeer()
	src := RepPath("/docs")
	if err := peer.remote.WriteFile(src+"/"+MigrationFlag, nil); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(src+"/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(src+"/nest/"+MigrationFlag, []byte("user data")); err != nil {
		t.Fatal(err)
	}
	e, store, _ := deltaEngine(t, peer)
	// A sentinel left at the local root by an interrupted migration to this
	// node must come down once the pull completes.
	if err := store.WriteFile("/docs/"+MigrationFlag, nil); err != nil {
		t.Fatal(err)
	}

	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "docs", Root: "/docs"}, 5); err != nil {
		t.Fatal(err)
	}
	if data, err := store.ReadFile("/docs/a.txt"); err != nil || string(data) != "a" {
		t.Fatalf("/docs/a.txt: %q err=%v", data, err)
	}
	if data, err := store.ReadFile("/docs/nest/" + MigrationFlag); err != nil || string(data) != "user data" {
		t.Fatalf("nested flag-named user file was dropped: %q err=%v", data, err)
	}
	if _, err := store.LookupPath("/docs/" + MigrationFlag); err == nil {
		t.Fatal("root-level migration sentinel present after the pull: fetched as content, or a stale local one kept")
	}
	if v := e.VerOf("/docs"); v != 5 {
		t.Fatalf("adopted version %d, want 5", v)
	}
}

// unreadableStore fails ReadFile for one path, so the digest listing of that
// file's directory fails.
type unreadableStore struct {
	localfs.FileSystem
	bad string
}

func (s unreadableStore) ReadFile(p string) ([]byte, error) {
	if p == s.bad {
		return nil, errPeerDown
	}
	return s.FileSystem.ReadFile(p)
}

// A pull whose local copy cannot be listed adopts nothing. Taking the failed
// listing for an empty directory would keep gone.txt, which the source
// deleted, and adopt the source's version over it, so the next refresh would
// push gone.txt back out to every replica.
func TestPullWithUnlistableLocalDirAdoptsNothing(t *testing.T) {
	peer := newStorePeer()
	mustWrite(t, peer.remote, RepPath("/pull")+"/a.txt", "new a")
	store := unreadableStore{FileSystem: localfs.New(0, simnet.DiskModel{}), bad: "/pull/bad.txt"}
	for _, name := range []string{"a.txt", "gone.txt", "bad.txt"} {
		mustWrite(t, store, "/pull/"+name, "old "+name)
	}
	e := New(Options{
		Self:     "self",
		Store:    store,
		Overlay:  &fakeOverlay{isRoot: true},
		Peer:     peer,
		Replicas: 1,
		Key:      func(pn string) id.ID { return id.HashKey(pn) },
	})
	e.Track(Track{PN: "pull", Root: "/pull", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/pull"})
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "pull", Root: "/pull"}, 5); err == nil {
		t.Fatal("pull succeeded with the local directory unlistable")
	}
	if v := e.VerOf("/pull"); v != 2 {
		t.Fatalf("a failed pull adopted version %d", v)
	}
	if got, err := store.ReadFile("/pull/a.txt"); err != nil || string(got) != "old a.txt" {
		t.Fatalf("a failed pull rewrote a.txt: %q err=%v", got, err)
	}
}

// A file the puller holds none of arrives in bounded pieces: CHUNK_FETCH
// round trips of at most fetchBatch blocks each, which reassemble to the
// source file, and the remote counts it as the one file it pulled.
func TestPullLargeFileFetchesBoundedBatches(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)
	payload := patternBytes(5<<19, 3)
	if err := store.WriteFile("/big/blob", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := refreshAsked(e, peer, Track{PN: "big", Root: "/big", Ver: 1}); err != nil {
		t.Fatal(err)
	}
	if got, err := peer.remote.ReadFile(RepPath("/big/blob")); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pulled file diverged (err=%v, %d bytes)", err, len(got))
	}
	if len(peer.localBatches) < 2 {
		t.Fatalf("%d CHUNK_FETCH round trips for %d bytes, want the file split over several", len(peer.localBatches), len(payload))
	}
	for i, n := range peer.localBatches {
		if n > fetchBatch {
			t.Fatalf("round trip %d asked for %d blocks, over the %d bound", i, n, fetchBatch)
		}
	}
	if b := peer.reg.Counter("repl.fetch.bytes").Load(); b != uint64(len(payload)) {
		t.Fatalf("fetch.bytes = %d, want the file's %d", b, len(payload))
	}
	if sent := peer.reg.Counter("repl.sync.files.sent").Load(); sent != 1 {
		t.Fatalf("files.sent = %d, want 1", sent)
	}
}

// The tentpole guarantee: a matching replica costs one digest exchange and
// nothing else; a one-file change moves only that file; and the replica tree
// is never removed wholesale (stays readable throughout): the pull rewrites
// the changed file and removes the deleted one, and every other entry keeps
// its inode.
func TestRefreshDeltaSkipsAndShipsOnlyChanges(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	files := []string{"f0.txt", "f1.txt", "f2.txt", "f3.txt", "f4.txt"}
	for _, name := range files {
		if err := store.WriteFile("/proj/"+name, []byte("content of "+name)); err != nil {
			t.Fatal(err)
		}
		if err := peer.remote.WriteFile(RepPath("/proj")+"/"+name, []byte("content of "+name)); err != nil {
			t.Fatal(err)
		}
	}
	peer.vers["/proj"] = 1
	tr := Track{PN: "proj", Root: "/proj", Ver: 1}
	inos := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, p := range append([]string{""}, files...) {
			if a, err := peer.remote.LookupPath(path.Join(RepPath("/proj"), p)); err == nil {
				out[p] = a.Ino
			}
		}
		return out
	}

	// Identical copy, identical version: one digest exchange, nothing else.
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	if len(peer.mirrors)+len(peer.pulls) != 0 {
		t.Fatalf("matching replica still received %v and pulls %v", peer.mirrors, peer.pulls)
	}
	if h := reg.Counter("repl.sync.digest.hits").Load(); h == 0 {
		t.Fatal("digest hit not counted")
	}

	// Touch one file; the pull must rewrite that file and nothing else.
	before := inos()
	if err := store.WriteFile("/proj/f2.txt", []byte("CHANGED")); err != nil {
		t.Fatal(err)
	}
	tr.Ver = 2
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	if len(peer.pulls) != 1 || peer.pulls[0] != (pullRec{to: "r1", t: tr, src: "/proj"}) || len(peer.mirrors) != 0 {
		t.Fatalf("pulls %v, mirrors %v; want one pull of /proj into r1's replica area at version 2", peer.pulls, peer.mirrors)
	}
	for p, ino := range inos() {
		if p != "f2.txt" && ino != before[p] {
			t.Fatalf("replica entry %q was rewritten or re-created by the pull", p)
		}
	}

	// The replica's bytes now match the primary's, and the sentinel is gone.
	want, err := merkle.DigestPath(store, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	got, err := merkle.DigestPath(peer.remote, RepPath("/proj"))
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatal("replica digest diverges from primary after delta sync")
	}
	if _, err := peer.remote.LookupPath(RepPath("/proj") + "/" + MigrationFlag); err == nil {
		t.Fatal("migration sentinel left behind after sync")
	}
	if v := peer.eng.VerOf("/proj"); v != 2 {
		t.Fatalf("the puller records version %d, want 2", v)
	}
	if sent := peer.reg.Counter("repl.sync.files.sent").Load(); sent != 1 {
		t.Fatalf("files.sent = %d, want 1", sent)
	}
	if skipped := peer.reg.Counter("repl.sync.files.skipped").Load(); skipped != 4 {
		t.Fatalf("files.skipped = %d, want 4", skipped)
	}

	// A deletion propagates as a removal of the stale entry only.
	attr, err := store.LookupPath("/proj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Remove(attr.Ino, "f4.txt"); err != nil {
		t.Fatal(err)
	}
	tr.Ver = 3
	before = inos()
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	after := inos()
	if _, ok := after["f4.txt"]; ok {
		t.Fatal("deleted file survived on the replica")
	}
	for p, ino := range after {
		if ino != before[p] {
			t.Fatalf("replica entry %q was rewritten or re-created by the pull", p)
		}
	}
}

// patternBytes generates deterministic content with enough entropy for the
// content-defined chunker to cut naturally.
func patternBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	s := seed
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = byte(s >> 33)
	}
	return b
}

// The tentpole's delta guarantee, pinned: a small edit to a large file
// moves at most 10% of the file's bytes. The puller's stale copy of the very
// file being pulled is its chunk source — no pre-seeding.
func TestPullDeltaWithinTenPercent(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)

	const size = 4 << 20
	content := patternBytes(size, 1)
	if err := store.WriteFile("/proj/big.bin", content); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(RepPath("/proj")+"/big.bin", content); err != nil {
		t.Fatal(err)
	}
	peer.vers["/proj"] = 1

	// A 16-byte edit in the middle: only the chunks spanning it change.
	edited := append([]byte(nil), content...)
	copy(edited[size/2:], []byte("EDITED-SIXTEEN-B"))
	if err := store.WriteFile("/proj/big.bin", edited); err != nil {
		t.Fatal(err)
	}
	if _, err := refreshAsked(e, peer, Track{PN: "proj", Root: "/proj", Ver: 2}); err != nil {
		t.Fatal(err)
	}
	if got, err := peer.remote.ReadFile(RepPath("/proj") + "/big.bin"); err != nil || !bytes.Equal(got, edited) {
		t.Fatalf("replica content diverged after delta (err=%v, %d bytes)", err, len(got))
	}
	fetched := peer.reg.Counter("repl.fetch.bytes").Load()
	if fetched == 0 {
		t.Fatal("no bytes fetched for a changed file")
	}
	if fetched > size/10 {
		t.Fatalf("delta fetched %d bytes, want <= %d (10%% of %d)", fetched, size/10, size)
	}
}

// The tentpole's swarm guarantee, pinned: a pull repair with a second settled
// holder available fetches blocks from at least two holders in parallel, and
// the rebuilt tree is byte-identical.
func TestFetchTreeSwarmUsesMultipleHolders(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	content := patternBytes(1<<20, 7)
	if err := peer.remote.WriteFile(RepPath("/pull")+"/blob.bin", content); err != nil {
		t.Fatal(err)
	}
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("pulled content diverged (err=%v, %d bytes)", err, len(got))
	}
	if peer.fetches["r1"] == 0 || peer.fetches["r2"] == 0 {
		t.Fatalf("block fetches not spread across holders: %v", peer.fetches)
	}
	if f := reg.Counter("repl.cas.blocks.fetched").Load(); f < 2 {
		t.Fatalf("blocks.fetched = %d, want >= 2", f)
	}
	if b := reg.Counter("repl.fetch.bytes").Load(); b != uint64(len(content)) {
		t.Fatalf("fetch.bytes = %d, want %d", b, len(content))
	}
}

// A holder dying mid-fetch must not fail the repair: its share of the WANT
// list is retried from the version's holder and the tree still converges.
func TestFetchTreeSurvivesDeadHolder(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)

	content := patternBytes(1<<20, 9)
	if err := peer.remote.WriteFile(RepPath("/pull")+"/blob.bin", content); err != nil {
		t.Fatal(err)
	}
	peer.down["r2"] = true
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("pulled content diverged with a dead holder (err=%v, %d bytes)", err, len(got))
	}
}

// A pull repair against a stale local copy fetches only the missing blocks:
// the local file's unchanged chunks resolve from the local index, not the
// network.
func TestPullFileFetchesOnlyMissingBlocks(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	const size = 4 << 20
	remote := patternBytes(size, 11)
	stale := append([]byte(nil), remote...)
	copy(stale[size/4:], []byte("STALE-LOCAL-EDIT"))
	if err := peer.remote.WriteFile(RepPath("/pull")+"/doc.bin", remote); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile("/pull/doc.bin", stale); err != nil {
		t.Fatal(err)
	}
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/doc.bin"); err != nil || !bytes.Equal(got, remote) {
		t.Fatalf("pulled content diverged (err=%v, %d bytes)", err, len(got))
	}
	if b := reg.Counter("repl.fetch.bytes").Load(); b > size/10 {
		t.Fatalf("pull repair fetched %d bytes, want <= %d (stale copy should serve the rest)", b, size/10)
	}
}

// Content-identical replica whose recorded version lags is re-stamped with a
// single metadata op instead of a re-push.
func TestRefreshRestampsMatchingReplica(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)
	if err := store.WriteFile("/w/x.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(RepPath("/w")+"/x.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	peer.vers["/w"] = 1
	if _, err := refreshAsked(e, peer, Track{PN: "w", Root: "/w", Ver: 4}); err != nil {
		t.Fatal(err)
	}
	if len(peer.mirrors) != 1 || peer.mirrors[0].op.Kind != FSMkdirAll || len(peer.pulls) != 0 {
		t.Fatalf("restamp ops %v and pulls %v, want a single FSMkdirAll", peer.mirrors, peer.pulls)
	}
	if peer.vers["/w"] != 4 {
		t.Fatalf("replica version %d after restamp, want 4", peer.vers["/w"])
	}
}

// A CHUNK_MANIFEST that fails fails the pull: nothing of the file is
// written, the puller's root keeps MIGRATION_NOT_COMPLETE armed and its
// version stays, and the next refresh, with the source answering again,
// converges byte-exact and drops the flag.
func TestPullManifestFailureLeavesFlagArmed(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)
	content := patternBytes(3<<19, 21)
	if err := store.WriteFile("/proj/big.bin", content); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(RepPath("/proj")+"/big.bin", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	peer.eng.Track(Track{PN: "proj", Root: "/proj", Ver: 1}, FSOp{Kind: FSMkdirAll, Path: RepPath("/proj")})
	tr := Track{PN: "proj", Root: "/proj", Ver: 2}
	flag := RepPath("/proj") + "/" + MigrationFlag

	peer.localDown = true // the source's block procedures fail; its listings answer
	if _, err := refreshAsked(e, peer, tr); err == nil {
		t.Fatal("refresh succeeded with CHUNK_MANIFEST failing")
	}
	if got, err := peer.remote.ReadFile(RepPath("/proj") + "/big.bin"); err != nil || string(got) != "stale" {
		t.Fatalf("the failed pull wrote the file: %q err=%v", got, err)
	}
	if _, err := peer.remote.LookupPath(flag); err != nil {
		t.Fatal("migration flag not armed after the failed pull")
	}
	if v := peer.eng.VerOf("/proj"); v != 1 {
		t.Fatalf("the failed pull recorded version %d", v)
	}

	peer.localDown = false
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	if got, err := peer.remote.ReadFile(RepPath("/proj") + "/big.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("replica diverged after the retried pull (err=%v, %d bytes)", err, len(got))
	}
	if _, err := peer.remote.LookupPath(flag); err == nil {
		t.Fatal("migration flag still armed after the retried pull converged")
	}
	if v := peer.eng.VerOf("/proj"); v != 2 {
		t.Fatalf("the retried pull recorded version %d, want 2", v)
	}
}

// pullFixture is a stale local copy of /pull/doc.bin at version 2 and a
// newer remote one to pull at version 3.
func pullFixture(t *testing.T, peer *storePeer) (e *Engine, store localfs.FileSystem, stale []byte) {
	t.Helper()
	e, store, _ = deltaEngine(t, peer)
	remote := patternBytes(1<<20, 27)
	stale = append([]byte(nil), remote...)
	copy(stale[1<<19:], "STALE-LOCAL-EDIT")
	mustWrite(t, peer.remote, RepPath("/pull")+"/doc.bin", string(remote))
	mustWrite(t, store, "/pull/doc.bin", string(stale))
	e.Track(Track{PN: "pull", Root: "/pull", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/pull"})
	return e, store, stale
}

// wantUntouched fails unless the failed pull left the local copy and its
// version exactly as they were.
func wantUntouched(t *testing.T, e *Engine, store localfs.FileSystem, stale []byte) {
	t.Helper()
	if got, err := store.ReadFile("/pull/doc.bin"); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("a failed pull rewrote the local file (err=%v, %d bytes)", err, len(got))
	}
	if v := e.VerOf("/pull"); v != 2 {
		t.Fatalf("a failed pull adopted version %d", v)
	}
}

// A holder that lists a regular file and then has no manifest for it fails
// the pull; adopt then fetches from the next candidate holding the version.
func TestPullFileWithoutManifestWritesNothing(t *testing.T) {
	peer := newStorePeer()
	peer.noManifest = true
	e, store, stale := pullFixture(t, peer)
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3); err == nil {
		t.Fatal("pull succeeded without a manifest")
	}
	wantUntouched(t, e, store, stale)
	if len(peer.fetches) != 0 {
		t.Fatalf("a pull with no manifest fetched blocks: %v", peer.fetches)
	}

	peers := newCountingPeers("r1", "r2")
	e, store = ownerEngine(peers, "r1", "r2")
	content := patternBytes(1<<20, 29)
	for _, a := range []simnet.Addr{"r1", "r2"} {
		mustWrite(t, peers.at[a].remote, RepPath("/pull")+"/doc.bin", string(content))
		peers.at[a].vers["/pull"] = 3
	}
	peers.at["r1"].noManifest = true
	mustWrite(t, store, "/pull/doc.bin", "stale")
	e.Track(Track{PN: "pull", Root: "/pull", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/pull"})
	if _, changed := e.AdoptRoot(obs.TraceContext{}, Track{PN: "pull", Root: "/pull", Ver: 2}, false); !changed {
		t.Fatal("adopt gave up after the first holder of the version failed")
	}
	if got, err := store.ReadFile("/pull/doc.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("content adopted from the second holder diverged (err=%v, %d bytes)", err, len(got))
	}
	if v := e.VerOf("/pull"); v != 3 {
		t.Fatalf("adopted version %d, want 3", v)
	}
}

// Every source refuses CHUNK_FETCH: the pull fails and writes nothing.
func TestPullFileWithEveryFetchRefusedWritesNothing(t *testing.T) {
	peer := newStorePeer()
	peer.noFetch = true
	e, store, stale := pullFixture(t, peer)
	_, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3)
	if err == nil {
		t.Fatal("pull succeeded with every CHUNK_FETCH refused")
	}
	wantUntouched(t, e, store, stale)
}

// The source's copy changes between CHUNK_MANIFEST and the block fetches,
// across two chunks, and no source serves the missing block. The pull must
// not stitch the manifest's old blocks from the local index to the new
// bytes: it fails, and the local file and version stay as they were.
func TestPullFileTornSourceWritesNothing(t *testing.T) {
	peer := newStorePeer()
	peer.noFetch = true
	e, store, _ := deltaEngine(t, peer)
	v1 := patternBytes(1<<20, 31)
	man := cas.Split(v1)
	if len(man) < 4 {
		t.Fatalf("%d chunks, want >= 4", len(man))
	}
	// The local copy lacks chunk k of v1; v2 rewrites bytes on both sides of
	// the boundary between chunks k and k+1.
	k := len(man) / 2
	var start int64
	for _, ch := range man[:k] {
		start += int64(ch.Len)
	}
	boundary := start + int64(man[k].Len)
	stale := append([]byte(nil), v1...)
	copy(stale[start+16:], "STALE-LOCAL-EDIT")
	v2 := append([]byte(nil), v1...)
	copy(v2[boundary-8:], "REWRITTEN-ACROSS")
	mustWrite(t, peer.remote, RepPath("/pull")+"/doc.bin", string(v1))
	mustWrite(t, store, "/pull/doc.bin", string(stale))
	e.Track(Track{PN: "pull", Root: "/pull", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/pull"})
	peer.onManifest = func() { mustWrite(t, peer.remote, RepPath("/pull")+"/doc.bin", string(v2)) }

	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "pull", Root: "/pull"}, 3); err == nil {
		got, _ := store.ReadFile("/pull/doc.bin")
		t.Fatalf("torn pull adopted: local file is v1=%v v2=%v", bytes.Equal(got, v1), bytes.Equal(got, v2))
	}
	wantUntouched(t, e, store, stale)
}

// A source that answers wrong bytes for a hash is never written: the next
// source serves that hash, and every block fetched is one the manifest names.
func TestGatherDropsWrongBytes(t *testing.T) {
	peer := newStorePeer()
	peer.lies["r1"] = true
	e, store, reg := deltaEngine(t, peer)
	content := patternBytes(1<<20, 41)
	mustWrite(t, peer.remote, RepPath("/pull")+"/blob.bin", string(content))
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("pulled content diverged (err=%v, %d bytes)", err, len(got))
	}
	unique := map[cas.Hash]bool{}
	for _, ch := range cas.Split(content) {
		unique[ch.Hash] = true
	}
	if f := reg.Counter("repl.cas.blocks.fetched").Load(); f != uint64(len(unique)) {
		t.Fatalf("blocks.fetched = %d, want the %d distinct chunks, each once", f, len(unique))
	}
	if b := reg.Counter("repl.fetch.bytes").Load(); b != uint64(len(content)) {
		t.Fatalf("fetch.bytes = %d, want %d", b, len(content))
	}
	if peer.fetches["r2"] < 2 {
		t.Fatalf("r2 served %d batches: it was not asked for r1's share", peer.fetches["r2"])
	}
}

// A holder that dies after its first batch has the rest of its share served
// by the other source, and is not asked again.
func TestGatherServesADeadHoldersShare(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)
	content := patternBytes(4<<20, 43)
	mustWrite(t, peer.remote, RepPath("/pull")+"/blob.bin", string(content))
	asked := 0
	e.SetFetchHook(func(holder simnet.Addr, _ int) {
		if holder == "r2" {
			asked++
			peer.down["r2"] = true
		}
	})
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("pulled content diverged (err=%v, %d bytes)", err, len(got))
	}
	if peer.fetches["r2"] != 1 || asked != 2 {
		t.Fatalf("r2 served %d batches and was asked %d times, want 1 served then 1 refused", peer.fetches["r2"], asked)
	}
	if b := reg.Counter("repl.fetch.bytes").Load(); b != uint64(len(content)) {
		t.Fatalf("fetch.bytes = %d, want %d", b, len(content))
	}
}

// A scrub repair splits its WANT list across its helpers, as a pull does.
func TestVerifyFileSplitsWantAcrossHelpers(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)
	content := patternBytes(1<<20, 47)
	mustWrite(t, store, "/v/blob.bin", string(content))
	mustWrite(t, peer.remote, RepPath("/v")+"/blob.bin", string(content))
	if _, err := e.mk.ManifestOf("/v/blob.bin"); err != nil {
		t.Fatal(err)
	}
	// Two chunks rot: the first and the last.
	rot := store.(localfs.Corrupter)
	if err := rot.CorruptFile("/v/blob.bin", 1024); err != nil {
		t.Fatal(err)
	}
	if err := rot.CorruptFile("/v/blob.bin", -2048); err != nil {
		t.Fatal(err)
	}
	helpers := []BlockSource{{Addr: "r1", Phys: RepPath("/v/blob.bin")}, {Addr: "r2", Phys: RepPath("/v/blob.bin")}}
	if out, _ := e.VerifyFile(obs.TraceContext{}, "/v/blob.bin", helpers); out != VerifyRepaired {
		t.Fatalf("VerifyFile = %v, want VerifyRepaired", out)
	}
	if got, err := store.ReadFile("/v/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("repaired content diverged (err=%v, %d bytes)", err, len(got))
	}
	if peer.fetches["r1"] != 1 || peer.fetches["r2"] != 1 {
		t.Fatalf("fetches per helper %v, want one batch from each", peer.fetches)
	}
}

// An adopt pulls symlinks through the peer's ReadLink: one the local copy
// lacks, one whose target changed, and one where the local copy holds a
// regular file. Each is made with the source's target, and the two copies
// end with equal root digests.
func TestFetchTreePullsSymlinks(t *testing.T) {
	peer := newStorePeer()
	src := RepPath("/links")
	if err := peer.remote.WriteFile(src+"/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"new": "../new-target", "changed": "/after", "wasfile": "sub/target"}
	for name, target := range want {
		mustLink(t, peer.remote, src+"/"+name, target)
	}
	e, store, _ := deltaEngine(t, peer)
	if err := store.WriteFile("/links/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	mustLink(t, store, "/links/changed", "/before")
	if err := store.WriteFile("/links/wasfile", []byte("a regular file")); err != nil {
		t.Fatal(err)
	}

	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "links", Root: "/links"}, 2); err != nil {
		t.Fatal(err)
	}
	for name, target := range want {
		wantLink(t, store, "/links/"+name, target)
	}
	local, err := e.mk.DigestOf("/links")
	if err != nil {
		t.Fatal(err)
	}
	if remote, err := peer.mk.DigestOf(src); err != nil || local != remote {
		t.Fatalf("root digest %v after the pull, the source's %v (%v)", local, remote, err)
	}
}

// mustLink makes p a symlink to target in fs, creating its parents.
func mustLink(t *testing.T, fs localfs.FileSystem, p, target string) {
	t.Helper()
	dir, err := fs.MkdirAll(path.Dir(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Symlink(dir.Ino, path.Base(p), target); err != nil {
		t.Fatal(err)
	}
}

// wantLink fails unless fs holds a symlink to target at p.
func wantLink(t *testing.T, fs localfs.FileSystem, p, target string) {
	t.Helper()
	attr, err := fs.LookupPath(p)
	if err != nil || attr.Type != localfs.TypeSymlink {
		t.Fatalf("%s: %+v, %v; want a symlink", p, attr, err)
	}
	if got, _, err := fs.Readlink(attr.Ino); err != nil || got != target {
		t.Fatalf("%s -> %q (%v), want %q", p, got, err, target)
	}
}

// A level-1 special link is a root like any other: the owner's Sync repairs a
// replica whose copy is missing, names an old target or is the home the link
// replaced through one Pull that makes the replica's entry the owner's link,
// at the owner's version, with no Mirror; once the copies match, a Sync moves
// nothing. The hand-over to a new owner and a promoted owner's adopt pull the
// link the same way.
func TestLevel1LinkIsPulledLikeAHome(t *testing.T) {
	const target = "placement-link-new"
	rec := Track{PN: "u", Root: "/u", Ver: 3}
	for _, c := range []struct {
		name  string
		stale func(t *testing.T, fs localfs.FileSystem)
	}{
		{"missing", func(*testing.T, localfs.FileSystem) {}},
		{"old target", func(t *testing.T, fs localfs.FileSystem) { mustLink(t, fs, RepPath("/u"), "placement-link-old") }},
		{"the relinked home", func(t *testing.T, fs localfs.FileSystem) { mustWrite(t, fs, RepPath("/u/f"), "home data") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := newStorePeer()
			c.stale(t, peer.remote)
			peer.vers["/u"] = 2
			e, store, _ := deltaEngine(t, peer)
			mustLink(t, store, "/u", target)
			e.Track(rec, FSOp{Kind: FSSymlink, Path: "/u"})

			e.Sync()
			want := pullRec{to: "r1", t: rec, src: "/u"}
			if len(peer.pulls) != 1 || peer.pulls[0] != want || len(peer.mirrors) != 0 {
				t.Fatalf("pulls %v, mirrors %v; want exactly %v and no mirror", peer.pulls, peer.mirrors, want)
			}
			wantLink(t, peer.remote, RepPath("/u"), target)
			if got := trackOf(peer.eng, "/u"); got.Ver != 3 || got.Dead {
				t.Fatalf("replica records %+v, want /u live at 3", got)
			}

			e.Sync()
			if len(peer.pulls) != 1 || len(peer.mirrors) != 0 {
				t.Fatalf("a Sync over matching links moved something: pulls %v, mirrors %v", peer.pulls, peer.mirrors)
			}
		})
	}

	t.Run("hand-over", func(t *testing.T) {
		peer := newStorePeer()
		e, store, _ := deltaEngine(t, peer)
		e.ov = &fakeOverlay{routeTo: pastry.NodeInfo{ID: id.HashKey("n2"), Addr: "n2"}}
		mustLink(t, store, "/u", target)
		e.Track(rec, FSOp{Kind: FSSymlink, Path: "/u"})
		e.Sync()
		if len(peer.pulls) != 1 || !peer.pulls[0].primary || len(peer.mirrors) != 0 {
			t.Fatalf("pulls %v, mirrors %v; want one primary pull", peer.pulls, peer.mirrors)
		}
		wantLink(t, peer.remote, "/u", target)
		wantLink(t, store, RepPath("/u"), target)
	})

	t.Run("adopt", func(t *testing.T) {
		peer := newStorePeer()
		mustLink(t, peer.remote, RepPath("/u"), target)
		e, store, _ := deltaEngine(t, peer)
		mustWrite(t, store, "/u/f", "home data")
		e.Track(Track{PN: "u", Root: "/u", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/u"})
		if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, rec, 3); err != nil {
			t.Fatal(err)
		}
		wantLink(t, store, "/u", target)
		if v := e.VerOf("/u"); v != 3 {
			t.Fatalf("adopted version %d, want 3", v)
		}
	})
}

// A pull whose source root is neither a directory nor a link fails and
// records nothing: it never passes for an empty copy.
func TestPullOfAMissingRootFails(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)
	mustWrite(t, store, "/u/f", "kept")
	for _, source := range []string{"missing", "a regular file"} {
		if source != "missing" {
			mustWrite(t, peer.remote, RepPath("/u"), "not a root")
		}
		if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "u", Root: "/u"}, 3); err == nil {
			t.Fatalf("a pull from a source root that is %s succeeded", source)
		}
	}
	if got, err := store.ReadFile("/u/f"); err != nil || string(got) != "kept" {
		t.Fatalf("the failed pulls changed the copy: %q, %v", got, err)
	}
	if v := e.VerOf("/u"); v != 0 {
		t.Fatalf("a failed pull recorded version %d", v)
	}
}

// A pulled file takes the source's mode, whether the pull creates it or
// rewrites a stale copy: a refresh into the replica area and a migration into
// a new owner's primary path alike.
func TestPullKeepsTheSourceMode(t *testing.T) {
	chmod := func(t *testing.T, fs localfs.FileSystem, p string, mode uint32) {
		t.Helper()
		a, err := fs.LookupPath(p)
		if err == nil {
			_, _, err = fs.Setattr(a.Ino, localfs.SetAttr{Mode: &mode})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wantMode := func(t *testing.T, fs localfs.FileSystem, p string) {
		t.Helper()
		if a, err := fs.LookupPath(p); err != nil || a.Mode != 0o755 {
			t.Fatalf("%s after the pull: mode %o, err %v; want 755", p, a.Mode, err)
		}
	}
	source := func(t *testing.T, peer *storePeer) (*Engine, Track) {
		e, store, _ := deltaEngine(t, peer)
		for _, name := range []string{"new.sh", "old.sh"} {
			if err := store.WriteFile("/proj/"+name, []byte("#!/bin/sh\n# "+name)); err != nil {
				t.Fatal(err)
			}
			chmod(t, store, "/proj/"+name, 0o755)
		}
		return e, Track{PN: "proj", Root: "/proj", Ver: 1}
	}

	t.Run("refresh", func(t *testing.T) {
		peer := newStorePeer()
		e, tr := source(t, peer)
		if err := peer.remote.WriteFile(RepPath("/proj")+"/old.sh", []byte("stale")); err != nil {
			t.Fatal(err)
		}
		if _, err := refreshAsked(e, peer, tr); err != nil {
			t.Fatal(err)
		}
		wantMode(t, peer.remote, RepPath("/proj")+"/new.sh")
		wantMode(t, peer.remote, RepPath("/proj")+"/old.sh")
	})
	t.Run("migrate", func(t *testing.T) {
		peer := newStorePeer()
		e, tr := source(t, peer)
		if _, _, err := e.MigrateTree(obs.TraceContext{}, "r1", tr, "/proj"); err != nil {
			t.Fatal(err)
		}
		if len(peer.pulls) != 1 || !peer.pulls[0].primary {
			t.Fatalf("pulls %v, want one into r1's primary path", peer.pulls)
		}
		wantMode(t, peer.remote, "/proj/new.sh")
		wantMode(t, peer.remote, "/proj/old.sh")
	})
}

// A pull into a copy another pull is still editing is refused as busy and
// edits nothing, and the first pull completes as if alone: two walks never
// edit one copy, and the flag comes down only when the one running is done.
func TestPullIntoABusyCopyIsRefused(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := pullFixture(t, peer)
	tr := Track{PN: "pull", Root: "/pull", Ver: 3}
	var second error
	peer.onManifest = func() {
		_, second = e.Pull(obs.TraceContext{}, "r1", tr, RepPath("/pull"), true)
	}
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, tr, 3); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(second, ErrPullBusy) {
		t.Fatalf("a pull into the copy the first pull is editing: %v, want ErrPullBusy", second)
	}
	want, _ := peer.remote.ReadFile(RepPath("/pull") + "/doc.bin")
	if got, err := store.ReadFile("/pull/doc.bin"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the first pull diverged (err=%v, %d bytes)", err, len(got))
	}
	if v := e.VerOf("/pull"); v != 3 {
		t.Fatalf("version %d after the first pull, want 3", v)
	}
	// Once it is done the copy takes pulls again.
	if _, err := e.Pull(obs.TraceContext{}, "r1", tr, RepPath("/pull"), true); err != nil {
		t.Fatalf("a pull after the first one finished: %v", err)
	}
}
