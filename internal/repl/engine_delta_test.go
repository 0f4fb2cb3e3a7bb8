package repl

import (
	"bytes"
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

// storePeer is a Peer backed by a real remote store: Mirror applies ops the
// way a replica node would (replica-area translation, lenient semantics),
// and the digest/read procedures answer from the store. It makes the delta
// protocol testable end to end without a network.
type storePeer struct {
	remote  localfs.FileSystem
	mk      *merkle.Cache
	blocks  *cas.Store // the remote's content-addressed block index
	mirrors []mirrorRec
	vers    map[string]uint64    // primary-relative root -> recorded Ver
	fetches map[simnet.Addr]int  // CHUNK_FETCH round trips served per holder address
	down    map[simnet.Addr]bool // addresses whose block procedures fail
	lies    map[simnet.Addr]bool // addresses whose CHUNK_FETCH answers carry wrong bytes
	// noManifest makes every CHUNK_MANIFEST answer exists=false, as a remote
	// whose file changed type would; noFetch makes every CHUNK_FETCH fail.
	noManifest, noFetch bool
	// onManifest, when set, runs once after a CHUNK_MANIFEST is answered.
	onManifest func()
}

var errPeerDown = &nfs.Error{Proc: nfs.Proc(200), Status: nfs.ErrIO}

func newStorePeer() *storePeer {
	remote := localfs.New(0, simnet.DiskModel{})
	blocks := cas.NewStore(remote, nil)
	return &storePeer{
		remote:  remote,
		mk:      merkle.NewCacheWithStore(remote, blocks),
		blocks:  blocks,
		vers:    map[string]uint64{},
		fetches: map[simnet.Addr]int{},
		down:    map[simnet.Addr]bool{},
		lies:    map[simnet.Addr]bool{},
	}
}

func (s *storePeer) Mirror(_ obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	s.mirrors = append(s.mirrors, mirrorRec{to: to, op: op, primary: primary})
	if !primary {
		op.Path = RepPath(op.Path)
		if op.Path2 != "" {
			op.Path2 = RepPath(op.Path2)
		}
	}
	if op.Kind == FSChunkWrite {
		// Assemble like a replica node would: inline bytes from the op,
		// references from the remote's own block index.
		data, err := s.assemble(op)
		if err != nil {
			return 0, err
		}
		op = FSOp{Kind: FSWrite, Path: op.Path, Offset: op.Offset, Data: data}
	}
	if err := applyLenient(s.remote, op); err != nil {
		return 0, err
	}
	s.vers[t.Root] = t.Ver
	return 0, nil
}

// assemble resolves an FSChunkWrite span the way core's replica apply does.
func (s *storePeer) assemble(op FSOp) ([]byte, error) {
	var buf []byte
	data := op.Data
	local := map[cas.Hash][]byte{}
	for _, cr := range op.Chunks {
		if cr.Inline {
			if len(data) < int(cr.Len) {
				return nil, ErrMissingChunk
			}
			b := data[:cr.Len]
			data = data[cr.Len:]
			if cas.SumChunk(b) != cr.Hash {
				return nil, ErrMissingChunk
			}
			buf = append(buf, b...)
			local[cr.Hash] = b
			continue
		}
		if b, ok := local[cr.Hash]; ok {
			buf = append(buf, b...)
			continue
		}
		b, ok := s.blocks.Get(cr.Hash)
		if !ok || len(b) != int(cr.Len) {
			return nil, ErrMissingChunk
		}
		buf = append(buf, b...)
		local[cr.Hash] = b
	}
	return buf, nil
}

// applyLenient executes the op kinds the push protocol emits, with the
// tolerant semantics core's replica apply uses.
func applyLenient(fs localfs.FileSystem, op FSOp) error {
	parent := func(p string) (localfs.Attr, error) {
		if _, err := fs.MkdirAll(path.Dir(p)); err != nil {
			return localfs.Attr{}, err
		}
		return fs.LookupPath(path.Dir(p))
	}
	switch op.Kind {
	case FSMkdirAll:
		_, err := fs.MkdirAll(op.Path)
		return err
	case FSWriteFile:
		return fs.WriteFile(op.Path, op.Data)
	case FSCreate:
		dir, err := parent(op.Path)
		if err != nil {
			return err
		}
		_, _, err = fs.Create(dir.Ino, path.Base(op.Path), op.Mode, false)
		return err
	case FSWrite:
		a, err := fs.LookupPath(op.Path)
		if err != nil {
			return err
		}
		_, _, err = fs.Write(a.Ino, op.Offset, op.Data)
		return err
	case FSRemove:
		dir, err := fs.LookupPath(path.Dir(op.Path))
		if err != nil {
			return nil
		}
		fs.Remove(dir.Ino, path.Base(op.Path))
		return nil
	case FSRemoveAll:
		return fs.RemoveAll(op.Path)
	case FSSetattr:
		a, err := fs.LookupPath(op.Path)
		if err != nil {
			return err
		}
		_, _, err = fs.Setattr(a.Ino, op.SetAttr)
		return err
	case FSSymlink:
		dir, err := parent(op.Path)
		if err != nil {
			return err
		}
		fs.RemoveAll(op.Path)
		_, _, err = fs.Symlink(dir.Ino, path.Base(op.Path), op.Target)
		return err
	}
	return nil
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

func (s *storePeer) ChunkManifest(_ obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	if s.down[to] {
		return nil, false, nil, 0, errPeerDown
	}
	var man cas.Manifest
	exists := false
	if attr, err := s.remote.LookupPath(phys); !s.noManifest && err == nil && attr.Type == localfs.TypeRegular {
		if m, err := s.mk.ManifestOf(phys); err == nil {
			man, exists = m, true
		}
	}
	have := s.blocks.HasAll(want)
	if hook := s.onManifest; hook != nil {
		s.onManifest = nil
		hook()
	}
	return man, exists, have, 0, nil
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

// refreshAsked is the primary->replica tail as Sync and the scrub run it:
// ask r1 once, with the hash, and hand the answer to refresh.
func refreshAsked(e *Engine, peer *storePeer, t Track) (simnet.Cost, error) {
	remote, _, err := peer.DigestTree(obs.TraceContext{}, "r1", RepPath(t.Root), true)
	if err != nil {
		return 0, err
	}
	return e.refresh(obs.TraceContext{}, "r1", t, remote)
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

// A file the receiver holds none of ships in bounded pieces: a create, then
// FSChunkWrite spans whose inline payload never exceeds PushChunk and which
// reassemble, in offset order, to the source file.
func TestSendFileChunksLargePayload(t *testing.T) {
	e, store, _ := deltaEngine(t, newStorePeer())
	payload := patternBytes(PushChunk*2+PushChunk/2, 3)
	if err := store.WriteFile("/big/blob", payload); err != nil {
		t.Fatal(err)
	}
	var ops []FSOp
	step := func(op FSOp) error { ops = append(ops, op); return nil }
	if err := e.sendFile(obs.TraceContext{}, "r1", "/big/blob", "/big/blob", false, step, func(simnet.Cost) {}); err != nil {
		t.Fatal(err)
	}
	if len(ops) < 4 || ops[0].Kind != FSCreate {
		t.Fatalf("got %d ops (first %v), want FSCreate + at least 3 bounded spans", len(ops), ops[0].Kind)
	}
	var rebuilt []byte
	for i, op := range ops[1:] {
		if op.Kind != FSChunkWrite {
			t.Fatalf("op %d kind %v, want FSChunkWrite", i+1, op.Kind)
		}
		if op.Offset != int64(len(rebuilt)) {
			t.Fatalf("op %d offset %d, want %d", i+1, op.Offset, len(rebuilt))
		}
		if len(op.Data) > PushChunk {
			t.Fatalf("span %d carries %d inline bytes, over the %d limit", i+1, len(op.Data), PushChunk)
		}
		for _, cr := range op.Chunks {
			if !cr.Inline {
				t.Fatalf("span %d references a block the receiver does not hold", i+1)
			}
		}
		rebuilt = append(rebuilt, op.Data...)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatal("spans do not reassemble to the source file")
	}
}

// The tentpole guarantee: a matching replica costs one digest exchange and
// zero mutations; a one-file change ships only that file; and the replica
// tree is never removed wholesale (stays readable throughout).
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

	// Identical copy, identical version: one digest exchange, no mutations.
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	if len(peer.mirrors) != 0 {
		t.Fatalf("matching replica still received %d ops: %v", len(peer.mirrors), peer.mirrors)
	}
	if h := reg.Counter("repl.sync.digest.hits").Load(); h == 0 {
		t.Fatal("digest hit not counted")
	}

	// Touch one file; the delta must ship that file and nothing else.
	if err := store.WriteFile("/proj/f2.txt", []byte("CHANGED")); err != nil {
		t.Fatal(err)
	}
	tr.Ver = 2
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	var wrote []string
	for _, m := range peer.mirrors {
		if m.op.Kind == FSRemoveAll {
			t.Fatalf("delta sync issued FSRemoveAll on %s: replicas must stay readable", m.op.Path)
		}
		if m.op.Kind == FSCreate || m.op.Kind == FSWrite || m.op.Kind == FSChunkWrite || m.op.Kind == FSSetattr {
			wrote = append(wrote, m.op.Path)
		}
	}
	for _, p := range wrote {
		if p != "/proj/f2.txt" {
			t.Fatalf("unchanged path %s was re-shipped", p)
		}
	}
	if len(wrote) == 0 {
		t.Fatal("changed file never shipped")
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
	if sent := reg.Counter("repl.sync.files.sent").Load(); sent != 1 {
		t.Fatalf("files.sent = %d, want 1", sent)
	}
	if skipped := reg.Counter("repl.sync.files.skipped").Load(); skipped < 4 {
		t.Fatalf("files.skipped = %d, want >= 4", skipped)
	}

	// A deletion propagates as a targeted remove of the stale entry only.
	attr, err := store.LookupPath("/proj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Remove(attr.Ino, "f4.txt"); err != nil {
		t.Fatal(err)
	}
	tr.Ver = 3
	peer.mirrors = nil
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	var removed []string
	for _, m := range peer.mirrors {
		if m.op.Kind == FSRemoveAll {
			removed = append(removed, m.op.Path)
		}
	}
	if len(removed) != 1 || removed[0] != "/proj/f4.txt" {
		t.Fatalf("stale-entry removal ops %v, want exactly /proj/f4.txt", removed)
	}
	if _, err := peer.remote.LookupPath(RepPath("/proj") + "/f4.txt"); err == nil {
		t.Fatal("deleted file survived on the replica")
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

// The tentpole's delta guarantee, pinned: a small edit to a large file ships
// at most 10% of the file's bytes over the wire. The receiver's stale copy of
// the very file being negotiated is its chunk source — no pre-seeding.
func TestSendFileDeltaWithinTenPercent(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

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
	shipped := reg.Counter("repl.sync.bytes").Load()
	if shipped == 0 {
		t.Fatal("no bytes shipped for a changed file")
	}
	if shipped > size/10 {
		t.Fatalf("delta shipped %d bytes, want <= %d (10%% of %d)", shipped, size/10, size)
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
	if len(peer.mirrors) != 1 || peer.mirrors[0].op.Kind != FSMkdirAll {
		t.Fatalf("restamp ops %v, want a single FSMkdirAll", peer.mirrors)
	}
	if peer.vers["/w"] != 4 {
		t.Fatalf("replica version %d after restamp, want 4", peer.vers["/w"])
	}
}

// A CHUNK_MANIFEST that fails fails the push: nothing of the file is
// mirrored, the remote root keeps MIGRATION_NOT_COMPLETE armed, and the next
// refresh, with the peer back, converges byte-exact and drops the flag.
func TestSendFileNegotiationFailureLeavesFlagArmed(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)
	content := patternBytes(PushChunk+PushChunk/2, 21)
	if err := store.WriteFile("/proj/big.bin", content); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(RepPath("/proj")+"/big.bin", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	tr := Track{PN: "proj", Root: "/proj", Ver: 2}
	flag := RepPath("/proj") + "/" + MigrationFlag

	peer.down["r1"] = true // block procedures fail; mirrors and digests still work
	if _, err := refreshAsked(e, peer, tr); err == nil {
		t.Fatal("refresh succeeded with CHUNK_MANIFEST failing")
	}
	for _, m := range peer.mirrors {
		switch m.op.Kind {
		case FSCreate, FSWrite, FSWriteFile, FSChunkWrite:
			if m.op.Path != "/proj/"+MigrationFlag {
				t.Fatalf("failed negotiation still mirrored %v %s", m.op.Kind, m.op.Path)
			}
		}
	}
	if _, err := peer.remote.LookupPath(flag); err != nil {
		t.Fatal("migration flag not armed after the failed push")
	}

	peer.down["r1"] = false
	if _, err := refreshAsked(e, peer, tr); err != nil {
		t.Fatal(err)
	}
	if got, err := peer.remote.ReadFile(RepPath("/proj") + "/big.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("replica diverged after the retried push (err=%v, %d bytes)", err, len(got))
	}
	if _, err := peer.remote.LookupPath(flag); err == nil {
		t.Fatal("migration flag still armed after the retried push converged")
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
	if _, changed := e.AdoptRoot(obs.TraceContext{}, Track{PN: "pull", Root: "/pull", Ver: 2}); !changed {
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
