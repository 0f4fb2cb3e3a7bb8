package repl

import (
	"fmt"
	"testing"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// fakeOverlay is a scripted Overlay: fixed ownership answer, fixed replica
// set, fixed route target.
type fakeOverlay struct {
	isRoot  bool
	reps    []pastry.NodeInfo
	routeTo pastry.NodeInfo
}

func (f *fakeOverlay) EnsureRootFor(id.ID) (bool, simnet.Cost) { return f.isRoot, 0 }
func (f *fakeOverlay) ReplicaCandidates(int) []pastry.NodeInfo { return f.reps }
func (f *fakeOverlay) Route(id.ID) (pastry.RouteResult, error) {
	return pastry.RouteResult{Node: f.routeTo}, nil
}

// mirrorRec is one recorded Mirror call.
type mirrorRec struct {
	to      simnet.Addr
	op      FSOp
	primary bool
}

// fakePeer records Mirror traffic and answers DigestTree/DirDigests from
// scripts keyed by "addr path"; it holds no file bytes.
type fakePeer struct {
	mirrors []mirrorRec
	digests map[string]TreeDigest
	dirs    map[string][]merkle.Entry // presence of the key = directory exists
	dirAsks int                       // DirDigests calls: a fetch or delta walk began
}

func (f *fakePeer) Mirror(_ obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	f.mirrors = append(f.mirrors, mirrorRec{to: to, op: op, primary: primary})
	return 0, nil
}

func (f *fakePeer) DigestTree(_ obs.TraceContext, to simnet.Addr, root string, _ bool) (TreeDigest, simnet.Cost, error) {
	return f.digests[fmt.Sprintf("%s %s", to, root)], 0, nil
}

func (f *fakePeer) DirDigests(_ obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	f.dirAsks++
	ents, ok := f.dirs[fmt.Sprintf("%s %s", to, dir)]
	return ents, ok, 0, nil
}

func (f *fakePeer) Promote(obs.TraceContext, simnet.Addr, Track) (bool, simnet.Cost, error) {
	return false, 0, nil
}

func (f *fakePeer) ReadLink(obs.TraceContext, simnet.Addr, string) (string, simnet.Cost, error) {
	return "", 0, fmt.Errorf("fakePeer: no remote store")
}

// ChunkManifest answers as a remote that holds neither the file nor any of
// the wanted blocks, so a push ships everything inline.
func (f *fakePeer) ChunkManifest(_ obs.TraceContext, _ simnet.Addr, _ string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	return nil, false, make([]bool, len(want)), 0, nil
}

func (f *fakePeer) ChunkFetch(obs.TraceContext, simnet.Addr, string, []cas.Hash) ([][]byte, simnet.Cost, error) {
	return nil, 0, fmt.Errorf("fakePeer: no remote store")
}

func testEngine(ov *fakeOverlay, peer *fakePeer) (*Engine, localfs.FileSystem) {
	store := localfs.New(0, simnet.DiskModel{})
	e := New(Options{
		Self:     "self",
		Store:    store,
		Overlay:  ov,
		Peer:     peer,
		Replicas: 1,
		Key:      func(pn string) id.ID { return id.HashKey(pn) },
		Events:   obs.NewEventLog(16),
		Registry: obs.NewRegistry(),
	})
	return e, store
}

func TestStampAndTrackVersionChain(t *testing.T) {
	e, _ := testEngine(&fakeOverlay{}, &fakePeer{})
	tr := Track{PN: "docs", Root: "/docs"}

	// First mutation gets version 1; Track records it.
	got := e.Stamp(tr, FSOp{Kind: FSMkdirAll, Path: "/docs"})
	if got.Ver != 1 {
		t.Fatalf("first stamp Ver = %d, want 1", got.Ver)
	}
	e.Track(got, FSOp{Kind: FSMkdirAll, Path: "/docs"})
	if v := e.VerOf("/docs"); v != 1 {
		t.Fatalf("VerOf = %d, want 1", v)
	}

	// Next mutation continues the chain.
	got = e.Stamp(tr, FSOp{Kind: FSCreate, Path: "/docs/a"})
	if got.Ver != 2 {
		t.Fatalf("second stamp Ver = %d, want 2", got.Ver)
	}
	e.Track(got, FSOp{Kind: FSCreate, Path: "/docs/a"})

	// A storage-root rename rekeys the record, carrying the version chain.
	renamed := Track{PN: "docs", Root: "/docs-v2"}
	op := FSOp{Kind: FSRename, Path: "/docs", Path2: "/docs-v2"}
	renamed = e.Stamp(renamed, op)
	if renamed.Ver != 3 {
		t.Fatalf("rename stamp Ver = %d, want 3 (continues old chain)", renamed.Ver)
	}
	e.Track(renamed, op)
	if v := e.VerOf("/docs-v2"); v != 3 {
		t.Fatalf("VerOf new root = %d, want 3", v)
	}
	if _, ok := e.TrackedRoots()["/docs"]; ok {
		t.Fatal("old root record survived the rename rekeying")
	}

	// Removing the hierarchy root leaves a tombstone with a live version.
	dead := e.Stamp(Track{PN: "docs", Root: "/docs-v2"}, FSOp{Kind: FSRemoveAll, Path: "/docs-v2"})
	e.Track(dead, FSOp{Kind: FSRemoveAll, Path: "/docs-v2"})
	if !e.IsDead("/docs-v2") {
		t.Fatal("root removal did not tombstone the record")
	}
	if v := e.VerOf("/docs-v2"); v != 4 {
		t.Fatalf("tombstone Ver = %d, want 4", v)
	}

	e.Untrack("/docs-v2")
	if len(e.TrackedRoots()) != 0 {
		t.Fatal("Untrack left records behind")
	}
}

func TestTrackedRootsIsASnapshot(t *testing.T) {
	e, _ := testEngine(&fakeOverlay{}, &fakePeer{})
	e.Track(Track{PN: "a", Root: "/a", Ver: 1}, FSOp{Kind: FSMkdirAll, Path: "/a"})
	snap := e.TrackedRoots()
	delete(snap, "/a")
	snap["/bogus"] = "bogus"
	if got := e.TrackedRoots(); len(got) != 1 || got["/a"] != "a" {
		t.Fatalf("mutating the snapshot leaked into the engine: %v", got)
	}
}

func TestPromoteDemoteLocalRoundtrip(t *testing.T) {
	e, store := testEngine(&fakeOverlay{}, &fakePeer{})
	if err := store.WriteFile(RepPath("/proj")+"/file.txt", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	tr := Track{PN: "proj", Root: "/proj", Ver: 2}

	if !e.PromoteLocal(tr) {
		t.Fatal("PromoteLocal reported nothing surfaced")
	}
	if data, err := store.ReadFile("/proj/file.txt"); err != nil || string(data) != "payload" {
		t.Fatalf("primary path after promote: %q err=%v", data, err)
	}
	if _, err := store.LookupPath(RepPath("/proj")); err == nil {
		t.Fatal("replica-area copy survived promotion")
	}
	// Idempotent: nothing left to surface.
	if e.PromoteLocal(tr) {
		t.Fatal("second PromoteLocal surfaced something")
	}

	e.DemoteLocal(tr)
	if _, err := store.LookupPath("/proj"); err == nil {
		t.Fatal("primary path survived demotion")
	}
	if data, err := store.ReadFile(RepPath("/proj") + "/file.txt"); err != nil || string(data) != "payload" {
		t.Fatalf("replica area after demote: %q err=%v", data, err)
	}
}

func TestPromoteLocalHonorsTombstone(t *testing.T) {
	e, store := testEngine(&fakeOverlay{}, &fakePeer{})
	if err := store.WriteFile(RepPath("/gone")+"/stale.txt", []byte("old")); err != nil {
		t.Fatal(err)
	}
	e.Track(Track{PN: "gone", Root: "/gone", Ver: 5}, FSOp{Kind: FSRemoveAll, Path: "/gone"})
	if e.PromoteLocal(Track{PN: "gone", Root: "/gone"}) {
		t.Fatal("promoted a deleted hierarchy")
	}
	if _, err := store.LookupPath(RepPath("/gone")); err == nil {
		t.Fatal("stale replica-area data survived a known deletion")
	}
}

func TestSyncPushesToReplicas(t *testing.T) {
	rep := pastry.NodeInfo{ID: id.HashKey("r1"), Addr: "r1"}
	ov := &fakeOverlay{isRoot: true, reps: []pastry.NodeInfo{rep}}
	peer := &fakePeer{} // replica holds nothing
	e, store := testEngine(ov, peer)

	if err := store.WriteFile("/music/a.mp3", []byte("notes")); err != nil {
		t.Fatal(err)
	}
	e.Track(Track{PN: "music", Root: "/music", Ver: 1}, FSOp{Kind: FSMkdirAll, Path: "/music"})

	e.Sync()

	if len(peer.mirrors) == 0 {
		t.Fatal("Sync as primary pushed nothing to its replica")
	}
	var sawFlagCreate, sawFlagRemove, sawData bool
	for _, m := range peer.mirrors {
		if m.to != "r1" {
			t.Fatalf("mirror to %s, want r1", m.to)
		}
		if m.primary {
			t.Fatal("primary->replica refresh must land in the replica area")
		}
		switch {
		case m.op.Kind == FSWriteFile && m.op.Path == "/music/"+MigrationFlag:
			sawFlagCreate = true
		case m.op.Kind == FSRemove && m.op.Path == "/music/"+MigrationFlag:
			sawFlagRemove = true
		case m.op.Kind == FSChunkWrite && m.op.Path == "/music/a.mp3":
			sawData = true
			if !sawFlagCreate {
				t.Fatal("data pushed before the migration flag was set")
			}
			if string(m.op.Data) != "notes" {
				t.Fatalf("pushed data %q", m.op.Data)
			}
		}
	}
	if !sawFlagCreate || !sawData || !sawFlagRemove {
		t.Fatalf("push sequence incomplete: flag=%v data=%v unflag=%v",
			sawFlagCreate, sawData, sawFlagRemove)
	}
}

func TestSyncMigratesWhenOwnershipMoved(t *testing.T) {
	newOwner := pastry.NodeInfo{ID: id.HashKey("n2"), Addr: "n2"}
	ov := &fakeOverlay{isRoot: false, routeTo: newOwner}
	peer := &fakePeer{}
	e, store := testEngine(ov, peer)

	if err := store.WriteFile("/work/w.txt", []byte("w")); err != nil {
		t.Fatal(err)
	}
	e.Track(Track{PN: "work", Root: "/work", Ver: 3}, FSOp{Kind: FSMkdirAll, Path: "/work"})

	e.Sync()

	var pushed bool
	for _, m := range peer.mirrors {
		if m.to == "n2" && m.op.Kind == FSChunkWrite && m.op.Path == "/work/w.txt" {
			pushed = true
			if !m.primary {
				t.Fatal("migration push must target the new primary's namespace")
			}
		}
	}
	if !pushed {
		t.Fatal("Sync did not migrate the subtree to the new owner")
	}
	// Our copy stays behind as a replica, parked in the replica area.
	if _, err := store.LookupPath("/work"); err == nil {
		t.Fatal("primary-path copy survived the migration")
	}
	if data, err := store.ReadFile(RepPath("/work") + "/w.txt"); err != nil || string(data) != "w" {
		t.Fatalf("replica-area copy after migration: %q err=%v", data, err)
	}
}

func TestSyncPropagatesDeletionToReplicas(t *testing.T) {
	rep := pastry.NodeInfo{ID: id.HashKey("r1"), Addr: "r1"}
	ov := &fakeOverlay{isRoot: true, reps: []pastry.NodeInfo{rep}}
	// The replica still holds a copy older than the tombstone.
	peer := &fakePeer{digests: map[string]TreeDigest{
		"r1 " + RepPath("/dead"): {Exists: true, Ver: 1, Root: merkle.Digest{1}},
	}}
	e, _ := testEngine(ov, peer)
	e.Track(Track{PN: "dead", Root: "/dead", Ver: 2}, FSOp{Kind: FSRemoveAll, Path: "/dead"})

	e.Sync()

	var sawRemove bool
	for _, m := range peer.mirrors {
		if m.to == "r1" && m.op.Kind == FSRemoveAll && m.op.Path == "/dead" && !m.primary {
			sawRemove = true
		}
	}
	if !sawRemove {
		t.Fatal("tombstoned root's deletion never reached the stale replica")
	}
}

func TestAdoptRootAdoptsNewerTombstone(t *testing.T) {
	rep := pastry.NodeInfo{ID: id.HashKey("r1"), Addr: "r1"}
	for _, c := range []struct {
		name   string
		remote TreeDigest
		dead   bool
		ver    uint64
	}{
		// The replica reports the subtree deleted at a newer version than ours.
		{"a newer deletion is adopted", TreeDigest{Ver: 7}, true, 7},
		// A newer copy still under the migration flag is not settled.
		{"a newer copy that is still flagged is skipped", TreeDigest{Exists: true, Flag: true, Ver: 7, Root: merkle.Digest{1}}, false, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			ov := &fakeOverlay{isRoot: true, reps: []pastry.NodeInfo{rep}}
			peer := &fakePeer{digests: map[string]TreeDigest{"r1 " + RepPath("/share"): c.remote}}
			e, store := testEngine(ov, peer)
			if err := store.WriteFile("/share/s.txt", []byte("stale")); err != nil {
				t.Fatal(err)
			}
			e.Track(Track{PN: "share", Root: "/share", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/share"})

			_, changed := e.AdoptRoot(obs.TraceContext{}, Track{PN: "share", Root: "/share", Ver: 2})
			if changed != c.dead || e.IsDead("/share") != c.dead {
				t.Fatalf("changed=%v dead=%v, want both %v", changed, e.IsDead("/share"), c.dead)
			}
			if v := e.VerOf("/share"); v != c.ver {
				t.Fatalf("Ver = %d, want %d", v, c.ver)
			}
			if _, err := store.LookupPath("/share"); (err == nil) == c.dead {
				t.Fatalf("local copy after adoption: err=%v, want gone=%v", err, c.dead)
			}
			if peer.dirAsks != 0 {
				t.Fatalf("%d DirDigests: a fetch began", peer.dirAsks)
			}
		})
	}
}
