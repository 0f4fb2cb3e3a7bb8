package repl

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"unsafe"

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

// fakePeer records Mirror and Pull traffic and answers DigestTree/DirDigests
// from scripts keyed by "addr path"; it holds no file bytes.
type fakePeer struct {
	mirrors []mirrorRec
	pulls   []pullRec
	digests map[string]TreeDigest
	dirs    map[string][]merkle.Entry // presence of the key = directory exists
	dirAsks int                       // DirDigests calls: a fetch or delta walk began
}

func (f *fakePeer) Mirror(_ obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	f.mirrors = append(f.mirrors, mirrorRec{to: to, op: op, primary: primary})
	return 0, nil
}

func (f *fakePeer) Pull(_ obs.TraceContext, to simnet.Addr, t Track, src string, primary bool) (simnet.Cost, error) {
	f.pulls = append(f.pulls, pullRec{to: to, t: t, src: src, primary: primary})
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

func (f *fakePeer) ChunkManifest(obs.TraceContext, simnet.Addr, string) (cas.Manifest, uint32, bool, simnet.Cost, error) {
	return nil, 0, false, 0, fmt.Errorf("fakePeer: no remote store")
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
	if trackOf(e, "/docs").Root != "" {
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

	// A level-1 entry is one record whatever it holds: the relink that
	// replaces the home by a special link continues the home's chain, and
	// removing the link, here or in a replica's area, tombstones the record
	// like removing the home would.
	home := Track{PN: "u", Root: "/u"}
	for i, op := range []FSOp{
		{Kind: FSMkdirAll, Path: "/u"},
		{Kind: FSRelink, Path: "/u", Target: "x"},
		{Kind: FSRemove, Path: "/u"},
	} {
		e.Track(e.Stamp(home, op), op)
		if v := e.VerOf("/u"); v != uint64(i+1) {
			t.Fatalf("after %v: Ver = %d, want %d", op.Kind, v, i+1)
		}
		if dead := e.IsDead("/u"); dead != (op.Kind == FSRemove) {
			t.Fatalf("after %v: dead = %v", op.Kind, dead)
		}
	}
	e.Track(Track{PN: "w", Root: "/w", Ver: 5}, FSOp{Kind: FSRelink, Path: RepPath("/w"), Target: "x"})
	e.Track(Track{PN: "w", Root: "/w", Ver: 6}, FSOp{Kind: FSRemove, Path: RepPath("/w")})
	if !e.IsDead("/w") || e.VerOf("/w") != 6 {
		t.Fatalf("a mirrored link removal left %+v, want a tombstone at 6", e.tracked["/w"])
	}
	// A removal below the root is content, not the root's.
	e.Track(Track{PN: "docs", Root: "/docs", Ver: 1}, FSOp{Kind: FSMkdirAll, Path: "/docs"})
	e.Track(Track{PN: "docs", Root: "/docs", Ver: 2}, FSOp{Kind: FSRemove, Path: "/docs/a"})
	if e.IsDead("/docs") {
		t.Fatal("removing a file tombstoned its hierarchy")
	}
}

// TestTrackNamesReuseOnlyEqualStrings: TrackNames hands back the engine's
// own string for each name that equals its record for the frame's root, and
// a copy of the frame's bytes for each that differs: a root re-created under
// another placement name after its removal, a hierarchy the node has never
// seen. A level-1 link is a root like any other, relinked or not. What the
// engine records afterwards is the frame's names, and none of them aliases
// the frame, whose bytes are overwritten once TrackNames returns.
func TestTrackNamesReuseOnlyEqualStrings(t *testing.T) {
	e, _ := testEngine(&fakeOverlay{}, &fakePeer{})
	e.Track(Track{PN: "docs", Root: "/docs", Ver: 1}, FSOp{Kind: FSMkdirAll, Path: "/docs"})
	e.Track(Track{PN: "u", Root: "/u", Ver: 1}, FSOp{Kind: FSSymlink, Path: "/u"})
	frame := func(pn, root string) Track {
		buf := []byte(pn + root)
		got := e.TrackNames(buf[:len(pn)], buf[len(pn):])
		for i := range buf {
			buf[i] = '#'
		}
		return got
	}
	same := func(a, b string) bool { return len(a) > 0 && unsafe.StringData(a) == unsafe.StringData(b) }
	check := func(what string, got, want Track, rec Track, reused [2]bool) {
		t.Helper()
		if got != want {
			t.Errorf("%s: TrackNames = %+v, want %+v", what, got, want)
		}
		for i, f := range [2][2]string{{got.PN, rec.PN}, {got.Root, rec.Root}} {
			if same(f[0], f[1]) != reused[i] {
				t.Errorf("%s: name %d (%q) shares the record's string: %v, want %v", what, i, f[0], !reused[i], reused[i])
			}
		}
	}

	rec := e.tracked["/docs"]
	check("unchanged root", frame("docs", "/docs"), Track{PN: "docs", Root: "/docs"}, rec, [2]bool{true, true})

	e.Track(Track{PN: "docs", Root: "/docs", Ver: 2}, FSOp{Kind: FSRemoveAll, Path: "/docs"})
	rec = e.tracked["/docs"]
	recreated := frame("papers", "/docs")
	check("root re-created under a new name", recreated, Track{PN: "papers", Root: "/docs"}, rec, [2]bool{false, true})
	recreated.Ver = 3
	e.Track(recreated, FSOp{Kind: FSMkdirAll, Path: "/docs"})
	if got := e.tracked["/docs"]; got.PN != "papers" || got.Dead {
		t.Errorf("re-created root recorded as %+v, want PN papers, live", got)
	}

	rec = e.tracked["/u"]
	relinked := frame("u", "/u")
	check("relinked level-1 link", relinked, Track{PN: "u", Root: "/u"}, rec, [2]bool{true, true})
	relinked.Ver = 2
	e.Track(relinked, FSOp{Kind: FSRelink, Path: "/u"})
	if got := e.tracked["/u"]; got.Ver != 2 || got.Dead {
		t.Errorf("relinked link recorded as %+v, want live at 2", got)
	}

	check("new hierarchy", frame("new", "/new"), Track{PN: "new", Root: "/new"}, Track{}, [2]bool{})
	want := map[string]string{"/docs": "papers", "/u": "u"}
	got := map[string]string{}
	for _, tr := range e.Tracks() {
		got[tr.Root] = tr.PN
	}
	if !maps.Equal(got, want) {
		t.Errorf("engine tracks %v, want %v", got, want)
	}
}

// trackOf is e's record for root, the zero Track when it has none.
func trackOf(e *Engine, root string) Track {
	for _, tr := range e.Tracks() {
		if tr.Root == root {
			return tr
		}
	}
	return Track{}
}

func TestTrackedRootsIsASnapshot(t *testing.T) {
	e, _ := testEngine(&fakeOverlay{}, &fakePeer{})
	e.Track(Track{PN: "a", Root: "/a", Ver: 1}, FSOp{Kind: FSMkdirAll, Path: "/a"})
	snap := e.Tracks()
	snap[0] = Track{PN: "bogus", Root: "/bogus", Ver: 9}
	if got := e.Tracks(); len(got) != 1 || got[0] != (Track{PN: "a", Root: "/a", Ver: 1}) {
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

// Sync as primary has its replica pull: one Pull of the local copy into the
// replica area at the root's version, after which the replica holds the
// data. The replica raises MIGRATION_NOT_COMPLETE before the data lands and
// takes it down after.
func TestSyncHasReplicasPull(t *testing.T) {
	peer := newStorePeer() // the replica, r1, holds nothing
	e, store, _ := deltaEngine(t, peer)
	flag := RepPath("/music/" + MigrationFlag)
	var order []string
	peer.remote.(localfs.MutationNotifier).OnMutation(func(p string) {
		if p == flag || p == RepPath("/music/a.mp3") {
			order = append(order, strings.Clone(p)) // p is lent to the hook
		}
	})

	if err := store.WriteFile("/music/a.mp3", []byte("notes")); err != nil {
		t.Fatal(err)
	}
	e.Track(Track{PN: "music", Root: "/music", Ver: 1}, FSOp{Kind: FSMkdirAll, Path: "/music"})

	e.Sync()

	want := pullRec{to: "r1", t: Track{PN: "music", Root: "/music", Ver: 1}, src: "/music"}
	if len(peer.pulls) != 1 || peer.pulls[0] != want {
		t.Fatalf("pulls %v, want exactly %v", peer.pulls, want)
	}
	if got, err := peer.remote.ReadFile(RepPath("/music/a.mp3")); err != nil || string(got) != "notes" {
		t.Fatalf("replica holds %q, err=%v; want the pulled data", got, err)
	}
	if _, err := peer.remote.LookupPath(flag); err == nil {
		t.Fatal("migration flag left up after the pull")
	}
	if len(order) < 3 || order[0] != flag || order[len(order)-1] != flag {
		t.Fatalf("replica mutations %v: want the flag raised first and taken down last", order)
	}
	if v := peer.eng.VerOf("/music"); v != 1 {
		t.Fatalf("replica records version %d, want 1", v)
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

	want := pullRec{to: "n2", t: Track{PN: "work", Root: "/work", Ver: 3}, src: "/work", primary: true}
	if len(peer.pulls) != 1 || peer.pulls[0] != want {
		t.Fatalf("pulls %v, want the new owner to pull into its primary namespace: %v", peer.pulls, want)
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

			_, changed := e.AdoptRoot(obs.TraceContext{}, Track{PN: "share", Root: "/share", Ver: 2}, false)
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
