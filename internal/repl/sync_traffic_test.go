package repl

import (
	"testing"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// These tests pin what Sync sends, not only where it ends up: every replica
// candidate is asked what it holds exactly once per owned root, and whatever
// Sync then does — adopt, refresh, propagate a deletion — works from that
// answer.

// askRec is one recorded TREE_DIGEST ask.
type askRec struct {
	to   simnet.Addr
	root string
	hash bool
}

// countingPeers is a Peer over one storePeer per address that records every
// TREE_DIGEST ask. A version-only ask gets no digest back, like the wire's.
type countingPeers struct {
	at   map[simnet.Addr]*storePeer
	asks []askRec
}

func newCountingPeers(addrs ...simnet.Addr) *countingPeers {
	p := &countingPeers{at: map[simnet.Addr]*storePeer{}}
	for _, a := range addrs {
		p.at[a] = newStorePeer()
	}
	return p
}

func (p *countingPeers) DigestTree(tc obs.TraceContext, to simnet.Addr, root string, hash bool) (TreeDigest, simnet.Cost, error) {
	p.asks = append(p.asks, askRec{to, root, hash})
	td, c, err := p.at[to].DigestTree(tc, to, root, hash)
	if !hash {
		td.Root = merkle.Digest{}
	}
	return td, c, err
}

func (p *countingPeers) Mirror(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	return p.at[to].Mirror(tc, to, t, op, primary)
}

func (p *countingPeers) Promote(tc obs.TraceContext, to simnet.Addr, t Track) (bool, simnet.Cost, error) {
	return p.at[to].Promote(tc, to, t)
}

func (p *countingPeers) DirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	return p.at[to].DirDigests(tc, to, dir)
}

func (p *countingPeers) ReadLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	return p.at[to].ReadLink(tc, to, phys)
}

func (p *countingPeers) ChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	return p.at[to].ChunkManifest(tc, to, phys, want)
}

func (p *countingPeers) ChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	return p.at[to].ChunkFetch(tc, to, phys, hashes)
}

// mirrorsTo counts the mutations one candidate received.
func (p *countingPeers) mirrorsTo(a simnet.Addr) int { return len(p.at[a].mirrors) }

// wantAsks fails unless Sync asked each of cands exactly once about each of
// roots' replica-area copies, all with (or all without) the hash.
func (p *countingPeers) wantAsks(t *testing.T, hash bool, roots []string, cands ...simnet.Addr) {
	t.Helper()
	seen := map[askRec]int{}
	for _, a := range p.asks {
		seen[a]++
	}
	for _, root := range roots {
		for _, c := range cands {
			k := askRec{c, RepPath(root), hash}
			if seen[k] != 1 {
				t.Errorf("%s asked about %s (hash=%v) %d times, want once", c, root, hash, seen[k])
			}
			delete(seen, k)
		}
	}
	if len(seen) != 0 || len(p.asks) != len(roots)*len(cands) {
		t.Fatalf("%d asks, want %d candidates x %d roots; beyond the expected: %v", len(p.asks), len(cands), len(roots), seen)
	}
}

// ownerEngine is an engine that owns every key, with the given candidates.
func ownerEngine(peers Peer, cands ...simnet.Addr) (*Engine, localfs.FileSystem) {
	reps := make([]pastry.NodeInfo, len(cands))
	for i, a := range cands {
		reps[i] = pastry.NodeInfo{ID: id.HashKey(string(a)), Addr: a}
	}
	store := localfs.New(0, simnet.DiskModel{})
	e := New(Options{
		Self:     "self",
		Store:    store,
		Overlay:  &fakeOverlay{isRoot: true, reps: reps},
		Peer:     peers,
		Replicas: len(cands),
		Key:      func(pn string) id.ID { return id.HashKey(pn) },
		Registry: obs.NewRegistry(),
	})
	return e, store
}

func mustWrite(t *testing.T, fs localfs.FileSystem, p, data string) {
	t.Helper()
	if err := fs.WriteFile(p, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

// A Sync that ships nothing costs one hashed ask per candidate per owned live
// root and not one mirror, for K = 1, 2, 3.
func TestSyncNoopAsksEachCandidateOnce(t *testing.T) {
	all := []simnet.Addr{"r1", "r2", "r3"}
	roots := []string{"/a", "/b", "/c", "/d"}
	for k := 1; k <= len(all); k++ {
		cands := all[:k]
		peers := newCountingPeers(cands...)
		e, store := ownerEngine(peers, cands...)
		for i, root := range roots {
			mustWrite(t, store, root+"/f", "content of "+root)
			for _, c := range cands {
				mustWrite(t, peers.at[c].remote, RepPath(root)+"/f", "content of "+root)
				peers.at[c].vers[root] = uint64(i + 1)
			}
			e.Track(Track{PN: root[1:], Root: root, Ver: uint64(i + 1)}, FSOp{Kind: FSMkdirAll, Path: root})
		}
		e.Sync()
		peers.wantAsks(t, true, roots, cands...)
		for _, c := range cands {
			if n := peers.mirrorsTo(c); n != 0 {
				t.Fatalf("K=%d: converged candidate %s received %d mutations: %v", k, c, n, peers.at[c].mirrors)
			}
		}
	}
}

// A candidate holding a newer settled version is fetched from, and the other
// candidates are brought to the adopted state — from the one answer each gave
// before the fetch.
func TestSyncAdoptsNewerCopyAndRefreshesTheRestOnOneAskEach(t *testing.T) {
	peers := newCountingPeers("r1", "r2", "r3")
	e, store := ownerEngine(peers, "r1", "r2", "r3")
	mustWrite(t, store, "/proj/f", "old")
	mustWrite(t, store, "/proj/gone", "deleted since")
	e.Track(Track{PN: "proj", Root: "/proj", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/proj"})
	// r1 saw mutations this node missed; r2 holds what this node holds; r3
	// holds nothing.
	mustWrite(t, peers.at["r1"].remote, RepPath("/proj")+"/f", "new")
	mustWrite(t, peers.at["r1"].remote, RepPath("/proj")+"/added", "added")
	peers.at["r1"].vers["/proj"] = 5
	mustWrite(t, peers.at["r2"].remote, RepPath("/proj")+"/f", "old")
	mustWrite(t, peers.at["r2"].remote, RepPath("/proj")+"/gone", "deleted since")
	peers.at["r2"].vers["/proj"] = 2

	e.Sync()

	peers.wantAsks(t, true, []string{"/proj"}, "r1", "r2", "r3")
	if v := e.VerOf("/proj"); v != 5 {
		t.Fatalf("local version %d after the sync, want r1's 5", v)
	}
	want, err := merkle.DigestPath(peers.at["r1"].remote, RepPath("/proj"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := merkle.DigestPath(store, "/proj"); err != nil || got != want {
		t.Fatalf("local copy is not r1's newer one (err=%v)", err)
	}
	if n := peers.mirrorsTo("r1"); n != 0 {
		t.Fatalf("the copy just fetched from was sent %d mutations: %v", n, peers.at["r1"].mirrors)
	}
	for _, c := range []simnet.Addr{"r2", "r3"} {
		if got, err := merkle.DigestPath(peers.at[c].remote, RepPath("/proj")); err != nil || got != want {
			t.Fatalf("%s was not refreshed to the adopted state (err=%v)", c, err)
		}
		if v := peers.at[c].vers["/proj"]; v != 5 {
			t.Fatalf("%s records version %d, want 5", c, v)
		}
	}
}

// A newer deletion among the answers becomes the local tombstone, and this
// round pushes nothing: the next one propagates it.
func TestSyncAdoptsNewerTombstoneAndPushesNothing(t *testing.T) {
	peers := newCountingPeers("r1", "r2")
	e, store := ownerEngine(peers, "r1", "r2")
	mustWrite(t, store, "/share/s", "stale")
	e.Track(Track{PN: "share", Root: "/share", Ver: 2}, FSOp{Kind: FSMkdirAll, Path: "/share"})
	peers.at["r1"].vers["/share"] = 7 // no data at a newer version: deleted
	mustWrite(t, peers.at["r2"].remote, RepPath("/share")+"/s", "stale")
	peers.at["r2"].vers["/share"] = 2

	e.Sync()

	peers.wantAsks(t, true, []string{"/share"}, "r1", "r2")
	if !e.IsDead("/share") || e.VerOf("/share") != 7 {
		t.Fatalf("dead=%v ver=%d after the sync, want the tombstone at 7", e.IsDead("/share"), e.VerOf("/share"))
	}
	if _, err := store.LookupPath("/share"); err == nil {
		t.Fatal("local copy survived a newer deletion")
	}
	if n := peers.mirrorsTo("r1") + peers.mirrorsTo("r2"); n != 0 {
		t.Fatalf("%d mutations pushed in the round that adopted the tombstone", n)
	}

	// The next round owns a tombstone: K version-only asks, and the deletion
	// reaches the candidate still holding the older copy, and only it.
	peers.asks = nil
	e.Sync()
	peers.wantAsks(t, false, []string{"/share"}, "r1", "r2")
	if n := peers.mirrorsTo("r1"); n != 0 {
		t.Fatalf("the candidate that already knows the deletion was sent %d mutations", n)
	}
	if ms := peers.at["r2"].mirrors; len(ms) != 1 || ms[0].op.Kind != FSRemoveAll {
		t.Fatalf("stale candidate received %v, want one FSRemoveAll", ms)
	}
	if _, err := peers.at["r2"].remote.LookupPath(RepPath("/share")); err == nil {
		t.Fatal("the stale replica copy survived the tombstone")
	}
}
