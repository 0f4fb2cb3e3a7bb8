package maint

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
)

// The engine under test runs over a scripted Host: a real replication engine
// on a real local store, whose peers are stores held by the test (storePeers)
// and whose placement answers (ownership and routes through the engine's
// overlay, salts, gossiped loads) are maps the test fills in. No network, no overlay: every round's inputs are in
// plain sight, and what the engine did is read off the peers' stores, the
// host's call log and the engine's own counters.

var errScripted = errors.New("scripted failure")

// peerStore is one remote node: a replication engine over its own store.
type peerStore struct {
	fs  localfs.FileSystem
	eng *repl.Engine
}

// storePeers is a repl.Peer over in-memory remote nodes. Mirror applies the
// metadata ops repair sends; Pull runs the remote engine's own pull, whose
// listing and block calls reach the host's engine through hostPeer; the
// listing and block calls of the host's own pulls (an adopt) are answered
// from the remote stores.
type storePeers struct {
	host   *repl.Engine
	stores map[simnet.Addr]*peerStore
	asks   map[ask]int // TREE_DIGEST asks
}

// ask is one TREE_DIGEST target: a primary-relative root at a node.
type ask struct {
	root string
	node simnet.Addr
}

func (p *storePeers) at(a simnet.Addr) *peerStore {
	if p.stores[a] == nil {
		fs := localfs.New(0, simnet.DiskModel{})
		eng := repl.New(repl.Options{Self: a, Store: fs, Overlay: noOverlay{}, Peer: hostPeer{p}, Replicas: 1, Key: key})
		p.stores[a] = &peerStore{fs: fs, eng: eng}
	}
	return p.stores[a]
}

func (p *storePeers) Mirror(_ obs.TraceContext, to simnet.Addr, t repl.Track, op repl.FSOp, primary bool) (simnet.Cost, error) {
	ps := p.at(to)
	if !primary {
		op.Path = repl.RepPath(op.Path)
	}
	var err error
	switch op.Kind {
	case repl.FSMkdirAll:
		_, err = ps.fs.MkdirAll(op.Path)
	case repl.FSRemoveAll:
		err = ps.fs.RemoveAll(op.Path)
	default:
		return 0, fmt.Errorf("storePeers: unscripted op %v", op.Kind)
	}
	if err == nil {
		ps.eng.Track(t, op)
	}
	return 0, err
}

func (p *storePeers) Pull(tc obs.TraceContext, to simnet.Addr, t repl.Track, src string, primary bool) (simnet.Cost, error) {
	return p.at(to).eng.Pull(tc, "self", t, src, primary)
}

func (p *storePeers) DigestTree(_ obs.TraceContext, to simnet.Addr, root string, _ bool) (repl.TreeDigest, simnet.Cost, error) {
	p.asks[ask{repl.PrimaryRoot(root), to}]++
	eng := p.at(to).eng
	td := eng.DigestLocal(root, true)
	td.Ver = eng.VerOf(repl.PrimaryRoot(root))
	return td, 0, nil
}

func (p *storePeers) DirDigests(_ obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	ents, ok, err := p.at(to).eng.DirDigestsLocal(dir)
	return ents, ok, 0, err
}

func (p *storePeers) ChunkManifest(_ obs.TraceContext, to simnet.Addr, phys string) (cas.Manifest, uint32, bool, simnet.Cost, error) {
	return serveManifest(p.at(to).eng, phys)
}

func (p *storePeers) ChunkFetch(_ obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	return serveBlocks(p.at(to).eng, phys, hashes)
}

// serveManifest and serveBlocks answer CHUNK_MANIFEST and CHUNK_FETCH from
// eng's store.
func serveManifest(eng *repl.Engine, phys string) (cas.Manifest, uint32, bool, simnet.Cost, error) {
	m, mode, ok := eng.ManifestLocal(phys)
	return m, mode, ok, 0, nil
}

func serveBlocks(eng *repl.Engine, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	eng.ManifestLocal(phys)
	blocks := make([][]byte, len(hashes))
	for i, hash := range hashes {
		blocks[i], _ = eng.GetBlock(hash)
	}
	return blocks, 0, nil
}

func (p *storePeers) Promote(obs.TraceContext, simnet.Addr, repl.Track) (bool, simnet.Cost, error) {
	return false, 0, errScripted
}

func (p *storePeers) ReadLink(obs.TraceContext, simnet.Addr, string) (string, simnet.Cost, error) {
	return "", 0, errScripted
}

// hostPeer is a remote engine's network: the listing and block calls of its
// pulls reach the host's engine, answered from the host's store.
type hostPeer struct{ p *storePeers }

func (h hostPeer) DirDigests(_ obs.TraceContext, _ simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	ents, ok, err := h.p.host.DirDigestsLocal(dir)
	return ents, ok, 0, err
}

func (h hostPeer) ChunkManifest(_ obs.TraceContext, _ simnet.Addr, phys string) (cas.Manifest, uint32, bool, simnet.Cost, error) {
	return serveManifest(h.p.host, phys)
}

func (h hostPeer) ChunkFetch(_ obs.TraceContext, _ simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	return serveBlocks(h.p.host, phys, hashes)
}

func (hostPeer) ReadLink(obs.TraceContext, simnet.Addr, string) (string, simnet.Cost, error) {
	return "", 0, errScripted
}

func (hostPeer) Mirror(obs.TraceContext, simnet.Addr, repl.Track, repl.FSOp, bool) (simnet.Cost, error) {
	return 0, errScripted
}

func (hostPeer) Pull(obs.TraceContext, simnet.Addr, repl.Track, string, bool) (simnet.Cost, error) {
	return 0, errScripted
}

func (hostPeer) Promote(obs.TraceContext, simnet.Addr, repl.Track) (bool, simnet.Cost, error) {
	return false, 0, errScripted
}

func (hostPeer) DigestTree(obs.TraceContext, simnet.Addr, string, bool) (repl.TreeDigest, simnet.Cost, error) {
	return repl.TreeDigest{}, 0, errScripted
}

// noOverlay is a remote engine's overlay: it owns every key and names no
// replica candidate.
type noOverlay struct{}

func (noOverlay) EnsureRootFor(id.ID) (bool, simnet.Cost) { return true, 0 }
func (noOverlay) ReplicaCandidates(int) []pastry.NodeInfo { return nil }
func (noOverlay) Route(id.ID) (pastry.RouteResult, error) { return pastry.RouteResult{}, errScripted }

// key is the scripted placement hash: the name's bytes; nameOf inverts it.
func key(pn string) (k id.ID) {
	copy(k[:], pn)
	return k
}

func nameOf(k id.ID) string { return strings.TrimRight(string(k[:]), "\x00") }

// hostOverlay is the host engine's overlay: it counts the ownership asks,
// routes each key as the host's placement script says and names the host's
// replica candidates.
type hostOverlay struct{ h *scriptedHost }

func (o hostOverlay) EnsureRootFor(k id.ID) (bool, simnet.Cost) {
	pn := nameOf(k)
	o.h.ownership[pn]++
	return o.h.owner(pn) == "self", 0
}

func (o hostOverlay) Route(k id.ID) (pastry.RouteResult, error) {
	return pastry.RouteResult{Node: pastry.NodeInfo{Addr: o.h.owner(nameOf(k))}}, nil
}

func (o hostOverlay) ReplicaCandidates(int) []pastry.NodeInfo {
	out := make([]pastry.NodeInfo, len(o.h.cands))
	for i, a := range o.h.cands {
		out[i] = pastry.NodeInfo{Addr: a}
	}
	return out
}

// scriptedHost is the Host: a real replication engine over a local store
// plus the placement answers the test scripts. It owns every key but those
// named in owners, calls every tracked root an eligible victim, salts "base"
// into "base#attempt", and routes every salted probe to dest.
type scriptedHost struct {
	fs    localfs.FileSystem
	rep   *repl.Engine
	peers *storePeers
	reg   *obs.Registry

	cands  []simnet.Addr               // replica candidates
	owners map[string]simnet.Addr      // placement names another node owns
	dest   simnet.Addr                 // where every re-salted name routes ("" = here)
	loads  map[simnet.Addr]pastry.Load // gossiped peer loads

	relinks   []string       // "base -> new storage root", in order
	ownership map[string]int // ownership asks per placement name
}

func (h *scriptedHost) Rep() *repl.Engine                      { return h.rep }
func (h *scriptedHost) PeerLoads() map[simnet.Addr]pastry.Load { return h.loads }
func (h *scriptedHost) BaseName(pn string) string              { return strings.SplitN(pn, "#", 2)[0] }
func (h *scriptedHost) NewStoreRoot(pn string) string          { return "/moved/" + pn }

// owner is the node pn's key routes to.
func (h *scriptedHost) owner(pn string) simnet.Addr {
	if a, ok := h.owners[pn]; ok {
		return a
	}
	if h.dest != "" && strings.Contains(pn, "#") {
		return h.dest
	}
	return "self"
}

func (h *scriptedHost) Salt(base string, attempt int) string {
	return fmt.Sprintf("%s#%d", base, attempt)
}

func (h *scriptedHost) LocalLoad() pastry.Load {
	return pastry.Load{Used: h.fs.Used(), Capacity: h.fs.Capacity()}
}

func (h *scriptedHost) ProbeLoad(simnet.Addr) (pastry.Load, simnet.Cost, error) {
	return pastry.Load{}, 0, errScripted
}

func (h *scriptedHost) EligibleVictim(obs.TraceContext, repl.Track) (bool, simnet.Cost) {
	return true, 0
}

func (h *scriptedHost) Relink(_ obs.TraceContext, base, _, storeRoot string) (simnet.Cost, error) {
	h.relinks = append(h.relinks, base+" -> "+storeRoot)
	return 0, nil
}

func newHost(capacity int64) *scriptedHost {
	h := &scriptedHost{
		fs:        localfs.New(capacity, simnet.DiskModel{}),
		peers:     &storePeers{stores: map[simnet.Addr]*peerStore{}, asks: map[ask]int{}},
		reg:       obs.NewRegistry(),
		owners:    map[string]simnet.Addr{},
		loads:     map[simnet.Addr]pastry.Load{},
		ownership: map[string]int{},
	}
	h.rep = repl.New(repl.Options{Self: "self", Store: h.fs, Overlay: hostOverlay{h}, Peer: h.peers, Replicas: 1, Key: key, Registry: h.reg})
	h.peers.host = h.rep
	return h
}

// home creates a tracked level-1 hierarchy holding files of the given sizes
// and returns its storage root.
func (h *scriptedHost) home(t *testing.T, name string, sizes ...int) string {
	t.Helper()
	root := "/\x01" + name + ".s1"
	for i, size := range sizes {
		if err := h.fs.WriteFile(fmt.Sprintf("%s/f%02d", root, i), payload(name, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	h.rep.Track(repl.Track{PN: name, Root: root, Ver: 1}, repl.FSOp{Kind: repl.FSMkdirAll, Path: root})
	return root
}

func payload(name string, i, size int) []byte {
	return bytes.Repeat([]byte{byte(len(name)*31 + i*7)}, size)
}

func (h *scriptedHost) engine(o Options) *Engine {
	o.Host, o.Registry = h, h.reg
	return New(o)
}

func (h *scriptedHost) counter(name string) uint64 { return h.reg.Counter(name).Load() }

// sweepRounds is DESIGN §14's coverage bound: with every round verifying a
// full VerifyFiles window, a record costing max(candidates, 1) tokens and
// no record started that a round cannot pay for, every one of records
// tracked records is stepped within this many consecutive rounds.
func sweepRounds(records, candidates int) int {
	perRound := (TokensPerTick - VerifyFiles) / max(candidates, 1)
	return (records + perRound - 1) / perRound
}

// TestTokenBudgetEndsScrubRound: one round spends at most TokensPerTick
// tokens, one per file verification and one per replica candidate asked, and
// a round that runs out stops exchanging rather than overdrawing.
func TestTokenBudgetEndsScrubRound(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r1"}
	const roots = TokensPerTick + 16
	for i := 0; i < roots; i++ {
		h.home(t, fmt.Sprintf("u%03d", i), 8)
	}
	e := h.engine(Options{Scrub: true})
	e.Tick()
	// Every root diverges (r1 starts empty), so the divergence counter counts
	// the digest exchanges the round paid for.
	if got := h.counter("maint.scrub.divergences"); got != TokensPerTick-VerifyFiles {
		t.Fatalf("round checked %d roots, want exactly the %d tokens left after %d verifications", got, TokensPerTick-VerifyFiles, VerifyFiles)
	}
	if TokensPerTick != 64 || VerifyBlocks != 32 || VerifyFiles != 4 {
		t.Fatalf("budgets moved: TokensPerTick=%d VerifyBlocks=%d VerifyFiles=%d, want 64, 32 and 4", TokensPerTick, VerifyBlocks, VerifyFiles)
	}
}

// TestExchangeCursorCoversEveryPair: a node with three rounds' worth of
// tracked records — three candidates each, and as many records as a round
// has tokens left after its file verifications — steps every one of them
// within sweepRounds = 3 rounds: the cursor resumes past the last record
// visited and wraps, so a divergence at the very last record is found and
// repaired. Each candidate of a record costs one TREE_DIGEST ask whether or
// not it diverged. Reset rewinds.
func TestExchangeCursorCoversEveryPair(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r3", "r1", "r2"}
	var roots []string
	for i := 0; i < TokensPerTick-VerifyFiles; i++ {
		roots = append(roots, h.home(t, fmt.Sprintf("u%03d", i), 8))
	}
	rounds := sweepRounds(len(roots), len(h.cands))
	if rounds != 3 {
		t.Fatalf("%d rounds per sweep, want 3", rounds)
	}
	e := h.engine(Options{Scrub: true})

	// sweep runs one full coverage and checks each candidate of each record
	// was asked once more.
	sweep := func(asksPerPair int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			e.Tick()
		}
		for _, root := range roots {
			for _, cand := range h.cands {
				if got := h.peers.asks[ask{root, cand}]; got != asksPerPair {
					t.Fatalf("%s at %s asked %d times after %d rounds, want %d", root, cand, got, asksPerPair*rounds, asksPerPair)
				}
			}
		}
	}
	// Every candidate starts empty, so every candidate of every record
	// diverges: one ask and a pull each, all of them within the first sweep.
	sweep(1)
	if got, want := h.counter("maint.scrub.repaired"), uint64(len(roots)*len(h.cands)); got != want {
		t.Fatalf("repaired %d copies in %d rounds, want all %d", got, rounds, want)
	}
	if last := roots[len(roots)-1]; e.at.root != last {
		t.Fatalf("cursor at %q after a full sweep, want the last record %q", e.at.root, last)
	}

	// Rot at the last record, on its last candidate; everything else is
	// converged.
	lastRoot := roots[len(roots)-1]
	remote := h.peers.at("r2").fs
	if err := remote.WriteFile(repl.RepPath(lastRoot+"/f00"), []byte("bit rot")); err != nil {
		t.Fatal(err)
	}
	before := h.counter("maint.scrub.repaired")
	sweep(2)
	if got := h.counter("maint.scrub.repaired") - before; got != 1 {
		t.Fatalf("second sweep repaired %d copies, want exactly the planted one", got)
	}
	if got, err := remote.ReadFile(repl.RepPath(lastRoot + "/f00")); err != nil || !bytes.Equal(got, payload(fmt.Sprintf("u%03d", len(roots)-1), 0, 8)) {
		t.Fatalf("last root's replica not restored: %q err=%v", got, err)
	}

	e.Reset()
	if e.at.root != "" {
		t.Fatal("Reset left the exchange cursor behind")
	}
}

// TestScrubKeepsANewerSettledReplica: a candidate holding a settled copy at
// a newer version than the owner's keeps its version and bytes through a
// scrub round, and the owner adopts that copy: the scrub runs Sync's owner
// round, which adopts before it refreshes.
func TestScrubKeepsANewerSettledReplica(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r1"}
	root := h.home(t, "alice", 100, 200)
	newer := map[string][]byte{"f00": []byte("written at version 3"), "f01": payload("alice", 1, 200)}
	r1 := h.peers.at("r1")
	for name, data := range newer {
		if err := r1.fs.WriteFile(repl.RepPath(root+"/"+name), data); err != nil {
			t.Fatal(err)
		}
	}
	r1.eng.Track(repl.Track{PN: "alice", Root: root, Ver: 3}, repl.FSOp{Kind: repl.FSMkdirAll, Path: repl.RepPath(root)})

	h.engine(Options{Scrub: true}).Tick()
	for _, c := range []struct {
		who string
		ps  *peerStore
		at  string
	}{{"candidate", r1, repl.RepPath(root)}, {"owner", &peerStore{h.fs, h.rep}, root}} {
		if v := c.ps.eng.VerOf(root); v != 3 {
			t.Errorf("%s records version %d, want the candidate's 3", c.who, v)
		}
		for name, data := range newer {
			if got, err := c.ps.fs.ReadFile(c.at + "/" + name); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s's %s is %.20q (err %v), want version 3's %q", c.who, name, got, err, data)
			}
		}
	}
}

// TestFlaggedOwnerCopyIsNoSource: the owner's copy is still being filled
// (MIGRATION_NOT_COMPLETE up) and lacks a file that a candidate's settled
// copy holds. Neither Sync nor a scrub round refreshes the candidate from
// it.
func TestFlaggedOwnerCopyIsNoSource(t *testing.T) {
	for _, c := range []struct {
		name  string
		round func(h *scriptedHost)
	}{
		{"sync", func(h *scriptedHost) { h.rep.Sync() }},
		{"scrub", func(h *scriptedHost) { h.engine(Options{Scrub: true}).Tick() }},
	} {
		h := newHost(0)
		h.cands = []simnet.Addr{"r1"}
		root := h.home(t, "alice", 100, 200)
		r1 := h.peers.at("r1")
		for i, size := range []int{100, 200} {
			if err := r1.fs.WriteFile(repl.RepPath(fmt.Sprintf("%s/f%02d", root, i)), payload("alice", i, size)); err != nil {
				t.Fatal(err)
			}
		}
		r1.eng.Track(repl.Track{PN: "alice", Root: root, Ver: 1}, repl.FSOp{Kind: repl.FSMkdirAll, Path: repl.RepPath(root)})
		// Version 2 is arriving at the owner: f01 has not landed yet.
		if err := h.fs.RemoveAll(root + "/f01"); err != nil {
			t.Fatal(err)
		}
		if err := h.fs.WriteFile(root+"/"+repl.MigrationFlag, nil); err != nil {
			t.Fatal(err)
		}
		h.rep.Track(repl.Track{PN: "alice", Root: root, Ver: 2}, repl.FSOp{Kind: repl.FSMkdirAll, Path: root})

		c.round(h)
		if got, err := r1.fs.ReadFile(repl.RepPath(root + "/f01")); err != nil || !bytes.Equal(got, payload("alice", 1, 200)) {
			t.Errorf("%s: the candidate's f01 is %d bytes (err %v): refreshed from a flagged copy", c.name, len(got), err)
		}
		if v := r1.eng.VerOf(root); v != 1 {
			t.Errorf("%s: the candidate records version %d, want 1", c.name, v)
		}
	}
}

// TestScrubAsksOwnershipOncePerRoot: a round asks who owns a record once
// for each record its window steps and never for one outside the window;
// file verification asks none.
func TestScrubAsksOwnershipOncePerRoot(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r1"}
	const roots = TokensPerTick // more than one round's window
	for i := 0; i < roots; i++ {
		h.home(t, fmt.Sprintf("u%03d", i), 8)
	}
	h.engine(Options{Scrub: true}).Tick()
	window := TokensPerTick - VerifyFiles
	for i := 0; i < roots; i++ {
		name := fmt.Sprintf("u%03d", i)
		want := 0
		if i < window {
			want = 1
		}
		if got := h.ownership[name]; got != want {
			t.Fatalf("ownership of %s asked %d times in one round, want %d (the window is the first %d records)", name, got, want, window)
		}
	}
}

// TestScrubDeliversAMissedTombstone: a root tombstoned after its candidate
// pulled a copy, with no Sync since, is a dead record the scrub steps like
// any other: within the coverage bound the owner round tells the candidate,
// whose copy goes and whose record turns dead. The live records ahead of it
// in root order use up the first round.
func TestScrubDeliversAMissedTombstone(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r1"}
	for i := 0; i < TokensPerTick; i++ {
		h.home(t, fmt.Sprintf("u%03d", i), 8)
	}
	root := h.home(t, "zed", 100)
	h.rep.Sync()
	r1 := h.peers.at("r1")
	if _, err := r1.fs.LookupPath(repl.RepPath(root)); err != nil {
		t.Fatalf("the Sync left r1 no copy: %v", err)
	}
	if _, ok := h.rep.Tombstone(root); !ok {
		t.Fatal("no record to tombstone")
	}

	e := h.engine(Options{Scrub: true})
	rounds := sweepRounds(len(h.rep.Tracks()), len(h.cands))
	for r := 0; r < rounds; r++ {
		e.Tick()
	}
	if _, err := r1.fs.LookupPath(repl.RepPath(root)); err == nil {
		t.Errorf("r1 still holds a copy of %s after %d scrub rounds", root, rounds)
	}
	if !r1.eng.IsDead(root) || r1.eng.VerOf(root) != 2 {
		t.Errorf("r1 records %s dead %v at version %d, want the tombstone at 2", root, r1.eng.IsDead(root), r1.eng.VerOf(root))
	}
}

// TestScrubHandsOverARecordItNoLongerOwns: the host holds a live record
// whose key now routes to a peer holding nothing. Scrub rounds alone have
// that peer pull the copy to its primary path at the record's version, and
// park the host's copy in the replica area.
func TestScrubHandsOverARecordItNoLongerOwns(t *testing.T) {
	h := newHost(0)
	root := h.home(t, "alice", 100, 200)
	h.owners["alice"] = "n1"

	e := h.engine(Options{Scrub: true})
	rounds := sweepRounds(len(h.rep.Tracks()), len(h.cands))
	for r := 0; r < rounds; r++ {
		e.Tick()
	}
	n1 := h.peers.at("n1")
	for i, size := range []int{100, 200} {
		name := fmt.Sprintf("/f%02d", i)
		if got, err := n1.fs.ReadFile(root + name); err != nil || !bytes.Equal(got, payload("alice", i, size)) {
			t.Errorf("the new owner's %s is %d bytes (err %v), want the host's %d", name, len(got), err, size)
		}
		if _, err := h.fs.LookupPath(repl.RepPath(root) + name); err != nil {
			t.Errorf("the host's %s is not in the replica area: %v", name, err)
		}
	}
	if v := n1.eng.VerOf(root); v != 1 {
		t.Errorf("the new owner records version %d, want 1", v)
	}
	if _, err := h.fs.LookupPath(root); err == nil {
		t.Error("the host's copy still sits at the primary path")
	}
	if got := h.counter("maint.scrub.repaired"); got != 1 {
		t.Errorf("repaired = %d, want the one hand-over", got)
	}
}

// TestVerifyCursorSlidesAndWraps: each round re-chunks the next VerifyFiles
// files in sorted order after the cursor, wrapping at the end, so every file
// is visited and none starves. Reset rewinds the cursor.
func TestVerifyCursorSlidesAndWraps(t *testing.T) {
	h := newHost(0)
	const files = VerifyFiles + 1 // every round but the first wraps
	sizes := make([]int, files)
	for i := range sizes {
		sizes[i] = 8
	}
	root := h.home(t, "alice", sizes...)
	e := h.engine(Options{Scrub: true})
	for round := 0; round < 6; round++ {
		e.Tick()
		if want := fmt.Sprintf("%s/f%02d", root, ((round+1)*VerifyFiles-1)%files); e.at.file != want {
			t.Fatalf("round %d: cursor at %q, want %s", round, e.at.file, want)
		}
	}
	if got := h.counter("maint.scrub.rounds"); got != 6 {
		t.Fatalf("scrub rounds = %d, want 6", got)
	}
	e.Reset()
	if e.at.file != "" || e.at.block != (cas.Hash{}) {
		t.Fatal("Reset left a cursor behind")
	}
}

// TestScrubRepairsDivergedReplica: a settled replica copy whose bytes differ
// from the primary's is found by the digest exchange, re-synced, counted and
// logged; a clean round afterwards finds nothing.
func TestScrubRepairsDivergedReplica(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r1"}
	root := h.home(t, "alice", 100, 200)
	events := obs.NewEventLog(0)
	e := h.engine(Options{Scrub: true, Events: events})
	e.Tick() // first round populates the empty replica
	remote := h.peers.at("r1").fs
	if err := remote.WriteFile(repl.RepPath(root+"/f01"), []byte("bit rot")); err != nil {
		t.Fatal(err)
	}
	before := h.counter("maint.scrub.repaired")
	e.Tick()
	if got := h.counter("maint.scrub.repaired") - before; got != 1 {
		t.Fatalf("repaired = %d after one replica diverged, want 1", got)
	}
	got, err := remote.ReadFile(repl.RepPath(root + "/f01"))
	if err != nil || string(got) != string(payload("alice", 1, 200)) {
		t.Fatalf("replica copy not restored: %d bytes, err=%v", len(got), err)
	}
	if n := events.Count(obs.EvScrubRepair); n != 2 {
		t.Fatalf("scrub-repair events = %d, want 2 (initial fill + repair)", n)
	}
	div := h.counter("maint.scrub.divergences")
	e.Tick()
	if h.counter("maint.scrub.divergences") != div {
		t.Fatal("a converged replica was flagged as diverged")
	}
}

// TestRebalancerWaterMarksAndByteCap: the rebalancer does nothing under the
// high-water mark; over it, it sheds smallest-first to the re-salted owner
// and takes each retired root's tombstone to that root's candidates, and to
// no other record's; one round starts no new move once it has shipped
// MoveBytes; and a round stops as soon as utilization is under the low-water
// mark.
func TestRebalancerWaterMarksAndByteCap(t *testing.T) {
	const mib = 1 << 20
	h := newHost(100 * mib)
	h.dest = "d1"
	h.cands = []simnet.Addr{"r1"}
	h.loads["d1"] = pastry.Load{Used: 0, Capacity: 1000 * mib}
	// 5+6+7+8+9+10+30 = 75 MiB: under the 80 % high-water mark.
	var roots []string
	for i, size := range []int{5, 6, 7, 8, 9, 10, 30} {
		roots = append(roots, h.home(t, fmt.Sprintf("u%d", i), size*mib))
	}
	h.rep.Sync() // r1 holds a replica of every root
	e := h.engine(Options{Rebalance: true})
	e.Tick()
	if len(h.relinks) != 0 {
		t.Fatalf("rebalancer moved %v at %.0f%% utilization", h.relinks, h.LocalLoad().Utilization()*100)
	}

	h.home(t, "big", 10*mib) // 85 MiB: armed
	e.Tick()
	// Smallest first: 5 MiB moves (5 shipped), then 6 MiB (11 shipped >= the
	// 8 MiB cap), and the round ends with 74 MiB still used.
	if want := []string{"u0 -> /moved/u0#1", "u1 -> /moved/u1#1"}; fmt.Sprint(h.relinks) != fmt.Sprint(want) {
		t.Fatalf("first armed round relinked %v, want %v (MoveBytes = %d)", h.relinks, want, MoveBytes)
	}
	if MoveBytes != 8*mib || SaltProbes != 4 {
		t.Fatalf("budgets moved: MoveBytes=%d SaltProbes=%d, want 8 MiB and 4", MoveBytes, SaltProbes)
	}
	if got := h.counter("maint.rebalance.bytes"); got != 11*mib {
		t.Fatalf("rebalance bytes = %d, want %d", got, 11*mib)
	}
	if _, err := h.peers.at("d1").fs.LookupPath("/moved/u1#1/f00"); err != nil {
		t.Fatalf("moved hierarchy not at the destination: %v", err)
	}
	r1 := h.peers.at("r1")
	for i, root := range roots {
		asks := h.peers.asks[ask{root, "r1"}]
		_, err := r1.fs.LookupPath(repl.RepPath(root))
		if retired := i < 2; retired && (asks != 2 || err == nil || !r1.eng.IsDead(root) || r1.eng.VerOf(root) != 2) {
			t.Errorf("retired %s: r1 asked %d times, holds a copy: %v, records dead %v at %d; want 2 asks, no copy, a tombstone at 2",
				root, asks, err == nil, r1.eng.IsDead(root), r1.eng.VerOf(root))
		} else if !retired && (asks != 1 || err != nil) {
			t.Errorf("kept %s: r1 asked %d times, copy err %v; want only the Sync's ask and the copy kept", root, asks, err)
		}
	}

	// 74 MiB is under high water: the rebalancer is disarmed again even
	// though it never reached the low-water mark.
	e.Tick()
	if len(h.relinks) != 2 {
		t.Fatalf("disarmed rebalancer moved again: %v", h.relinks)
	}

	// Low water: nine equal 960 KiB hierarchies fill a 10 MiB store to 84 %.
	// One round sheds three (75 %, 66 %, 56 %) and stops under 60 %, with
	// byte budget, token budget and victims all to spare.
	small := newHost(10 * mib)
	small.dest = "d1"
	small.loads["d1"] = pastry.Load{Capacity: 1000 * mib}
	for i := 0; i < 9; i++ {
		small.home(t, fmt.Sprintf("v%d", i), 960<<10)
	}
	small.engine(Options{Rebalance: true}).Tick()
	if want := []string{"v0 -> /moved/v0#1", "v1 -> /moved/v1#1", "v2 -> /moved/v2#1"}; fmt.Sprint(small.relinks) != fmt.Sprint(want) {
		t.Fatalf("round relinked %v, want %v: stop under the low-water mark", small.relinks, want)
	}
	if u := small.LocalLoad().Utilization(); u >= 0.6 || u < 0.5 {
		t.Fatalf("utilization %.2f after the round, want just under 0.60", u)
	}
}
