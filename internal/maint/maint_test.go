package maint

import (
	"bytes"
	"errors"
	"fmt"
	"path"
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
// and whose placement answers (ownership, routes, salts, gossiped loads) are
// maps the test fills in. No network, no overlay: every round's inputs are in
// plain sight, and what the engine did is read off the peers' stores, the
// host's call log and the engine's own counters.

var errScripted = errors.New("scripted failure")

// peerStore is one remote node: its store and the digests over it.
type peerStore struct {
	fs localfs.FileSystem
	mk *merkle.Cache
}

// storePeers is a repl.Peer over in-memory remote stores. Mirror applies the
// ops a push emits; block negotiation always answers that the remote holds
// neither the file nor any block, so every chunk of a push travels inline
// and no chunk index is needed.
type storePeers struct {
	stores map[simnet.Addr]*peerStore
	asks   map[pair]int // TREE_DIGEST asks per (primary-relative root, node)
}

func (p *storePeers) at(a simnet.Addr) *peerStore {
	if p.stores[a] == nil {
		fs := localfs.New(0, simnet.DiskModel{})
		p.stores[a] = &peerStore{fs: fs, mk: merkle.NewCacheWithStore(fs, cas.NewStore(fs, nil))}
	}
	return p.stores[a]
}

func (p *storePeers) Mirror(_ obs.TraceContext, to simnet.Addr, _ repl.Track, op repl.FSOp, primary bool) (simnet.Cost, error) {
	fs := p.at(to).fs
	if !primary {
		op.Path = repl.RepPath(op.Path)
	}
	switch op.Kind {
	case repl.FSMkdirAll:
		_, err := fs.MkdirAll(op.Path)
		return 0, err
	case repl.FSWriteFile:
		return 0, fs.WriteFile(op.Path, op.Data)
	case repl.FSCreate:
		return 0, fs.WriteFile(op.Path, nil)
	case repl.FSWrite, repl.FSChunkWrite: // a span's chunks are all inline
		a, err := fs.LookupPath(op.Path)
		if err != nil {
			return 0, err
		}
		_, _, err = fs.Write(a.Ino, op.Offset, op.Data)
		return 0, err
	case repl.FSRemove, repl.FSRemoveAll:
		return 0, fs.RemoveAll(op.Path)
	}
	return 0, fmt.Errorf("storePeers: unscripted op %v", op.Kind)
}

func (p *storePeers) DigestTree(_ obs.TraceContext, to simnet.Addr, root string, _ bool) (repl.TreeDigest, simnet.Cost, error) {
	p.asks[pair{repl.PrimaryRoot(root), to}]++
	s := p.at(to)
	var td repl.TreeDigest
	if _, err := s.fs.LookupPath(root); err != nil {
		return td, 0, nil
	}
	td.Exists = true
	_, err := s.fs.LookupPath(path.Join(root, repl.MigrationFlag))
	td.Flag = err == nil
	td.Root, _ = s.mk.DigestOf(root)
	return td, 0, nil
}

func (p *storePeers) DirDigests(_ obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	ents, ok, err := p.at(to).mk.Entries(dir)
	return ents, ok, 0, err
}

func (p *storePeers) ChunkManifest(_ obs.TraceContext, _ simnet.Addr, _ string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	return nil, false, make([]bool, len(want)), 0, nil
}

func (p *storePeers) ChunkFetch(obs.TraceContext, simnet.Addr, string, []cas.Hash) ([][]byte, simnet.Cost, error) {
	return nil, 0, errScripted
}

func (p *storePeers) Promote(obs.TraceContext, simnet.Addr, repl.Track) (bool, simnet.Cost, error) {
	return false, 0, errScripted
}

func (p *storePeers) ReadLink(obs.TraceContext, simnet.Addr, string) (string, simnet.Cost, error) {
	return "", 0, errScripted
}

// noOverlay satisfies repl.Overlay; the maintenance hooks never consult it.
type noOverlay struct{}

func (noOverlay) EnsureRootFor(id.ID) (bool, simnet.Cost) { return true, 0 }
func (noOverlay) ReplicaCandidates(int) []pastry.NodeInfo { return nil }
func (noOverlay) Route(id.ID) (pastry.RouteResult, error) { return pastry.RouteResult{}, errScripted }

// scriptedHost is the Host: a real replication engine over a local store
// plus the placement answers the test scripts. It owns every key, calls every
// tracked root an eligible victim, salts "base" into "base#attempt", and
// routes every salted probe to dest.
type scriptedHost struct {
	fs    localfs.FileSystem
	rep   *repl.Engine
	peers *storePeers
	reg   *obs.Registry

	cands []simnet.Addr        // replica candidates
	dest  simnet.Addr          // where every re-salted name routes ("" = nowhere)
	loads map[simnet.Addr]Load // gossiped peer loads

	relinks   []string       // "base -> new storage root", in order
	syncs     int            // SyncReplicas calls
	ownership map[string]int // OwnsKey calls per placement name
}

func (h *scriptedHost) Rep() *repl.Engine               { return h.rep }
func (h *scriptedHost) Self() simnet.Addr               { return "self" }
func (h *scriptedHost) Candidates(int) []simnet.Addr    { return h.cands }
func (h *scriptedHost) PeerLoads() map[simnet.Addr]Load { return h.loads }
func (h *scriptedHost) BaseName(pn string) string       { return strings.SplitN(pn, "#", 2)[0] }
func (h *scriptedHost) NewStoreRoot(pn string) string   { return "/moved/" + pn }

func (h *scriptedHost) OwnsKey(pn string) (bool, simnet.Cost) {
	h.ownership[pn]++
	return true, 0
}

func (h *scriptedHost) Salt(base string, attempt int) string {
	return fmt.Sprintf("%s#%d", base, attempt)
}

func (h *scriptedHost) LocalLoad() Load {
	return Load{Used: h.fs.Used(), Capacity: h.fs.Capacity()}
}

func (h *scriptedHost) ProbeLoad(simnet.Addr) (Load, simnet.Cost, error) {
	return Load{}, 0, errScripted
}

func (h *scriptedHost) EligibleVictim(obs.TraceContext, repl.Track) (bool, simnet.Cost) {
	return true, 0
}

func (h *scriptedHost) UntrackAt(obs.TraceContext, simnet.Addr, string) (simnet.Cost, error) {
	return 0, nil
}

func (h *scriptedHost) Route(string) (simnet.Addr, simnet.Cost, error) {
	if h.dest == "" {
		return "", 0, errScripted
	}
	return h.dest, 0, nil
}

func (h *scriptedHost) Relink(_ obs.TraceContext, base, _, storeRoot string) (simnet.Cost, error) {
	h.relinks = append(h.relinks, base+" -> "+storeRoot)
	return 0, nil
}

func (h *scriptedHost) SyncReplicas() simnet.Cost {
	h.syncs++
	return 0
}

func newHost(capacity int64) *scriptedHost {
	h := &scriptedHost{
		fs:        localfs.New(capacity, simnet.DiskModel{}),
		peers:     &storePeers{stores: map[simnet.Addr]*peerStore{}, asks: map[pair]int{}},
		reg:       obs.NewRegistry(),
		loads:     map[simnet.Addr]Load{},
		ownership: map[string]int{},
	}
	h.rep = repl.New(repl.Options{Self: "self", Store: h.fs, Overlay: noOverlay{}, Peer: h.peers, Replicas: 1, Key: func(pn string) (k id.ID) { copy(k[:], pn); return k }, Registry: h.reg})
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

// TestTokenBudgetEndsScrubRound: one round spends at most TokensPerTick
// tokens, one per file verification and one per digest exchange, and a round
// that runs out stops exchanging rather than overdrawing.
func TestTokenBudgetEndsScrubRound(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r1"}
	const roots = TokensPerTick + 16
	for i := 0; i < roots; i++ {
		h.home(t, fmt.Sprintf("u%03d", i), 8)
	}
	const verify = 10
	e := h.engine(Options{Scrub: true, VerifyFiles: verify})
	e.Tick()
	// Every root diverges (r1 starts empty), so the divergence counter counts
	// the digest exchanges the round paid for.
	if got := h.counter("maint.scrub.divergences"); got != TokensPerTick-verify {
		t.Fatalf("round checked %d roots, want exactly the %d tokens left after %d verifications", got, TokensPerTick-verify, verify)
	}
	if TokensPerTick != 64 || VerifyBlocks != 32 {
		t.Fatalf("budgets moved: TokensPerTick=%d VerifyBlocks=%d, want 64 and 32", TokensPerTick, VerifyBlocks)
	}
}

// TestExchangeCursorCoversEveryPair: a node with three rounds' worth of
// (owned root, candidate) pairs exchanges with every one of them in exactly
// three rounds — the cursor resumes after the last pair visited and wraps —
// so a divergence on the very last pair is found and repaired; and a pair
// costs one TREE_DIGEST ask whether or not it diverged. Reset rewinds.
func TestExchangeCursorCoversEveryPair(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r3", "r1", "r2"} // the visit order is sorted, not the host's
	var roots []string
	for i := 0; i < TokensPerTick; i++ {
		roots = append(roots, h.home(t, fmt.Sprintf("u%03d", i), 8))
	}
	const rounds = 3 // ceil(pairs / budget) with pairs = 3 * TokensPerTick
	e := h.engine(Options{Scrub: true, VerifyFiles: -1})

	// sweep runs one full coverage and checks each pair was asked once more.
	sweep := func(asksPerPair int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			e.Tick()
		}
		for _, root := range roots {
			for _, cand := range h.cands {
				if got := h.peers.asks[pair{root, cand}]; got != asksPerPair {
					t.Fatalf("%s at %s asked %d times after %d rounds, want %d", root, cand, got, asksPerPair*rounds, asksPerPair)
				}
			}
		}
	}
	// Every candidate starts empty, so every pair diverges: one ask and a
	// push each, all of them within the first three rounds.
	sweep(1)
	if got, want := h.counter("maint.scrub.repaired"), uint64(len(roots)*len(h.cands)); got != want {
		t.Fatalf("repaired %d pairs in %d rounds, want all %d", got, rounds, want)
	}
	if last := (pair{roots[len(roots)-1], "r3"}); e.at.pair != last {
		t.Fatalf("cursor at %v after a full sweep, want the last pair %v", e.at.pair, last)
	}

	// Rot on the last pair in visit order; everything else is converged.
	lastRoot := roots[len(roots)-1]
	remote := h.peers.at("r3").fs
	if err := remote.WriteFile(repl.RepPath(lastRoot+"/f00"), []byte("bit rot")); err != nil {
		t.Fatal(err)
	}
	before := h.counter("maint.scrub.repaired")
	sweep(2)
	if got := h.counter("maint.scrub.repaired") - before; got != 1 {
		t.Fatalf("second sweep repaired %d pairs, want exactly the planted one", got)
	}
	if got, err := remote.ReadFile(repl.RepPath(lastRoot + "/f00")); err != nil || !bytes.Equal(got, payload("u063", 0, 8)) {
		t.Fatalf("last root's replica not restored: %q err=%v", got, err)
	}

	e.Reset()
	if e.at.pair != (pair{}) {
		t.Fatal("Reset left the exchange cursor behind")
	}
}

// TestScrubAsksOwnershipOncePerRoot: a round asks the host who owns a root
// once, however many of its loops use the answer.
func TestScrubAsksOwnershipOncePerRoot(t *testing.T) {
	h := newHost(0)
	h.cands = []simnet.Addr{"r1"}
	for _, name := range []string{"alice", "bob", "carol"} {
		h.home(t, name, 8, 8)
	}
	h.engine(Options{Scrub: true, VerifyFiles: 2}).Tick()
	for _, name := range []string{"alice", "bob", "carol"} {
		if got := h.ownership[name]; got != 1 {
			t.Fatalf("OwnsKey(%s) asked %d times in one round, want 1", name, got)
		}
	}
}

// TestVerifyCursorSlidesAndWraps: each round re-chunks the next VerifyFiles
// files in sorted order after the cursor, wrapping at the end, so every file
// is visited and none starves. Reset rewinds the cursor.
func TestVerifyCursorSlidesAndWraps(t *testing.T) {
	h := newHost(0)
	root := h.home(t, "alice", 8, 8, 8, 8, 8) // f00..f04
	e := h.engine(Options{Scrub: true, VerifyFiles: 2})
	for round, want := range []string{"f01", "f03", "f00", "f02", "f04", "f01"} {
		e.Tick()
		if e.at.file != root+"/"+want {
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
	// A negative window disables file verification: the cursor stays put.
	off := h.engine(Options{Scrub: true, VerifyFiles: -1})
	off.Tick()
	if off.at.file != "" {
		t.Fatalf("disabled verification moved the cursor to %q", off.at.file)
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
// high-water mark; over it, it sheds smallest-first to the re-salted owner;
// one round starts no new move once it has shipped MoveBytes; and a round
// stops as soon as utilization is under the low-water mark.
func TestRebalancerWaterMarksAndByteCap(t *testing.T) {
	const mib = 1 << 20
	h := newHost(100 * mib)
	h.dest = "d1"
	h.loads["d1"] = Load{Used: 0, Capacity: 1000 * mib}
	// 5+6+7+8+9+10+30 = 75 MiB: under the 80 % high-water mark.
	for i, size := range []int{5, 6, 7, 8, 9, 10, 30} {
		h.home(t, fmt.Sprintf("u%d", i), size*mib)
	}
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
	if h.syncs != 1 {
		t.Fatalf("SyncReplicas ran %d times after a moving round, want 1", h.syncs)
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
	small.loads["d1"] = Load{Capacity: 1000 * mib}
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
