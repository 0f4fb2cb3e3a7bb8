package repl

import (
	"errors"
	"path"
	"sort"

	"repro/internal/cas"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// AdoptRoot makes this node's primary-path copy of a subtree current after
// it becomes the key's owner: surface the local replica-area copy, then
// ask the current replica candidates for a newer version or a newer
// deletion and adopt it. Runs on the cold path only (a fresh resolution
// that finds the root missing, an apply whose root is missing, a
// hand-over's Promote), when the holders' digest memos are cold too, so the
// ask is version-only. A node still holding nothing first adopts its
// runner-up's copy (adoptRunnerUp), and a promote then asks no further. An
// apply asks the candidates regardless, to learn of a newer copy or a
// tombstone before it creates the root anew. The second result reports
// whether local state changed — callers holding handles into the subtree
// must re-resolve when it did.
func (e *Engine) AdoptRoot(tc obs.TraceContext, t Track, apply bool) (simnet.Cost, bool) {
	changed := e.PromoteLocal(t)
	if t.Root == "" {
		return 0, changed
	}
	var total simnet.Cost
	if _, err := e.store.LookupPath(t.Root); err != nil {
		c, got := e.adoptRunnerUp(tc, t)
		if total, changed = c, changed || got; !apply && !got {
			return total, changed
		}
	}
	answers, c := e.askCandidates(tc, t.Root, false)
	c2, adopted := e.adopt(tc, t, answers)
	return simnet.Seq(total, c, c2), changed || adopted
}

// adoptRunnerUp pulls the newer settled copy of t that this node's ring
// neighbour closest to the key holds at the primary path: the key's owner
// before this node joined, until its next Sync hands the copy over. Only a
// node that has run fewer than two Syncs asks: every driver syncs each node
// once a period, so by its second Sync each neighbour has run one. A
// runner-up holding no copy there is no answer: its version may be a
// replica's.
func (e *Engine) adoptRunnerUp(tc obs.TraceContext, t Track) (simnet.Cost, bool) {
	if e.syncs.Load() >= 2 {
		return 0, false
	}
	var prev pastry.NodeInfo
	key := e.key(t.PN)
	for _, c := range e.ov.ReplicaCandidates(2) {
		if prev.IsZero() || key.Distance(c.ID).Less(key.Distance(prev.ID)) {
			prev = c
		}
	}
	if prev.IsZero() {
		return 0, false
	}
	// A pull may follow: ask for the hash, which indexes the holder's blocks.
	td, cost, err := e.peer.DigestTree(tc, prev.Addr, t.Root, true)
	if err != nil || !td.Exists || td.Flag || td.Ver <= e.VerOf(t.Root) {
		return cost, false
	}
	t.Ver = td.Ver
	c, err := e.pullTree(&walk{e: e, tc: tc, swarm: []simnet.Addr{prev.Addr}, root: t.Root}, t.Root, t)
	return simnet.Seq(cost, c), err == nil
}

// held is what one replica candidate answered that it holds of a root.
type held struct {
	addr simnet.Addr
	TreeDigest
}

// askCandidates asks every current replica candidate, once, what its replica
// area holds of root; those that do not answer are left out. Adopting a newer
// copy and refreshing a stale one both act on these answers, not a new ask.
func (e *Engine) askCandidates(tc obs.TraceContext, root string, hash bool) (answers []held, total simnet.Cost) {
	for _, rep := range e.ov.ReplicaCandidates(e.replicas) {
		td, c, err := e.peer.DigestTree(tc, rep.Addr, RepPath(root), hash)
		total = simnet.Seq(total, c)
		if err == nil {
			answers = append(answers, held{rep.Addr, td})
		}
	}
	return answers, total
}

// adopt brings this node's copy of t.Root up to the newest settled state
// among the candidates' answers: a newer copy is fetched, a newer deletion
// becomes the local tombstone. A fetch that fails adopts nothing, so the next
// answer holding the same version is tried. Reports whether local state
// changed.
func (e *Engine) adopt(tc obs.TraceContext, t Track, answers []held) (total simnet.Cost, changed bool) {
	myVer := e.VerOf(t.Root)
	for i, h := range answers {
		if h.Flag || h.Ver <= myVer {
			continue
		}
		if !h.Exists {
			// The newer state is a deletion: adopt the tombstone.
			e.store.RemoveAll(t.Root)
			e.store.RemoveAll(RepPath(t.Root))
			dead := t
			dead.Ver = h.Ver
			e.Track(dead, FSOp{Kind: FSRemoveAll, Path: t.Root})
			myVer = h.Ver
			changed = true
			continue
		}
		// Every other candidate holding a settled copy can serve blocks for
		// the fetch, bitswap-style, in parallel with the version's holder.
		var holders []simnet.Addr
		for j, other := range answers {
			if j != i && other.Exists && !other.Flag {
				holders = append(holders, other.addr)
			}
		}
		c, err := e.fetchTree(tc, h.addr, holders, t, h.Ver)
		total = simnet.Seq(total, c)
		if err == nil {
			myVer = h.Ver
			changed = true
		}
	}
	return total, changed
}

// Pull is the kPull server side, run by the node whose copy is behind: it
// makes its copy of t's hierarchy — at t.Root when primary, else in its
// replica area — hold what from's copy at src holds, fetching from from only
// what it lacks, and records t's version. MIGRATION_NOT_COMPLETE goes up at
// the copy's root once from has answered the first listing, before any edit,
// and comes down only when the walk is done (Section 4.4): a pull cut short
// leaves the copy flagged, so no promote adopts it as settled and the next
// refresh pulls again.
func (e *Engine) Pull(tc obs.TraceContext, from simnet.Addr, t Track, src string, primary bool) (simnet.Cost, error) {
	dst := t.Root
	if !primary {
		dst = RepPath(t.Root)
	}
	return e.pullTree(&walk{e: e, tc: tc, swarm: []simnet.Addr{from}, root: dst, arm: true}, src, t)
}

// fetchTree pulls a remote replica-area copy of a subtree into this node's
// primary namespace, adopting the remote's version. Used when a freshly
// promoted primary discovers a replica holding a newer copy than the one it
// surfaced. The local (promoted, stale) copy is kept as a chunk source,
// directory digests skip identical subtrees, and each mismatching file is
// rebuilt from its remote manifest, fetching only the blocks no local file
// holds — in parallel from `from` and every other settled holder in holders.
// The walk creates the local root, or replaces it by the remote's link.
func (e *Engine) fetchTree(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, t Track, remoteVer uint64) (simnet.Cost, error) {
	// The swarm is `from` first, then the other holders in address order
	// (deterministic for seed-exact replay), never this node itself.
	swarm := []simnet.Addr{from}
	seen := map[simnet.Addr]bool{from: true, e.self: true}
	sorted := append([]simnet.Addr(nil), holders...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, h := range sorted {
		if !seen[h] {
			seen[h] = true
			swarm = append(swarm, h)
		}
	}
	t.Ver = remoteVer
	return e.pullTree(&walk{e: e, tc: tc, swarm: swarm, root: t.Root}, RepPath(t.Root), t)
}

// ErrPullBusy answers a pull into a copy another pull is still editing, such
// as one whose caller stopped waiting for it: the caller's refresh or
// migration is not done yet, and a later Sync asks again.
var ErrPullBusy = errors.New("repl: a pull into this copy is already running")

// pullTree runs w from the peer's src, unless another pull is editing w.root.
// Once the walk is done it clears the flag at w.root, whether this pull
// raised it or an interrupted migration to this node left it, and records t.
func (e *Engine) pullTree(w *walk, src string, t Track) (simnet.Cost, error) {
	e.mu.Lock()
	busy := e.pulling[w.root]
	e.pulling[w.root] = true
	e.mu.Unlock()
	if busy {
		return 0, ErrPullBusy
	}
	defer func() {
		e.mu.Lock()
		delete(e.pulling, w.root)
		e.mu.Unlock()
	}()
	if err := w.reconcile(src, w.root); err != nil {
		return w.cost, err
	}
	if err := e.store.RemoveAll(path.Join(w.root, MigrationFlag)); err != nil {
		return w.cost, err
	}
	e.Track(t, FSOp{Kind: FSMkdirAll, Path: w.root})
	return w.cost, nil
}

var (
	// errNoManifest: the version's holder listed a regular file and then had
	// no manifest for it (the file changed under the pull).
	errNoManifest = errors.New("repl: remote file has no chunk manifest")
	// errShortRepair: some chunk of the manifest was served, hash-verified,
	// by no source.
	errShortRepair = errors.New("repl: a chunk is held by no source")
)

// pullFile rebuilds the local file lp from the chunk manifest of the peer's
// copy at rp, gathering the chunks from the local block index and the swarm,
// and gives it the peer's mode. The local file is overwritten only once every
// chunk is in hand, so the stale copy stays available as a chunk source
// throughout and a pull that comes up short leaves it untouched.
func (w *walk) pullFile(rp, lp string) error {
	e := w.e
	man, mode, exists, c, err := e.peer.ChunkManifest(w.tc, w.swarm[0], rp)
	w.cost = simnet.Seq(w.cost, c)
	if err != nil {
		return err
	}
	if !exists {
		return errNoManifest
	}
	// Index the stale local copy (if any): its unchanged blocks then resolve
	// locally instead of over the network.
	if attr, lerr := e.store.LookupPath(lp); lerr == nil && attr.Type == localfs.TypeRegular {
		e.mk.ManifestOf(lp)
	}
	sources := make([]BlockSource, len(w.swarm))
	for i, a := range w.swarm {
		sources[i] = BlockSource{Addr: a, Phys: rp}
	}
	buf, c, ok := e.gather(w.tc, man, nil, sources)
	w.cost = simnet.Seq(w.cost, c)
	if !ok {
		return errShortRepair
	}
	if err := e.store.WriteFile(lp, buf); err != nil {
		return err
	}
	attr, err := e.store.LookupPath(lp)
	if err != nil {
		return err
	}
	if attr.Mode != mode {
		if _, _, err := e.store.Setattr(attr.Ino, localfs.SetAttr{Mode: &mode}); err != nil {
			return err
		}
	}
	e.syncSent.Add(1)
	return nil
}

// BlockSource is one remote node a repair may fetch blocks from, with the
// physical path its copy of the file lives at (the path hint CHUNK_FETCH
// carries).
type BlockSource struct {
	Addr simnet.Addr
	Phys string
}

// gather assembles the bytes man describes, every chunk checked against the
// manifest's hash and length: the one way a pull or a scrub repair rebuilds
// a file. Chunks come from have (bytes already in hand and hashed, such as a
// corrupt file's intact spans), then the local block index, then sources
// over CHUNK_FETCH: the WANT list is split round-robin across the sources as
// one simnet.Par fan-out, and whatever a source did not serve is asked of
// the other sources in order, none of them twice for the same hash. ok is
// false when some chunk is still missing; nothing is assembled then.
func (e *Engine) gather(tc obs.TraceContext, man cas.Manifest, have map[cas.Hash][]byte, sources []BlockSource) (buf []byte, cost simnet.Cost, ok bool) {
	lens := make(map[cas.Hash]uint32, len(man))
	blocks := make(map[cas.Hash][]byte, len(man))
	var need []cas.Hash
	for _, ch := range man {
		if _, dup := lens[ch.Hash]; dup {
			continue
		}
		lens[ch.Hash] = ch.Len
		if b, ok := have[ch.Hash]; ok && len(b) == int(ch.Len) {
			blocks[ch.Hash] = b
		} else if b, ok := e.cas.Get(ch.Hash); ok && len(b) == int(ch.Len) {
			blocks[ch.Hash] = b
		} else {
			need = append(need, ch.Hash)
		}
	}
	if n := len(sources); n > 0 && len(need) > 0 {
		// Hash need[k] is first asked of source k mod n.
		share := make([][]cas.Hash, n)
		for k, h := range need {
			share[k%n] = append(share[k%n], h)
		}
		fan := make([]simnet.Cost, n)
		for i, s := range sources {
			fan[i] = e.fetchFrom(tc, s, share[i], lens, blocks)
		}
		cost = simnet.Par(fan...)
		for i, s := range sources {
			var ask []cas.Hash
			for k, h := range need {
				if _, got := blocks[h]; !got && k%n != i {
					ask = append(ask, h)
				}
			}
			cost = simnet.Seq(cost, e.fetchFrom(tc, s, ask, lens, blocks))
		}
	}
	for _, h := range need {
		if _, got := blocks[h]; !got {
			return nil, cost, false
		}
	}
	buf = make([]byte, 0, man.TotalLen())
	for _, ch := range man {
		buf = append(buf, blocks[ch.Hash]...)
	}
	return buf, cost, true
}

// fetchBatch bounds how many blocks one CHUNK_FETCH round trip requests.
const fetchBatch = 16

// fetchFrom asks one source for blocks by hash in fetchBatch-sized
// CHUNK_FETCH round trips, one after the other. A returned block lands in
// out only if it matches its hash and expected length (lens); anything else
// is dropped as not served. A transport error abandons the source.
func (e *Engine) fetchFrom(tc obs.TraceContext, src BlockSource, hashes []cas.Hash, lens map[cas.Hash]uint32, out map[cas.Hash][]byte) (cost simnet.Cost) {
	e.mu.Lock()
	hook := e.fetchHook
	e.mu.Unlock()
	for start := 0; start < len(hashes); start += fetchBatch {
		batch := hashes[start:min(start+fetchBatch, len(hashes))]
		blocks, c, err := e.peer.ChunkFetch(tc, src.Addr, src.Phys, batch)
		cost = simnet.Seq(cost, c)
		if hook != nil {
			hook(src.Addr, len(batch))
		}
		if err != nil {
			return cost
		}
		for i, h := range batch {
			if i >= len(blocks) {
				break
			}
			b := blocks[i]
			if b == nil || len(b) != int(lens[h]) || cas.SumChunk(b) != h {
				continue
			}
			out[h] = b
			e.blocksFetched.Add(1)
			e.fetchBytes.Add(uint64(len(b)))
		}
	}
	return cost
}
