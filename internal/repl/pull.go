package repl

import (
	"errors"
	"path"
	"sort"

	"repro/internal/cas"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// AdoptRoot makes this node's primary-path copy of a subtree current after
// it becomes the key's owner: surface the local replica-area copy, then
// ask the current replica candidates for a newer version and fetch it if
// one exists. Runs on the cold path only (first access after an ownership
// change, a NOENT below an existing root), when the holders' digest memos
// are cold too, so the ask is version-only. The second result reports
// whether local state changed — callers holding handles into the subtree
// must re-resolve when it did.
func (e *Engine) AdoptRoot(tc obs.TraceContext, t Track) (simnet.Cost, bool) {
	changed := e.PromoteLocal(t)
	if t.Root == "" || t.Link != "" {
		return 0, changed
	}
	answers, cost := e.askCandidates(tc, t.Root, false)
	c, adopted := e.adopt(tc, t, answers)
	return simnet.Seq(cost, c), changed || adopted
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

// fetchTree pulls a remote replica-area copy of a subtree into this node's
// primary namespace, adopting the remote's version. Used when a freshly
// promoted primary discovers a replica holding a newer copy than the one it
// surfaced. It is a block-level delta pull: the local (promoted, stale) copy
// is kept as a chunk source, directory digests skip identical subtrees, and
// each mismatching file is rebuilt from its remote manifest, fetching only
// the blocks no local file holds — in parallel from `from` and every other
// settled holder in holders.
func (e *Engine) fetchTree(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, t Track, remoteVer uint64) (simnet.Cost, error) {
	var total simnet.Cost
	src := RepPath(t.Root)
	if _, err := e.store.MkdirAll(t.Root); err != nil {
		return total, err
	}
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
	if err := e.pullDir(tc, swarm, src, t.Root, src, &total); err != nil {
		return total, err
	}
	adopted := t
	adopted.Ver = remoteVer
	e.Track(adopted, FSOp{Kind: FSMkdirAll, Path: t.Root})
	return total, nil
}

// pullDir reconciles one local directory against its remote counterpart on
// swarm[0] during a delta pull: matching child digests are skipped
// wholesale, mismatching files are rebuilt block-wise, and local-only
// entries are deleted. flagDir is the remote hierarchy root, where the
// migration sentinel is protocol state rather than content.
func (e *Engine) pullDir(tc obs.TraceContext, swarm []simnet.Addr, remoteDir, localDir, flagDir string, total *simnet.Cost) error {
	from := swarm[0]
	remoteEnts, ok, c, err := e.peer.DirDigests(tc, from, remoteDir)
	*total = simnet.Seq(*total, c)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	locals := make(map[string]merkle.Entry)
	if ents, lok, err := e.mk.Entries(localDir); err == nil && lok {
		for _, ent := range ents {
			locals[ent.Name] = ent
		}
	}
	for _, ent := range remoteEnts {
		if remoteDir == flagDir && ent.Name == MigrationFlag {
			continue
		}
		rp := joinChild(remoteDir, ent.Name)
		lp := joinChild(localDir, ent.Name)
		l, exists := locals[ent.Name]
		delete(locals, ent.Name)
		if exists && l.Type == ent.Type && l.Digest == ent.Digest {
			e.digestHits.Add(1)
			continue
		}
		if exists {
			e.digestMisses.Add(1)
		}
		switch ent.Type {
		case localfs.TypeDir:
			if exists && l.Type != localfs.TypeDir {
				if err := e.store.RemoveAll(lp); err != nil {
					return err
				}
			}
			if _, err := e.store.MkdirAll(lp); err != nil {
				return err
			}
			if err := e.pullDir(tc, swarm, rp, lp, flagDir, total); err != nil {
				return err
			}
		case localfs.TypeSymlink:
			target, c, err := e.peer.ReadLink(tc, from, rp)
			*total = simnet.Seq(*total, c)
			if err != nil {
				return err
			}
			if exists {
				if err := e.store.RemoveAll(lp); err != nil {
					return err
				}
			}
			attr, err := e.store.LookupPath(path.Dir(lp))
			if err != nil {
				return err
			}
			if _, _, err := e.store.Symlink(attr.Ino, ent.Name, target); err != nil {
				return err
			}
		default:
			if exists && l.Type != localfs.TypeRegular {
				if err := e.store.RemoveAll(lp); err != nil {
					return err
				}
			}
			if err := e.pullFile(tc, swarm, rp, lp, total); err != nil {
				return err
			}
		}
	}
	staleNames := make([]string, 0, len(locals))
	for name := range locals {
		staleNames = append(staleNames, name)
	}
	sort.Strings(staleNames)
	for _, name := range staleNames {
		if err := e.store.RemoveAll(joinChild(localDir, name)); err != nil {
			return err
		}
	}
	return nil
}

var (
	// errNoManifest: the version's holder listed a regular file and then had
	// no manifest for it (the file changed under the pull).
	errNoManifest = errors.New("repl: remote file has no chunk manifest")
	// errShortRepair: some chunk of the manifest was served, hash-verified,
	// by no source.
	errShortRepair = errors.New("repl: a chunk is held by no source")
)

// pullFile rebuilds one local file from the chunk manifest of its copy on
// swarm[0], gathering the chunks from the local block index and the swarm.
// The local file is overwritten only once every chunk is in hand, so the
// stale copy stays available as a chunk source throughout and a pull that
// comes up short leaves it untouched.
func (e *Engine) pullFile(tc obs.TraceContext, swarm []simnet.Addr, rp, lp string, total *simnet.Cost) error {
	man, exists, _, c, err := e.peer.ChunkManifest(tc, swarm[0], rp, nil)
	*total = simnet.Seq(*total, c)
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
	sources := make([]BlockSource, len(swarm))
	for i, a := range swarm {
		sources[i] = BlockSource{Addr: a, Phys: rp}
	}
	buf, c, ok := e.gather(tc, man, nil, sources)
	*total = simnet.Seq(*total, c)
	if !ok {
		return errShortRepair
	}
	return e.store.WriteFile(lp, buf)
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
