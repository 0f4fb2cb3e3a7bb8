package repl

import (
	"errors"
	"path"
	"sort"
	"strings"

	"repro/internal/cas"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
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
// becomes the local tombstone. Reports whether local state changed.
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
// the blocks no local file holds — in parallel from every settled holder in
// holders plus from itself.
func (e *Engine) fetchTree(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, t Track, remoteVer uint64) (simnet.Cost, error) {
	var total simnet.Cost
	src := RepPath(t.Root)
	if _, err := e.store.MkdirAll(t.Root); err != nil {
		return total, err
	}
	if err := e.pullDir(tc, from, holders, src, t.Root, src, &total); err != nil {
		return total, err
	}
	adopted := t
	adopted.Ver = remoteVer
	e.Track(adopted, FSOp{Kind: FSMkdirAll, Path: t.Root})
	return total, nil
}

// pullDir reconciles one local directory against its remote counterpart
// during a delta pull: matching child digests are skipped wholesale,
// mismatching files are rebuilt block-wise, and local-only entries are
// deleted. flagDir is the remote hierarchy root, where the migration
// sentinel is protocol state rather than content.
func (e *Engine) pullDir(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, remoteDir, localDir, flagDir string, total *simnet.Cost) error {
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
			if err := e.pullDir(tc, from, holders, rp, lp, flagDir, total); err != nil {
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
			if err := e.pullFile(tc, from, holders, rp, lp, total); err != nil {
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

// pullFile rebuilds one local file from its remote chunk manifest. Blocks
// some indexed local file already holds are copied locally; the rest are
// fetched content-addressed from the holder swarm, with a ranged read from
// `from` as the per-block last resort. The new content is assembled fully
// before the local file is overwritten, so the stale copy stays available
// as a chunk source throughout.
func (e *Engine) pullFile(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, rp, lp string, total *simnet.Cost) error {
	man, exists, _, c, err := e.peer.ChunkManifest(tc, from, rp, nil)
	*total = simnet.Seq(*total, c)
	if err != nil {
		return err
	}
	if !exists {
		return e.pullFileWhole(tc, from, rp, lp, total)
	}
	// Index the stale local copy (if any): its unchanged blocks then resolve
	// locally instead of over the network.
	if attr, lerr := e.store.LookupPath(lp); lerr == nil && attr.Type == localfs.TypeRegular {
		e.mk.ManifestOf(lp)
	}
	lens := make(map[cas.Hash]uint32, len(man))
	var need []cas.Hash
	for _, ch := range man {
		if _, dup := lens[ch.Hash]; dup {
			continue
		}
		lens[ch.Hash] = ch.Len
		if !e.cas.Has(ch.Hash) {
			need = append(need, ch.Hash)
		}
	}
	blocks := make(map[cas.Hash][]byte)
	if len(need) > 0 {
		e.fetchBlocks(tc, from, holders, rp, need, lens, blocks, total)
	}
	buf := make([]byte, 0, man.TotalLen())
	var off int64
	var fh nfs.Handle
	haveFh := false
	for _, ch := range man {
		b, ok := blocks[ch.Hash]
		if !ok {
			b, ok = e.cas.Get(ch.Hash)
			ok = ok && len(b) == int(ch.Len)
		}
		if !ok {
			// Last resort: a ranged read of this chunk's extent from `from`.
			if !haveFh {
				var c simnet.Cost
				fh, _, c, err = e.peer.LookupPath(tc, from, rp)
				*total = simnet.Seq(*total, c)
				if err != nil {
					return err
				}
				haveFh = true
			}
			b = make([]byte, 0, ch.Len)
			for int64(len(b)) < int64(ch.Len) {
				part, eof, c, err := e.peer.ReadStream(tc, from, fh, off+int64(len(b)), int(ch.Len)-len(b), 1)
				*total = simnet.Seq(*total, c)
				if err != nil {
					return err
				}
				b = append(b, part...)
				if eof || len(part) == 0 {
					break
				}
			}
			if len(b) != int(ch.Len) {
				return errors.New("repl: short ranged chunk read")
			}
			e.fetchBytes.Add(uint64(len(b)))
			blocks[ch.Hash] = b
		}
		buf = append(buf, b...)
		off += int64(ch.Len)
	}
	return e.store.WriteFile(lp, buf)
}

// FetchWindow is how many PushChunk pieces a whole-file pull keeps in flight
// per ReadStream round trip.
const FetchWindow = 4

// pullFileWhole streams one remote file verbatim — the fallback when the
// remote cannot answer a manifest.
func (e *Engine) pullFileWhole(tc obs.TraceContext, from simnet.Addr, rp, lp string, total *simnet.Cost) error {
	fh, attr, c, err := e.peer.LookupPath(tc, from, rp)
	*total = simnet.Seq(*total, c)
	if err != nil {
		return err
	}
	data := make([]byte, 0, attr.Size)
	for off := int64(0); ; {
		chunk, eof, c, err := e.peer.ReadStream(tc, from, fh, off, PushChunk, FetchWindow)
		*total = simnet.Seq(*total, c)
		if err != nil {
			return err
		}
		data = append(data, chunk...)
		off += int64(len(chunk))
		if eof || len(chunk) == 0 {
			break
		}
	}
	e.fetchBytes.Add(uint64(len(data)))
	return e.store.WriteFile(lp, data)
}

// fetchBatch bounds how many blocks one CHUNK_FETCH round trip requests.
const fetchBatch = 16

// fetchFrom asks one holder for blocks by hash in fetchBatch-sized
// CHUNK_FETCH round trips, one after the other. Every returned block is
// verified against its hash and expected length (lens) before it lands in
// out. missing lists, in request order, the hashes the holder did not serve;
// a transport error abandons the holder, so everything not yet answered is
// missing too.
func (e *Engine) fetchFrom(tc obs.TraceContext, holder simnet.Addr, pathHint string, hashes []cas.Hash, lens map[cas.Hash]uint32, out map[cas.Hash][]byte) (missing []cas.Hash, cost simnet.Cost) {
	e.mu.Lock()
	hook := e.fetchHook
	e.mu.Unlock()
	for start := 0; start < len(hashes); start += fetchBatch {
		batch := hashes[start:min(start+fetchBatch, len(hashes))]
		blocks, c, err := e.peer.ChunkFetch(tc, holder, pathHint, batch)
		cost = simnet.Seq(cost, c)
		if hook != nil {
			hook(holder, len(batch))
		}
		if err != nil {
			return append(missing, hashes[start:]...), cost
		}
		for i, h := range batch {
			var b []byte
			if i < len(blocks) {
				b = blocks[i]
			}
			if b == nil || len(b) != int(lens[h]) || cas.SumChunk(b) != h {
				missing = append(missing, h)
				continue
			}
			out[h] = b
			e.blocksFetched.Add(1)
			e.fetchBytes.Add(uint64(len(b)))
		}
	}
	return missing, cost
}

// fetchBlocks retrieves the needed blocks from the holder swarm: the WANT
// list is partitioned round-robin across `from` plus every other settled
// holder, and each holder's batches run as one branch of a simnet.Par
// fan-out. Blocks a holder failed to serve are retried from `from`; whatever
// still cannot be obtained is simply left out of the result (pullFile falls
// back to a ranged read). The holder order is deterministic for seed-exact
// replay.
func (e *Engine) fetchBlocks(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, pathHint string, need []cas.Hash, lens map[cas.Hash]uint32, out map[cas.Hash][]byte, total *simnet.Cost) {
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
	assign := make([][]cas.Hash, len(swarm))
	for i, h := range need {
		assign[i%len(swarm)] = append(assign[i%len(swarm)], h)
	}

	var missing []cas.Hash
	fan := make([]simnet.Cost, len(swarm))
	for hi, holder := range swarm {
		var m []cas.Hash
		m, fan[hi] = e.fetchFrom(tc, holder, pathHint, assign[hi], lens, out)
		missing = append(missing, m...)
	}
	*total = simnet.Seq(*total, simnet.Par(fan...))

	// Retry pass against `from` for anything a holder could not serve.
	unresolved, c := e.fetchFrom(tc, from, pathHint, missing, lens, out)
	*total = simnet.Seq(*total, c)

	// Routed-holder fallback: when the leaf-set swarm came up empty, ask the
	// node that routing says owns the subtree's key — it serves the file at
	// its primary path. This covers the window where the candidates around us
	// are fresh (post-heal) but the settled owner is outside the leaf set.
	if len(unresolved) == 0 {
		return
	}
	alt, altCost, ok := e.routedSource(pathHint)
	*total = simnet.Seq(*total, altCost)
	if !ok || seen[alt] {
		return
	}
	lost, c := e.fetchFrom(tc, alt, PrimaryRoot(pathHint), unresolved, lens, out)
	*total = simnet.Seq(*total, c)
	e.routedFetched.Add(uint64(len(unresolved) - len(lost)))
}

// routedSource resolves the node that currently owns the key controlling the
// subtree containing pathHint (a physical path, possibly replica-area). The
// longest tracked-root prefix wins, keeping the lookup deterministic when
// nested hierarchies are tracked.
func (e *Engine) routedSource(pathHint string) (simnet.Addr, simnet.Cost, bool) {
	p := PrimaryRoot(pathHint)
	e.mu.Lock()
	var pn string
	best := -1
	for root, t := range e.tracked {
		if (root == p || strings.HasPrefix(p, root+"/")) && len(root) > best {
			pn, best = t.PN, len(root)
		}
	}
	e.mu.Unlock()
	if best < 0 || e.key == nil {
		return "", 0, false
	}
	res, err := e.ov.Route(e.key(pn))
	if err != nil || res.Node.Addr == e.self {
		return "", res.Cost, false
	}
	return res.Node.Addr, res.Cost, true
}
