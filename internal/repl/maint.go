package repl

import (
	"path"
	"sort"

	"repro/internal/cas"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// This file is the engine surface the background maintenance subsystem
// (internal/maint) is built from: tracked-state snapshots, ownership over the
// engine's own overlay, key function and K, the anti-entropy verify actions,
// and subtree migration as a library call; its exchange is Sync's record
// step, SyncRecord. The maintenance engine owns scheduling, budgets, and
// policy; everything here is a single bounded action.

// Self returns this node's address.
func (e *Engine) Self() simnet.Addr { return e.self }

// Owns reports whether this node is the overlay root for pn's key, pinging
// a better candidate if need be (Overlay.EnsureRootFor).
func (e *Engine) Owns(pn string) (bool, simnet.Cost) {
	return e.ov.EnsureRootFor(e.key(pn))
}

// Owner resolves the node currently owning pn's key.
func (e *Engine) Owner(pn string) (simnet.Addr, simnet.Cost, error) {
	res, err := e.ov.Route(e.key(pn))
	if err != nil {
		return "", res.Cost, err
	}
	return res.Node.Addr, res.Cost, nil
}

// Candidates returns the addresses of this node's current K replica
// candidates.
func (e *Engine) Candidates() []simnet.Addr {
	cands := e.ov.ReplicaCandidates(e.replicas)
	out := make([]simnet.Addr, len(cands))
	for i, c := range cands {
		out[i] = c.Addr
	}
	return out
}

// Tracks returns a sorted snapshot of every tracked subtree root's metadata
// (Root filled in from the map key). Sorted so maintenance walks visit roots
// in a deterministic order.
func (e *Engine) Tracks() []Track {
	e.mu.Lock()
	out := make([]Track, 0, len(e.tracked))
	for root, t := range e.tracked {
		t.Root = root
		out = append(out, t)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}

// Tombstone records the deletion of a tracked root at the next version,
// removes any local copies and returns the tombstone, which the owner round
// (SyncOwned) propagates to the replica set exactly like a foreground
// removal. Used by the rebalancer after a migration's ownership flip: the
// old root's data now lives under the new root on the new owner.
func (e *Engine) Tombstone(root string) (Track, bool) {
	e.mu.Lock()
	t, ok := e.tracked[root]
	if !ok {
		e.mu.Unlock()
		return t, false
	}
	t.Root = root
	t.Ver++
	t.Dead = true
	e.tracked[root] = t
	e.mu.Unlock()
	e.store.RemoveAll(root)
	e.store.RemoveAll(RepPath(root))
	return t, true
}

// MigrateTree hands the local subtree at src to target as the primary copy
// at t.Root: the record step's hand-over to the key's new owner after an
// ownership change, and a rebalance move, which places an existing
// hierarchy under a fresh destination root (so src is separate from
// t.Root). Versions arbitrate: a settled remote copy at least as new as
// ours wins; otherwise the target surfaces its replica-area copy if that is
// new enough, or pulls ours (Section 4.3.1) under its own
// MIGRATION_NOT_COMPLETE flag (Section 4.4). Safe to retry after a mid-move
// crash: the flag stays armed and the next pull fetches only the blocks
// that did not arrive. sent reports whether target was sent anything.
func (e *Engine) MigrateTree(tc obs.TraceContext, target simnet.Addr, t Track, src string) (sent bool, cost simnet.Cost, err error) {
	if _, err := e.store.LookupPath(src); err != nil {
		return false, 0, err
	}
	// Only versions arbitrate, but a pull may follow: ask for the hash.
	remote, cost, err := e.peer.DigestTree(tc, target, t.Root, true)
	if err != nil {
		return false, cost, err
	}
	if remote.Exists && !remote.Flag && remote.Ver >= t.Ver {
		return false, cost, nil
	}
	if !remote.Exists && remote.Ver > t.Ver {
		// The target knows a strictly newer state and holds no data: that
		// is a deletion tombstone. Handing it our older copy would resurrect
		// the hierarchy; leave it and let the tombstone propagate back to us
		// through the normal sync path.
		return false, cost, nil
	}
	repRemote, c, err := e.peer.DigestTree(tc, target, RepPath(t.Root), true)
	cost = simnet.Seq(cost, c)
	if err != nil {
		return false, cost, err
	}
	if repRemote.Exists && !repRemote.Flag && repRemote.Ver >= t.Ver && !remote.Exists {
		_, c, err = e.peer.Promote(tc, target, t)
	} else {
		c, err = e.peer.Pull(tc, target, t, src, true)
	}
	return true, simnet.Seq(cost, c), err
}

// LocalFiles lists the regular files under this node's copy of a tracked
// root, in sorted walk order, with the physical path the copy lives at.
// The migration-flag sentinel is excluded: it is protocol state, not
// replicated content. Used by the maintenance scrub to build its
// file-verification schedule.
func (e *Engine) LocalFiles(root string) (src string, files []string) {
	src, ok := e.LocalTreePath(root)
	if !ok {
		return "", nil
	}
	flagPath := path.Join(src, MigrationFlag)
	e.store.Walk(src, func(p string, a localfs.Attr, _ string) error {
		if a.Type == localfs.TypeRegular && p != flagPath {
			files = append(files, p)
		}
		return nil
	})
	return src, files
}

// VerifyBlocks hash-checks up to n indexed blocks against the store,
// resuming from cursor (see cas.Store.VerifySample). Bad locations are
// pruned; a block left with no verifiable location counts as bad.
func (e *Engine) VerifyBlocks(cursor cas.Hash, n int) (next cas.Hash, checked, bad int) {
	return e.cas.VerifySample(cursor, n)
}

// VerifyOutcome classifies one VerifyFile check.
type VerifyOutcome int

const (
	// VerifyClean: the bytes match what replication believes (or the file
	// had no baseline yet and one was just established).
	VerifyClean VerifyOutcome = iota
	// VerifyRepaired: corruption was detected and the file rebuilt.
	VerifyRepaired
	// VerifyFailed: corruption was detected but some chunk could not be
	// recovered; the stale digest memo was dropped so digest exchanges see
	// the divergence.
	VerifyFailed
)

// VerifyFile re-chunks the local regular file at phys and compares against
// the memoized manifest — the scrub's bit-rot detector. Silent corruption
// never fires a mutation notification, so the memo still describes the
// *intended* bytes; a mismatch means the media lied. Repair rebuilds the
// file to the cached manifest through gather, the pull's own routine: the
// corrupt file's intact spans and the block index first, then
// content-addressed fetches split across helpers (the owner's copy in the
// primary area, the candidates' in the replica area). Files without a
// baseline get one computed (counted clean).
func (e *Engine) VerifyFile(tc obs.TraceContext, phys string, helpers []BlockSource) (VerifyOutcome, simnet.Cost) {
	attr, err := e.store.LookupPath(phys)
	if err != nil || attr.Type != localfs.TypeRegular {
		return VerifyClean, 0
	}
	cached, ok := e.mk.CachedManifest(phys)
	if !ok {
		e.mk.ManifestOf(phys)
		return VerifyClean, 0
	}
	data, err := e.store.ReadFile(phys)
	if err != nil {
		return VerifyClean, 0
	}
	fresh := cas.Split(data)
	if fresh.Equal(cached) {
		return VerifyClean, 0
	}

	// The fresh re-chunk hashed every span of the corrupt file: the spans
	// whose hash the cached manifest still names are intact.
	intact := make(map[cas.Hash][]byte, len(fresh))
	var off int64
	for _, ch := range fresh {
		intact[ch.Hash] = data[off : off+int64(ch.Len)]
		off += int64(ch.Len)
	}
	buf, total, ok := e.gather(tc, cached, intact, helpers)
	if !ok {
		// Some chunk is gone everywhere we can reach. Leave the bytes but
		// drop the stale memo: digests now report the corrupt truth, so the
		// divergence surfaces in exchanges instead of hiding forever.
		e.mk.Invalidate(phys)
		return VerifyFailed, total
	}
	if err := e.store.WriteFile(phys, buf); err != nil {
		return VerifyFailed, total
	}
	return VerifyRepaired, total
}
