package repl

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Sync re-establishes the replication invariant for every subtree and
// level-1 link this node tracks: if this node is the primary it pushes to
// its current K leaf-set neighbors; if ownership moved (a closer node
// joined) it migrates the subtree to the new primary, keeping its own copy
// as a replica (Section 4.3.1). Returns the simulated cost.
func (e *Engine) Sync() (total simnet.Cost) {
	if !e.syncing.CompareAndSwap(false, true) {
		return 0
	}
	defer e.syncing.Store(false)
	e.events.Add(obs.EvResync, string(e.self), "")
	// Each sync run is its own traced operation: the remote side of every
	// digest/mirror below records a span under this trace id.
	str := e.tracer.Start(obs.OpResync, "/", string(e.self))
	tc := str.Ctx()
	defer func() {
		e.reg.Observe("op."+obs.OpResync, time.Duration(total))
		e.tracer.Finish(str, time.Duration(total), nil)
	}()
	// Both snapshots are in sorted order: map iteration order would otherwise
	// vary the RPC sequence between runs, breaking seed-exact replay of fault
	// schedules (the chaos harness's determinism contract).
	e.mu.Lock()
	links := make([]Track, 0, len(e.trackedLinks))
	for _, t := range e.trackedLinks {
		links = append(links, t)
	}
	e.mu.Unlock()
	sort.Slice(links, func(i, j int) bool { return links[i].Link < links[j].Link })

	// fanOut runs one step against every current replica candidate. The
	// replicas are independent peers, so the cost is the slowest branch, not
	// the sum.
	fanOut := func(step func(rep simnet.Addr) simnet.Cost) {
		var fan []simnet.Cost
		for _, rep := range e.ov.ReplicaCandidates(e.replicas) {
			fan = append(fan, step(rep.Addr))
		}
		total = simnet.Seq(total, simnet.Par(fan...))
	}

	for _, t := range e.Tracks() {
		root := t.Root
		key := e.key(t.PN)
		isRoot, c := e.ov.EnsureRootFor(key)
		total = simnet.Seq(total, c)
		if isRoot {
			if t.Dead {
				// Propagate the deletion to any replica still holding a
				// copy older than the tombstone.
				fanOut(func(rep simnet.Addr) simnet.Cost {
					td, c, err := e.peer.DigestTree(tc, rep, RepPath(root), false)
					if err != nil || (!td.Exists && td.Ver >= t.Ver) {
						return c
					}
					mc, _ := e.peer.Mirror(tc, rep, t, FSOp{Kind: FSRemoveAll, Path: root}, false)
					return simnet.Seq(c, mc)
				})
				continue
			}
			// Surface any replica-area copy; if a replica holds a newer
			// version or a newer deletion, adopt it before refreshing.
			ac, _ := e.AdoptRoot(tc, t)
			total = simnet.Seq(total, ac)
			t.Ver = e.VerOf(root)
			if e.IsDead(root) {
				continue
			}
			fanOut(func(rep simnet.Addr) simnet.Cost {
				c, _ := e.ensureTree(tc, rep, t, false)
				return c
			})
			continue
		}
		res, err := e.ov.Route(key)
		total = simnet.Seq(total, res.Cost)
		if err != nil || res.Node.Addr == e.self {
			continue
		}
		if t.Dead {
			// Tell the new owner about the deletion unless it already
			// knows a state at least as new.
			td, c, err := e.peer.DigestTree(tc, res.Node.Addr, root, false)
			total = simnet.Seq(total, c)
			if err == nil && td.Ver < t.Ver {
				c, _ = e.peer.Mirror(tc, res.Node.Addr, t, FSOp{Kind: FSRemoveAll, Path: root, Prune: true}, true)
				total = simnet.Seq(total, c)
			}
			continue
		}
		// Someone else owns the key now: migrate the subtree to them; our
		// copy stays behind as one of the replicas (Section 4.3.1), parked
		// back in the replica area.
		c, err = e.ensureTree(tc, res.Node.Addr, t, true)
		total = simnet.Seq(total, c)
		if err == nil {
			e.DemoteLocal(t)
		}
	}

	for _, t := range links {
		src, ok := e.LocalTreePath(t.Link)
		if !ok {
			continue
		}
		linkAttr, err := e.store.LookupPath(src)
		if err != nil {
			continue
		}
		tgt, _, err := e.store.Readlink(linkAttr.Ino)
		if err != nil {
			continue
		}
		op := FSOp{Kind: FSSymlink, Path: t.Link, Target: tgt}
		key := e.key(t.PN)
		isRoot, c := e.ov.EnsureRootFor(key)
		total = simnet.Seq(total, c)
		if isRoot {
			e.PromoteLocal(t)
			fanOut(func(rep simnet.Addr) simnet.Cost {
				c, _ := e.peer.Mirror(tc, rep, t, op, false)
				return c
			})
			continue
		}
		res, err := e.ov.Route(key)
		total = simnet.Seq(total, res.Cost)
		if err != nil || res.Node.Addr == e.self {
			continue
		}
		c, merr := e.peer.Mirror(tc, res.Node.Addr, t, op, false)
		total = simnet.Seq(total, c)
		_, c, perr := e.peer.Promote(tc, res.Node.Addr, t)
		total = simnet.Seq(total, c)
		if merr == nil && perr == nil {
			e.DemoteLocal(t)
		}
	}
	return total
}

// ensureTree makes target hold an up-to-date replica-area copy of the
// local subtree. Root digests are exchanged first; a match means the
// remote copy is byte-identical and nothing moves. On a mismatch the delta
// walk descends only into differing directories and ships only changed
// files and deletions, under the MIGRATION_NOT_COMPLETE flag protocol
// (Section 4.4). When promote is set (the target is the new primary after
// an ownership change) the pushed copy lands at the primary path.
func (e *Engine) ensureTree(tc obs.TraceContext, target simnet.Addr, t Track, promote bool) (simnet.Cost, error) {
	src, ok := e.LocalTreePath(t.Root)
	if !ok {
		return 0, nil
	}
	localDigest, lerr := e.mk.DigestOf(src)
	if promote {
		// Migration to the key's new primary. Versions arbitrate: a
		// settled remote copy at least as new as ours wins; otherwise we
		// surface the remote's replica-area copy if that is new enough, or
		// push ours (§4.3.1, with the §4.4 flag protocol inside the push).
		// Only versions arbitrate, but a push may follow: ask for the hash.
		remote, cost, err := e.peer.DigestTree(tc, target, t.Root, true)
		if err != nil {
			return cost, err
		}
		if remote.Exists && !remote.Flag && remote.Ver >= t.Ver {
			return cost, nil
		}
		if !remote.Exists && remote.Ver > t.Ver {
			// The target knows a strictly newer state and holds no data:
			// that is a deletion tombstone. Pushing our older copy would
			// resurrect the hierarchy; leave it and let the tombstone
			// propagate back to us through the normal sync path.
			return cost, nil
		}
		repRemote, c, err := e.peer.DigestTree(tc, target, RepPath(t.Root), true)
		cost = simnet.Seq(cost, c)
		if err != nil {
			return cost, err
		}
		if repRemote.Exists && !repRemote.Flag && repRemote.Ver >= t.Ver && !remote.Exists {
			_, c, err := e.peer.Promote(tc, target, t)
			return simnet.Seq(cost, c), err
		}
		c, err = e.deltaPush(tc, target, t, src, true, remote)
		return simnet.Seq(cost, c), err
	}

	// Primary -> replica refresh: the primary's copy is authoritative for
	// its version; a replica whose root digest already matches holds a
	// byte-identical copy and is left alone (at most re-stamped).
	remote, cost, err := e.peer.DigestTree(tc, target, RepPath(t.Root), true)
	if err != nil {
		return cost, err
	}
	if lerr == nil && remote.Exists && !remote.Flag && remote.Root == localDigest {
		e.digestHits.Add(1)
		if remote.Ver != t.Ver {
			// Content matches but the replica's recorded version lags (e.g.
			// it missed the mirrors but obtained the bytes elsewhere). One
			// metadata-only op re-stamps it without moving data.
			c, err := e.peer.Mirror(tc, target, t, FSOp{Kind: FSMkdirAll, Path: t.Root}, false)
			return simnet.Seq(cost, c), err
		}
		return cost, nil
	}
	e.digestMisses.Add(1)
	c, err := e.deltaPush(tc, target, t, src, false, remote)
	return simnet.Seq(cost, c), err
}
