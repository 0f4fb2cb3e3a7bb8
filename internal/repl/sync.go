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

	// fanOut runs one step per replica candidate. The replicas are
	// independent peers, so the cost is the slowest branch, not the sum.
	fanOut := func(n int, step func(i int) simnet.Cost) {
		fan := make([]simnet.Cost, n)
		for i := range fan {
			fan[i] = step(i)
		}
		total = simnet.Seq(total, simnet.Par(fan...))
	}

	for _, t := range e.Tracks() {
		root := t.Root
		key := e.key(t.PN)
		isRoot, c := e.ov.EnsureRootFor(key)
		total = simnet.Seq(total, c)
		if isRoot {
			// Ask every candidate once and act on the answers. A live root
			// asks for the hash, which the refresh compares; for a tombstone
			// versions alone arbitrate.
			answers, c := e.askCandidates(tc, root, !t.Dead)
			total = simnet.Seq(total, c)
			if t.Dead {
				// Propagate the deletion to any replica still holding a copy
				// older than the tombstone.
				fanOut(len(answers), func(i int) simnet.Cost {
					if h := answers[i]; !h.Exists && h.Ver >= t.Ver {
						return 0
					}
					c, _ := e.peer.Mirror(tc, answers[i].addr, t, FSOp{Kind: FSRemoveAll, Path: root}, false)
					return c
				})
				continue
			}
			// Surface any replica-area copy; if a replica holds a newer
			// version or a newer deletion, adopt it; then refresh every
			// candidate whose answer differs from what is now here.
			e.PromoteLocal(t)
			c, _ = e.adopt(tc, t, answers)
			total = simnet.Seq(total, c)
			t.Ver = e.VerOf(root)
			if e.IsDead(root) {
				continue
			}
			fanOut(len(answers), func(i int) simnet.Cost {
				c, _ := e.refresh(tc, answers[i].addr, t, answers[i].TreeDigest)
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
		if src, ok := e.LocalTreePath(root); ok {
			c, err = e.MigrateTree(tc, res.Node.Addr, t, src)
			total = simnet.Seq(total, c)
			if err == nil {
				e.DemoteLocal(t)
			}
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
			cands := e.ov.ReplicaCandidates(e.replicas)
			fanOut(len(cands), func(i int) simnet.Cost {
				c, _ := e.peer.Mirror(tc, cands[i].Addr, t, op, false)
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

// refresh makes target's replica-area copy of the local subtree current,
// given what target answered when asked (remote, with the hash). The
// primary's copy is authoritative for its version: a settled replica whose
// root digest matches is byte-identical and nothing moves (at most it is
// re-stamped). Otherwise the delta walk descends only into differing
// directories and ships only changed files and deletions, under the
// MIGRATION_NOT_COMPLETE flag protocol (Section 4.4).
func (e *Engine) refresh(tc obs.TraceContext, target simnet.Addr, t Track, remote TreeDigest) (simnet.Cost, error) {
	src, ok := e.LocalTreePath(t.Root)
	if !ok {
		return 0, nil
	}
	local, err := e.mk.DigestOf(src)
	if err == nil && remote.Exists && !remote.Flag && remote.Root == local {
		e.digestHits.Add(1)
		if remote.Ver == t.Ver {
			return 0, nil
		}
		// Content matches but the replica's recorded version lags (e.g. it
		// missed the mirrors but obtained the bytes elsewhere). One
		// metadata-only op re-stamps it without moving data.
		return e.peer.Mirror(tc, target, t, FSOp{Kind: FSMkdirAll, Path: t.Root}, false)
	}
	e.digestMisses.Add(1)
	return e.deltaPush(tc, target, t, src, false, remote)
}
