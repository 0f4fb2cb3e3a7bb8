package repl

import (
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Sync re-establishes the replication invariant for every root this node
// tracks, a level-1 special link included, one record step (SyncRecord)
// each. Returns the simulated cost.
func (e *Engine) Sync() (total simnet.Cost) {
	if !e.syncing.CompareAndSwap(false, true) {
		return 0
	}
	defer e.syncing.Store(false)
	defer e.syncs.Add(1)
	e.events.Add(obs.EvResync, string(e.self), "")
	// Each sync run is its own traced operation: the remote side of every
	// digest/mirror below records a span under this trace id.
	str := e.tracer.Start(obs.OpResync, "/", string(e.self))
	tc := str.Ctx()
	defer func() {
		e.reg.Observe("op."+obs.OpResync, time.Duration(total))
		e.tracer.Finish(str, time.Duration(total), nil)
	}()
	// Tracks is in sorted order: map iteration order would otherwise vary
	// the RPC sequence between runs, breaking seed-exact replay of fault
	// schedules (the chaos harness's determinism contract).
	for _, t := range e.Tracks() {
		_, c := e.SyncRecord(tc, t)
		total = simnet.Seq(total, c)
	}
	return total
}

// SyncRecord is the record step, run by Sync for every record and by the
// maintenance scrub for each record its cursor reaches, owned or held, live
// or dead. If this node is the primary it runs the record's owner round
// (SyncOwned). Otherwise ownership moved (a closer node joined): the new
// owner is told of a deletion it has not seen, or pulls a live subtree,
// and the local copy stays behind as one of the replicas (Section 4.3.1),
// parked back in the replica area. Returns the repairs sent: the owner
// round's, or the one to the new owner.
func (e *Engine) SyncRecord(tc obs.TraceContext, t Track) ([]Repair, simnet.Cost) {
	owns, total := e.Owns(t.PN)
	if owns {
		repairs, c := e.SyncOwned(tc, t)
		return repairs, simnet.Seq(total, c)
	}
	owner, c, err := e.Owner(t.PN)
	total = simnet.Seq(total, c)
	if err != nil || owner == e.self {
		return nil, total
	}
	var sent bool
	if t.Dead {
		// Tell the new owner about the deletion unless it already knows a
		// state at least as new.
		var td TreeDigest
		td, c, err = e.peer.DigestTree(tc, owner, t.Root, false)
		total = simnet.Seq(total, c)
		if sent = err == nil && td.Ver < t.Ver; sent {
			c, err = e.peer.Mirror(tc, owner, t, FSOp{Kind: FSRemoveAll, Path: t.Root, Prune: true}, true)
			total = simnet.Seq(total, c)
		}
	} else if src, ok := e.LocalTreePath(t.Root); ok {
		sent, c, err = e.MigrateTree(tc, owner, t, src)
		total = simnet.Seq(total, c)
		if err == nil {
			e.DemoteLocal(t)
		}
	}
	if !sent {
		return nil, total
	}
	return []Repair{{owner, err}}, total
}

// Repair is one peer a record step changed: a replica candidate or a new
// owner told of a deletion, re-stamped, or made to pull. Err is the repair's
// outcome.
type Repair struct {
	Node simnet.Addr
	Err  error
}

// SyncOwned is the owner round for one record: the record step runs it for
// each root this node owns, and the rebalancer for each root it retired.
// Call it only after confirming ownership of t's key (as PromoteLocal
// requires). Every replica candidate is asked once, and the round acts on
// the answers. A tombstone is sent to each candidate holding a copy or an
// older version. For a live record the replica-area copy is surfaced, a
// newer settled copy or deletion a candidate holds is adopted, and every
// candidate whose answer differs from what is now here is refreshed — but
// never from a local copy whose MIGRATION_NOT_COMPLETE flag is up: a
// partial copy is no one's source (Section 4.4). Returns the repairs sent,
// in candidate order.
func (e *Engine) SyncOwned(tc obs.TraceContext, t Track) (repairs []Repair, total simnet.Cost) {
	// A live root asks for the hash, which the refresh compares; for a
	// tombstone versions alone arbitrate.
	answers, total := e.askCandidates(tc, t.Root, !t.Dead)
	var src string
	if !t.Dead {
		e.PromoteLocal(t)
		c, _ := e.adopt(tc, t, answers)
		total = simnet.Seq(total, c)
		t.Ver = e.VerOf(t.Root)
		var ok bool
		src, ok = e.LocalTreePath(t.Root)
		if !ok || e.IsDead(t.Root) || e.DigestLocal(src, false).Flag {
			return nil, total
		}
	}
	// The candidates are independent peers, so the cost is the slowest
	// branch, not the sum.
	fan := make([]simnet.Cost, len(answers))
	for i, h := range answers {
		var sent bool
		var err error
		if t.Dead {
			sent = h.Exists || h.Ver < t.Ver
			if sent {
				fan[i], err = e.peer.Mirror(tc, h.addr, t, FSOp{Kind: FSRemoveAll, Path: t.Root}, false)
			}
		} else {
			sent, fan[i], err = e.refresh(tc, h.addr, t, src, h.TreeDigest)
		}
		if sent {
			repairs = append(repairs, Repair{h.addr, err})
		}
	}
	return repairs, simnet.Seq(total, simnet.Par(fan...))
}

// refresh makes target's replica-area copy of the local subtree at src
// current, given what target answered when asked (remote, with the hash).
// The primary's copy is authoritative for its version: a settled replica
// whose root digest matches is byte-identical and nothing moves (at most it
// is re-stamped). Otherwise target pulls: it walks the local copy's digest
// listings, descends only into differing directories and fetches only
// changed files' missing blocks, under its MIGRATION_NOT_COMPLETE flag
// (Section 4.4). sent reports whether target was sent anything.
func (e *Engine) refresh(tc obs.TraceContext, target simnet.Addr, t Track, src string, remote TreeDigest) (sent bool, cost simnet.Cost, err error) {
	local, err := e.mk.DigestOf(src)
	if err == nil && remote.Exists && !remote.Flag && remote.Root == local {
		e.digestHits.Add(1)
		if remote.Ver == t.Ver {
			return false, 0, nil
		}
		// Content matches but the replica's recorded version lags (e.g. it
		// missed the mirrors but obtained the bytes elsewhere). One
		// metadata-only op re-stamps it without moving data.
		cost, err = e.peer.Mirror(tc, target, t, FSOp{Kind: FSMkdirAll, Path: t.Root}, false)
		return true, cost, err
	}
	e.digestMisses.Add(1)
	cost, err = e.peer.Pull(tc, target, t, src, false)
	return true, cost, err
}
