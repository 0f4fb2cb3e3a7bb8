// Package maint is the background maintenance subsystem: one per-node
// engine running two cooperating loops off a shared per-tick token budget.
//
// The anti-entropy scrub catches what no foreground event can: silent media
// corruption (which fires no mutation notification, so every digest memo
// keeps describing the intended bytes), invalidations lost to crashes, and
// heal races that left a settled replica diverged, a tombstone unseen or a
// hand-over unmade. Each round it hash-checks a sampled window of the local
// block index, re-chunks a sliding window of local files against the
// manifests replication believes, and runs Sync's record step
// (repl.Engine.SyncRecord) over a sliding window of every tracked record,
// owned or held, live or dead: Sync on a budget. An owned record gets the
// owner round (one TREE_DIGEST per replica candidate, adopting a newer
// settled copy or deletion, a delta re-sync of each diverged copy or the
// tombstone fanned out); a held one is handed to its owner if the owner
// lacks it, or the owner is told of a deletion it has not seen.
//
// The capacity rebalancer consumes the used/free accounting nodes gossip on
// leaf-set keep-alive traffic. When local utilization crosses the high-water
// mark it picks victim hierarchies (smallest first), re-salts their
// placement name to find a less-utilized owner, has the owner pull the
// subtree under the MIGRATION_NOT_COMPLETE flag protocol (only the blocks it
// lacks move), flips the level-1 special link in one atomic apply, and retires
// the old storage root, whose tombstone the owner round takes to its
// replicas. A target crash mid-move aborts safely: the flag
// stays armed on the incomplete copy, the link still names the old location,
// and every acknowledged byte remains readable at the source.
//
// The engine owns scheduling, budgets, and policy only; each bounded action
// it takes is a library call on the replication engine (which also answers
// who owns a key and who the replica candidates are) or the host node.
// Everything is driven by explicit Tick calls in deterministic order, so
// simulated clusters replay maintenance exactly from a seed.
package maint

import (
	"sort"
	"sync"

	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
)

// Host is the node surface the engine drives. All placement knowledge
// (salting, link encoding, routed applies) stays behind it in internal/core;
// the engine sees only bounded, addressable actions.
type Host interface {
	// Rep returns the node's replication engine: its records, ownership
	// (Self, Owns, Owner) and replica candidates.
	Rep() *repl.Engine
	// LocalLoad reads the contributed store's live capacity accounting.
	LocalLoad() pastry.Load
	// PeerLoads returns the freshest gossiped loads, keyed by address.
	PeerLoads() map[simnet.Addr]pastry.Load
	// ProbeLoad fetches a node's capacity accounting directly (FSSTAT), for
	// candidates whose gossiped load has not reached this node yet.
	ProbeLoad(addr simnet.Addr) (pastry.Load, simnet.Cost, error)
	// EligibleVictim reports whether a tracked root is a self-verified
	// level-1 hierarchy this node may migrate: the root has the level-1
	// shape and the controlling special link (when one exists) still names
	// exactly this placement and storage root.
	EligibleVictim(tc obs.TraceContext, t repl.Track) (bool, simnet.Cost)
	// Salt returns the salted placement-name probe for a base name.
	Salt(base string, attempt int) string
	// BaseName strips the salt from a placement name.
	BaseName(pn string) string
	// NewStoreRoot allocates a fresh node-unique storage root for pn.
	NewStoreRoot(pn string) string
	// Relink atomically flips the level-1 entry for base into a special
	// link naming (pn, storeRoot), through the routed apply path so the
	// link host's replicas mirror the flip.
	Relink(tc obs.TraceContext, base, pn, storeRoot string) (simnet.Cost, error)
}

// Options configures one maintenance engine.
type Options struct {
	Host     Host
	Registry *obs.Registry
	Events   *obs.EventLog

	// Scrub enables the anti-entropy loop; Rebalance the capacity loop.
	Scrub     bool
	Rebalance bool

	// HighWater is the utilization that arms the rebalancer (default 0.8);
	// LowWater is where a round stops shedding (default 0.6).
	HighWater float64
	LowWater  float64
}

// The per-round budgets: every engine runs with the same ones, so they are
// constants rather than Options.
const (
	// TokensPerTick is the shared work budget both loops draw from each
	// round: one per file verification, one per replica candidate for each
	// record stepped (at least one a record), one per MiB migrated (plus one
	// per move).
	TokensPerTick = 64
	// VerifyBlocks caps indexed blocks hash-checked per round (sliding
	// cursor).
	VerifyBlocks = 32
	// VerifyFiles caps files re-chunked against their manifests per round
	// (sliding cursor).
	VerifyFiles = 4
	// SaltProbes bounds the re-salting attempts per victim.
	SaltProbes = 4
	// MoveBytes caps the bytes migrated per round: no new move starts once
	// a round has shipped this much.
	MoveBytes = 8 << 20
)

func (o Options) withDefaults() Options {
	if o.HighWater <= 0 {
		o.HighWater = 0.8
	}
	if o.LowWater <= 0 {
		o.LowWater = 0.6
	}
	return o
}

// cursors is where the scrub's three sweeps stopped: each round resumes just
// past them and wraps, so every block, file and tracked record is reached in
// turn.
type cursors struct {
	block cas.Hash // block-index sampling cursor
	file  string   // last file verified
	root  string   // last record stepped
}

// Engine is one node's maintenance engine. Tick runs one bounded round of
// both loops; all state between rounds is the scrub cursors.
type Engine struct {
	host   Host
	opts   Options
	events *obs.EventLog

	mu sync.Mutex
	at cursors

	scrubRounds      *obs.Counter
	scrubDivergences *obs.Counter
	scrubRepaired    *obs.Counter
	scrubBadBlocks   *obs.Counter
	rebalMoves       *obs.Counter
	rebalBytes       *obs.Counter
	utilization      *obs.Gauge // local store utilization, basis points
}

// New builds an engine; it does nothing until Tick is called.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{host: opts.Host, opts: opts, events: opts.Events}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.scrubRounds = reg.Counter("maint.scrub.rounds")
	e.scrubDivergences = reg.Counter("maint.scrub.divergences")
	e.scrubRepaired = reg.Counter("maint.scrub.repaired")
	e.scrubBadBlocks = reg.Counter("maint.scrub.badblocks")
	e.rebalMoves = reg.Counter("maint.rebalance.moves")
	e.rebalBytes = reg.Counter("maint.rebalance.bytes")
	e.utilization = reg.Gauge("maint.util.bp")
	return e
}

// Reset clears the scrub cursors (a revived node starts from an empty
// store, so resumed cursors would point into purged state).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.at = cursors{}
	e.mu.Unlock()
}

// Enabled reports whether any maintenance loop is configured on.
func (e *Engine) Enabled() bool { return e.opts.Scrub || e.opts.Rebalance }

// Tick runs one maintenance round: a scrub round then a rebalance round,
// both drawing from the shared token budget. Returns the simulated cost.
// Callers drive Tick explicitly (per chaos step, per scale epoch, per
// maintenance timer) so the RPC sequence is a pure function of call order.
func (e *Engine) Tick() simnet.Cost {
	ld := e.host.LocalLoad()
	e.utilization.Set(int64(ld.Utilization() * 10000))
	if !e.Enabled() {
		return 0
	}
	tokens := TokensPerTick
	var total simnet.Cost
	if e.opts.Scrub {
		total = simnet.Seq(total, e.scrubRound(obs.TraceContext{}, &tokens))
	}
	if e.opts.Rebalance {
		total = simnet.Seq(total, e.rebalanceRound(obs.TraceContext{}, &tokens))
	}
	return total
}

// verifyTarget is one local file scheduled for re-chunk verification: the
// record's placement name and whether the copy sits at the primary path
// pick the helpers a repair may fetch blocks from.
type verifyTarget struct {
	phys    string
	pn      string
	primary bool
}

// scrubRound runs one bounded anti-entropy pass: local block-index
// verification, file verification against the memoized manifests, then
// Sync's record step for a window of the tracked records.
// Verification runs first so a corrupt primary is repaired (or its memo
// dropped, making its digests honest) before its digests are compared —
// otherwise the exchange would propagate corruption as truth.
func (e *Engine) scrubRound(tc obs.TraceContext, tokens *int) simnet.Cost {
	e.scrubRounds.Add(1)
	rep := e.host.Rep()
	var total simnet.Cost

	e.mu.Lock()
	at := e.at
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.at = at
		e.mu.Unlock()
	}()

	// Local block verification: hash-check a cursor window of the index.
	// Bad locations are pruned as a side effect of the failed Get.
	var bad int
	at.block, _, bad = rep.VerifyBlocks(at.block, VerifyBlocks)
	e.scrubBadBlocks.Add(uint64(bad))

	// File verification: walk every live local copy's regular files in
	// sorted order and re-chunk a budget-bounded window past the cursor.
	tracks := rep.Tracks()
	var targets []verifyTarget
	for _, t := range tracks {
		if t.Dead {
			continue
		}
		src, files := rep.LocalFiles(t.Root)
		for _, f := range files {
			targets = append(targets, verifyTarget{phys: f, pn: t.PN, primary: src == t.Root})
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].phys < targets[j].phys })
	cands := rep.Candidates()
	total = simnet.Seq(total, e.verifyWindow(tc, targets, cands, &at.file, tokens))

	// Exchange: Sync's record step for every tracked record, in root order
	// from just past the cursor, wrapping. A record costs one token per
	// replica candidate, at least one, and no record starts that the round
	// cannot pay for (DESIGN §14 states the coverage bound). Each peer
	// repaired is a divergence.
	per := max(len(cands), 1)
	start := sort.Search(len(tracks), func(i int) bool { return tracks[i].Root > at.root })
	for k := 0; k < len(tracks) && *tokens >= per; k++ {
		t := tracks[(start+k)%len(tracks)]
		at.root = t.Root
		*tokens -= per
		repairs, c := rep.SyncRecord(tc, t)
		total = simnet.Seq(total, c)
		for _, r := range repairs {
			e.scrubDivergences.Add(1)
			if e.events != nil {
				e.events.Add(obs.EvScrubRepair, string(r.Node), t.Root)
			}
			if r.Err == nil {
				e.scrubRepaired.Add(1)
			}
		}
	}
	return total
}

// verifyWindow verifies up to VerifyFiles targets past the cursor, wrapping
// at the end of the sorted list so every file is eventually visited. A
// repair fetches blocks from the copies in the other area: the replica
// candidates' for a copy at the primary path, the key's owner's for one in
// the replica area (none when that is this node).
func (e *Engine) verifyWindow(tc obs.TraceContext, targets []verifyTarget, cands []simnet.Addr, cursor *string, tokens *int) simnet.Cost {
	start := sort.Search(len(targets), func(i int) bool { return targets[i].phys > *cursor })
	var total simnet.Cost
	rep := e.host.Rep()
	for k := 0; k < len(targets) && k < VerifyFiles && *tokens > 0; k++ {
		tgt := targets[(start+k)%len(targets)]
		*tokens--
		var helpers []repl.BlockSource
		if tgt.primary {
			for _, a := range cands {
				helpers = append(helpers, repl.BlockSource{Addr: a, Phys: repl.RepPath(tgt.phys)})
			}
		} else {
			owner, c, err := rep.Owner(tgt.pn)
			total = simnet.Seq(total, c)
			if err == nil && owner != rep.Self() {
				helpers = []repl.BlockSource{{Addr: owner, Phys: repl.PrimaryRoot(tgt.phys)}}
			}
		}
		outcome, c := rep.VerifyFile(tc, tgt.phys, helpers)
		total = simnet.Seq(total, c)
		*cursor = tgt.phys
		switch outcome {
		case repl.VerifyRepaired:
			e.scrubDivergences.Add(1)
			e.scrubRepaired.Add(1)
			if e.events != nil {
				e.events.Add(obs.EvScrubRepair, string(rep.Self()), tgt.phys)
			}
		case repl.VerifyFailed:
			e.scrubDivergences.Add(1)
		}
	}
	return total
}

// victim is one migratable hierarchy with its local size.
type victim struct {
	t     repl.Track
	bytes int64
}

// rebalanceRound sheds load when local utilization crosses the high-water
// mark: victims are migrated smallest-first to the least-utilized owner
// reachable by re-salting, until utilization drops under the low-water mark
// or the round's byte/token budget runs out.
func (e *Engine) rebalanceRound(tc obs.TraceContext, tokens *int) simnet.Cost {
	ld := e.host.LocalLoad()
	if ld.Capacity <= 0 || ld.Utilization() < e.opts.HighWater {
		return 0
	}
	rep := e.host.Rep()
	var total simnet.Cost

	var victims []victim
	for _, t := range rep.Tracks() {
		if t.Dead {
			continue
		}
		owns, c := rep.Owns(t.PN)
		total = simnet.Seq(total, c)
		if !owns {
			continue
		}
		ok, c := e.host.EligibleVictim(tc, t)
		total = simnet.Seq(total, c)
		if !ok {
			continue
		}
		st := rep.StatLocal(t.Root)
		if !st.Exists || st.Flag || st.Bytes <= 0 {
			continue
		}
		victims = append(victims, victim{t: t, bytes: st.Bytes})
	}
	// Smallest first: shedding the small hierarchies keeps each move (and
	// the window during which a crash could waste transfer work) short.
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].bytes != victims[j].bytes {
			return victims[i].bytes < victims[j].bytes
		}
		return victims[i].t.Root < victims[j].t.Root
	})

	var moved int64
	for _, v := range victims {
		ld = e.host.LocalLoad()
		if ld.Utilization() < e.opts.LowWater {
			break
		}
		if *tokens <= 0 || moved >= MoveBytes {
			break
		}
		c, ok := e.moveVictim(tc, v, tokens)
		total = simnet.Seq(total, c)
		if ok {
			moved += v.bytes
		}
	}
	return total
}

// moveVictim migrates one hierarchy: pick the least-utilized owner among
// the re-salted placement probes, have it pull the subtree into a fresh
// storage root, flip the level-1 link, and retire the old root, taking its
// tombstone to the replicas at once rather than at the next membership
// event. Any failure aborts with the link still naming the old (complete,
// readable) copy.
func (e *Engine) moveVictim(tc obs.TraceContext, v victim, tokens *int) (simnet.Cost, bool) {
	var total simnet.Cost
	rep := e.host.Rep()
	base := e.host.BaseName(v.t.PN)
	localU := e.host.LocalLoad().Utilization()
	peers := e.host.PeerLoads()

	var destAddr simnet.Addr
	var destPN string
	bestU := localU
	for attempt := 1; attempt <= SaltProbes; attempt++ {
		pn := e.host.Salt(base, attempt)
		if pn == v.t.PN {
			continue
		}
		addr, c, err := rep.Owner(pn)
		total = simnet.Seq(total, c)
		if err != nil || addr == rep.Self() {
			continue
		}
		ld, known := peers[addr]
		if !known {
			var c simnet.Cost
			var err error
			ld, c, err = e.host.ProbeLoad(addr)
			total = simnet.Seq(total, c)
			if err != nil {
				continue
			}
		}
		// Project the move: the destination must absorb the bytes without
		// itself crossing the high-water mark, and must be strictly less
		// utilized than we are (no ping-pong).
		if ld.Capacity > 0 {
			if float64(ld.Used+v.bytes)/float64(ld.Capacity) >= e.opts.HighWater {
				continue
			}
		}
		if u := ld.Utilization(); u < bestU {
			bestU, destAddr, destPN = u, addr, pn
		}
	}
	if destAddr == "" {
		return total, false
	}

	*tokens -= 1 + int(v.bytes>>20)
	newRoot := e.host.NewStoreRoot(destPN)
	_, c, err := rep.MigrateTree(tc, destAddr, repl.Track{PN: destPN, Root: newRoot, Ver: v.t.Ver}, v.t.Root)
	total = simnet.Seq(total, c)
	if err != nil {
		// Mid-move failure: the migration flag stays armed on the partial
		// copy and the link still points at the source. A later round (or
		// the flag-armed copy's owner) retries or discards; acknowledged
		// data never left the source.
		if e.events != nil {
			e.events.Add(obs.EvRebalanceMove, string(destAddr), "abort "+v.t.Root)
		}
		return total, false
	}
	c, err = e.host.Relink(tc, base, destPN, newRoot)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, false
	}
	// Ownership has flipped; retire the old storage root. An unsalted home
	// was replaced in place by the link, whose record is the home's: a
	// tombstone would take the fresh link with it.
	if v.t.Root != "/"+base {
		if dead, ok := rep.Tombstone(v.t.Root); ok {
			_, c = rep.SyncOwned(tc, dead)
			total = simnet.Seq(total, c)
		}
	}
	e.rebalMoves.Add(1)
	e.rebalBytes.Add(uint64(v.bytes))
	if e.events != nil {
		e.events.Add(obs.EvRebalanceMove, string(destAddr), v.t.Root+" -> "+newRoot)
	}
	return total, true
}
