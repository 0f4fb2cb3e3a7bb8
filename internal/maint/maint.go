// Package maint is the background maintenance subsystem: one per-node
// engine running two cooperating loops off a shared per-tick token budget.
//
// The anti-entropy scrub catches what no foreground event can: silent media
// corruption (which fires no mutation notification, so every digest memo
// keeps describing the intended bytes), invalidations lost to crashes, and
// heal races that left a settled replica diverged. Each round it hash-checks
// a sampled window of the local block index, re-chunks a sliding window of
// local files against the manifests replication believes, and exchanges
// TREE_DIGESTs with the replica candidates of every owned root, scheduling a
// delta re-sync when a settled copy diverges.
//
// The capacity rebalancer consumes the used/free accounting nodes gossip on
// leaf-set keep-alive traffic. When local utilization crosses the high-water
// mark it picks victim hierarchies (smallest first), re-salts their
// placement name to find a less-utilized owner, migrates the subtree there
// under the MIGRATION_NOT_COMPLETE flag protocol with chunk-negotiated
// transfer, flips the level-1 special link in one atomic apply, and retires
// the old storage root. A target crash mid-move aborts safely: the flag
// stays armed on the incomplete copy, the link still names the old location,
// and every acknowledged byte remains readable at the source.
//
// The engine owns scheduling, budgets, and policy only; each bounded action
// it takes is a library call on the replication engine or the host node.
// Everything is driven by explicit Tick calls in deterministic order, so
// simulated clusters replay maintenance exactly from a seed.
package maint

import (
	"sort"
	"sync"

	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/simnet"
)

// Load is one node's capacity accounting, as gossiped on leaf-set traffic.
type Load struct {
	Used     int64
	Capacity int64 // 0 = unlimited
}

// Utilization returns Used/Capacity, 0 for unlimited stores.
func (l Load) Utilization() float64 {
	if l.Capacity <= 0 {
		return 0
	}
	return float64(l.Used) / float64(l.Capacity)
}

// Host is the node surface the engine drives. All placement knowledge
// (salting, link encoding, routed applies) stays behind it in internal/core;
// the engine sees only bounded, addressable actions.
type Host interface {
	// Rep returns the node's replication engine.
	Rep() *repl.Engine
	// Self returns the node's network address.
	Self() simnet.Addr
	// OwnsKey reports whether this node is the overlay root for pn's key.
	OwnsKey(pn string) (bool, simnet.Cost)
	// Route resolves the current owner of pn's key.
	Route(pn string) (simnet.Addr, simnet.Cost, error)
	// Candidates returns the node's current replica candidates.
	Candidates(k int) []simnet.Addr
	// LocalLoad reads the contributed store's live capacity accounting.
	LocalLoad() Load
	// PeerLoads returns the freshest gossiped loads, keyed by address.
	PeerLoads() map[simnet.Addr]Load
	// ProbeLoad fetches a node's capacity accounting directly (FSSTAT), for
	// candidates whose gossiped load has not reached this node yet.
	ProbeLoad(addr simnet.Addr) (Load, simnet.Cost, error)
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
	// UntrackAt drops a root-tracking record on a peer.
	UntrackAt(tc obs.TraceContext, to simnet.Addr, root string) (simnet.Cost, error)
	// SyncReplicas runs one replica-synchronization pass (tombstone
	// propagation and replica refresh after a completed move).
	SyncReplicas() simnet.Cost
}

// Options configures one maintenance engine.
type Options struct {
	Host     Host
	Registry *obs.Registry
	Events   *obs.EventLog
	Replicas int

	// Scrub enables the anti-entropy loop; Rebalance the capacity loop.
	Scrub     bool
	Rebalance bool

	// VerifyFiles caps files re-chunked against their manifests per round
	// (sliding cursor). Default 4; negative disables.
	VerifyFiles int
	// HighWater is the utilization that arms the rebalancer (default 0.8);
	// LowWater is where a round stops shedding (default 0.6).
	HighWater float64
	LowWater  float64
}

// The per-round budgets: every engine runs with the same ones, so they are
// constants rather than Options.
const (
	// TokensPerTick is the shared work budget both loops draw from each
	// round: one token per digest exchange or file verification, one per
	// MiB migrated (plus one per move).
	TokensPerTick = 64
	// VerifyBlocks caps indexed blocks hash-checked per round (sliding
	// cursor).
	VerifyBlocks = 32
	// SaltProbes bounds the re-salting attempts per victim.
	SaltProbes = 4
	// MoveBytes caps the bytes migrated per round: no new move starts once
	// a round has shipped this much.
	MoveBytes = 8 << 20
)

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.VerifyFiles == 0 {
		o.VerifyFiles = 4
	}
	if o.HighWater <= 0 {
		o.HighWater = 0.8
	}
	if o.LowWater <= 0 {
		o.LowWater = 0.6
	}
	return o
}

// pair is one digest exchange: an owned root and a replica candidate.
type pair struct {
	root string
	cand simnet.Addr
}

// after orders pairs by root, then candidate: the order the exchange visits.
func (p pair) after(q pair) bool {
	return p.root > q.root || (p.root == q.root && p.cand > q.cand)
}

// cursors is where the scrub's three sweeps stopped: each round resumes just
// past them and wraps, so every block, file and pair is reached in turn.
type cursors struct {
	block cas.Hash // block-index sampling cursor
	file  string   // last file verified
	pair  pair     // last (root, candidate) exchanged with
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

// verifyTarget is one local file scheduled for re-chunk verification with
// the helpers a repair may fetch blocks from.
type verifyTarget struct {
	phys    string
	helpers []repl.BlockSource
}

// scrubRound runs one bounded anti-entropy pass: local block-index
// verification, file verification against the memoized manifests, then
// digest exchanges with the replica candidates of every owned root.
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

	// Ownership is asked once per live root per round (each ask can ping): it
	// picks a file's repair helpers and the pairs the exchange visits.
	cands := e.host.Candidates(e.opts.Replicas)
	var live []repl.Track
	owned := map[string]bool{}
	var pairs []pair
	for _, t := range rep.Tracks() {
		if t.Dead {
			continue
		}
		owns, c := e.host.OwnsKey(t.PN)
		total = simnet.Seq(total, c)
		live = append(live, t)
		owned[t.Root] = owns
		if owns {
			for _, cand := range cands {
				pairs = append(pairs, pair{t.Root, cand})
			}
		}
	}

	// File verification: walk every local copy's regular files in sorted
	// order and re-chunk a budget-bounded window past the cursor.
	if e.opts.VerifyFiles > 0 {
		var targets []verifyTarget
		for _, t := range live {
			src, files := rep.LocalFiles(t.Root)
			if len(files) == 0 {
				continue
			}
			// A repair fetches blocks from the replica candidates when this is
			// the primary copy and from the owner when it is a replica; either
			// way the helper holds the file in the other area.
			var helpers []simnet.Addr
			there := repl.RepPath
			if src != t.Root {
				there = repl.PrimaryRoot
			}
			if owned[t.Root] && src == t.Root {
				helpers = cands
			} else if !owned[t.Root] {
				owner, c, err := e.host.Route(t.PN)
				total = simnet.Seq(total, c)
				if err == nil && owner != e.host.Self() {
					helpers = []simnet.Addr{owner}
				}
			}
			for _, f := range files {
				hs := make([]repl.BlockSource, len(helpers))
				for j, a := range helpers {
					hs[j] = repl.BlockSource{Addr: a, Phys: there(f)}
				}
				targets = append(targets, verifyTarget{phys: f, helpers: hs})
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].phys < targets[j].phys })
		total = simnet.Seq(total, e.verifyWindow(tc, targets, &at.file, tokens))
	}

	// Digest exchange: one ask per (owned root, replica candidate) pair, and
	// a delta re-sync fed that answer when a settled copy diverges. The pairs
	// are visited in (root, candidate) order from just past the cursor,
	// wrapping, one token each, so a node with more pairs than one round's
	// budget still reaches every pair: in ceil(pairs/budget) rounds while the
	// pair set holds still.
	sort.Slice(pairs, func(i, j int) bool { return pairs[j].after(pairs[i]) })
	start := sort.Search(len(pairs), func(i int) bool { return pairs[i].after(at.pair) })
	for k := 0; k < len(pairs) && *tokens > 0; k++ {
		at.pair = pairs[(start+k)%len(pairs)]
		*tokens--
		diverged, c, err := rep.ScrubReplica(tc, at.pair.cand, at.pair.root)
		total = simnet.Seq(total, c)
		if !diverged {
			continue
		}
		e.scrubDivergences.Add(1)
		if e.events != nil {
			e.events.Add(obs.EvScrubRepair, string(at.pair.cand), at.pair.root)
		}
		if err == nil {
			e.scrubRepaired.Add(1)
		}
	}
	return total
}

// verifyWindow verifies up to VerifyFiles targets past the cursor, wrapping
// at the end of the sorted list so every file is eventually visited.
func (e *Engine) verifyWindow(tc obs.TraceContext, targets []verifyTarget, cursor *string, tokens *int) simnet.Cost {
	start := sort.Search(len(targets), func(i int) bool { return targets[i].phys > *cursor })
	var total simnet.Cost
	rep := e.host.Rep()
	for k := 0; k < len(targets) && k < e.opts.VerifyFiles && *tokens > 0; k++ {
		tgt := targets[(start+k)%len(targets)]
		*tokens--
		outcome, c := rep.VerifyFile(tc, tgt.phys, tgt.helpers)
		total = simnet.Seq(total, c)
		*cursor = tgt.phys
		switch outcome {
		case repl.VerifyRepaired:
			e.scrubDivergences.Add(1)
			e.scrubRepaired.Add(1)
			if e.events != nil {
				e.events.Add(obs.EvScrubRepair, string(e.host.Self()), tgt.phys)
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
		owns, c := e.host.OwnsKey(t.PN)
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
	if moved > 0 {
		// Propagate the retired roots' tombstones and re-replicate eagerly
		// rather than waiting for the next membership event.
		total = simnet.Seq(total, e.host.SyncReplicas())
	}
	return total
}

// moveVictim migrates one hierarchy: pick the least-utilized owner among
// the re-salted placement probes, push the subtree to a fresh storage root
// there, flip the level-1 link, and retire the old root. Any failure aborts
// with the link still naming the old (complete, readable) copy.
func (e *Engine) moveVictim(tc obs.TraceContext, v victim, tokens *int) (simnet.Cost, bool) {
	var total simnet.Cost
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
		addr, c, err := e.host.Route(pn)
		total = simnet.Seq(total, c)
		if err != nil || addr == e.host.Self() {
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
	c, err := e.host.Rep().MigrateTree(tc, destAddr, repl.Track{PN: destPN, Root: newRoot, Ver: v.t.Ver}, v.t.Root)
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
	// was replaced in place by the link itself (the relink removed it), so
	// only its tracking record is dropped — a tombstone would re-remove
	// the path and take the fresh link with it.
	rep := e.host.Rep()
	if v.t.Root == "/"+base {
		rep.Untrack(v.t.Root)
		for _, cand := range e.host.Candidates(e.opts.Replicas) {
			c, _ := e.host.UntrackAt(tc, cand, v.t.Root)
			total = simnet.Seq(total, c)
		}
	} else {
		rep.Tombstone(v.t.Root)
	}
	e.rebalMoves.Add(1)
	e.rebalBytes.Add(uint64(v.bytes))
	if e.events != nil {
		e.events.Add(obs.EvRebalanceMove, string(destAddr), v.t.Root+" -> "+newRoot)
	}
	return total, true
}
