package core

// Background-maintenance host adapter: internal/maint owns scheduling and
// policy, but every placement-aware action a maintenance loop takes —
// routing a salted name, verifying the level-1 special link that controls a
// victim hierarchy, flipping it atomically after a migration — needs the
// namespace knowledge that lives here. maintHost is that surface.

import (
	"strings"

	"repro/internal/maint"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
)

// maintHost adapts a Node to maint.Host.
type maintHost struct{ n *Node }

func (h maintHost) Rep() *repl.Engine { return h.n.rep }

func (h maintHost) Self() simnet.Addr { return h.n.addr }

func (h maintHost) OwnsKey(pn string) (bool, simnet.Cost) {
	return h.n.overlay.EnsureRootFor(Key(pn))
}

func (h maintHost) Route(pn string) (simnet.Addr, simnet.Cost, error) {
	res, err := h.n.overlay.Route(Key(pn))
	if err != nil {
		return "", res.Cost, err
	}
	return res.Node.Addr, res.Cost, nil
}

func (h maintHost) Candidates(k int) []simnet.Addr {
	cands := h.n.overlay.ReplicaCandidates(k)
	out := make([]simnet.Addr, len(cands))
	for i, c := range cands {
		out[i] = c.Addr
	}
	return out
}

func (h maintHost) LocalLoad() maint.Load {
	return maint.Load{Used: h.n.store.Used(), Capacity: h.n.store.Capacity()}
}

func (h maintHost) PeerLoads() map[simnet.Addr]maint.Load {
	peers := h.n.overlay.PeerLoads()
	out := make(map[simnet.Addr]maint.Load, len(peers))
	for a, l := range peers {
		out[a] = maint.Load{Used: l.Used, Capacity: l.Capacity}
	}
	return out
}

func (h maintHost) ProbeLoad(addr simnet.Addr) (maint.Load, simnet.Cost, error) {
	st, cost, err := h.n.remoteFSStat(obs.TraceContext{}, addr)
	if err != nil {
		return maint.Load{}, cost, err
	}
	return maint.Load{Used: st.UsedBytes, Capacity: st.TotalBytes}, cost, nil
}

// EligibleVictim admits only self-verified level-1 hierarchies: either the
// unsalted home directory itself, or a salted chain root whose controlling
// special link still names exactly this placement and storage root. Deeper
// chain roots (whose link lives inside another hierarchy) and anything the
// link no longer points at are rejected — migrating those would race the
// namespace.
func (h maintHost) EligibleVictim(tc obs.TraceContext, t repl.Track) (bool, simnet.Cost) {
	base := BaseName(t.PN)
	if t.Root == "/"+base {
		// The unsalted level-1 home: a plain directory at the name itself,
		// no controlling link to verify.
		return t.PN == base, 0
	}
	if !strings.HasPrefix(t.Root, "/"+ChainSep+t.PN+".") {
		return false, 0
	}
	res, err := h.n.overlay.Route(Key(base))
	if err != nil {
		return false, res.Cost
	}
	target, c, err := h.n.readLink(tc, res.Node.Addr, "/"+base)
	cost := simnet.Seq(res.Cost, c)
	if err != nil {
		return false, cost
	}
	pn2, store2, ok := ParseLinkTarget(target)
	return ok && pn2 == t.PN && store2 == t.Root, cost
}

func (h maintHost) Salt(base string, attempt int) string { return Salted(base, attempt) }

func (h maintHost) BaseName(pn string) string { return BaseName(pn) }

func (h maintHost) NewStoreRoot(pn string) string { return h.n.newStoreRoot(pn) }

// Relink flips the level-1 entry for base into a special link naming
// (pn, storeRoot), through the routed apply path: the link host stamps the
// link track and mirrors the flip to its replica candidates, exactly like a
// foreground re-salting redirect.
func (h maintHost) Relink(tc obs.TraceContext, base, pn, storeRoot string) (simnet.Cost, error) {
	res, err := h.n.overlay.Route(Key(base))
	if err != nil {
		return res.Cost, err
	}
	r := applyReq{
		Key:   Key(base),
		Track: Track{PN: base, Link: "/" + base},
		Op:    FSOp{Kind: FSRelink, Path: "/" + base, Target: MakeLinkTarget(pn, storeRoot)},
	}
	d, c, err := h.n.koshaCall(tc, res.Node.Addr, r.frame(kApply))
	if err == nil {
		getApplyReplyBody(&d)
		err = d.Err()
	}
	return simnet.Seq(res.Cost, c), err
}

// UntrackAt drops a root-tracking record on a peer (kUntrack), used after a
// migration retires an unsalted home whose old replica copies were already
// converted to links by the relink fan-out.
func (h maintHost) UntrackAt(tc obs.TraceContext, to simnet.Addr, root string) (simnet.Cost, error) {
	_, cost, err := h.n.koshaPathCall(tc, to, kUntrack, root)
	return cost, err
}

func (h maintHost) SyncReplicas() simnet.Cost { return h.n.rep.Sync() }

var _ maint.Host = maintHost{}

// Maint returns the node's background maintenance engine.
func (n *Node) Maint() *maint.Engine { return n.maintEng }

// loadProvider feeds the contributed store's capacity accounting to the
// overlay, which piggybacks it on leaf-set keep-alive traffic.
func (n *Node) loadProvider() pastry.Load {
	return pastry.Load{Used: n.store.Used(), Capacity: n.store.Capacity()}
}
