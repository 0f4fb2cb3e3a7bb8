package core

import (
	"errors"
	"path"
	"time"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Every public Mount operation runs the same five-stage pipeline; this file
// holds the stages that are shared between operations.
//
//	begin    — open the observability context: trace, latency clock
//	           (opCtx via begin/beginAt, closed by done)
//	cache    — consult the client-side attr/name caches; a hit costs only
//	           the interposition constant (metaCache via the Mount wrappers)
//	resolve  — map the virtual path to (node, physical path, handle)
//	           through placement hashing and special links (materialize)
//	failover — run the op body with transparent retry: re-resolve onto a
//	           replica on node failure, stale handles, or primary changes
//	           (withFailover); resolution itself redrives in one place
//	           (materializeRetry)
//	rpc      — the op body itself: forwarded NFS calls and kosha-service
//	           applies, written per operation in mount.go / mountdir.go
//
// The interposition constant I is charged exactly once per operation, in
// whichever stage runs first.

// --- begin stage ---

// opCtx carries the observability context of one public mount operation: the
// op name, its trace (nil when tracing is disabled), and the wall-clock start
// when Config.WallClockStats selects wall time over simulated cost.
type opCtx struct {
	m     *Mount
	op    obs.OpCode
	tr    *obs.Trace
	start time.Time
}

// begin opens the observability context for one public operation.
func (m *Mount) begin(op obs.OpCode, vpath string) opCtx {
	o := opCtx{m: m, op: op, tr: m.n.tracer.Start(op.String(), vpath, string(m.n.addr))}
	if m.n.cfg.WallClockStats {
		o.start = time.Now()
	}
	return o
}

// done records the operation's latency sample and counters and publishes the
// trace. Under simnet the sample is the simulated cost; under a real
// transport koshad selects wall time via Config.WallClockStats.
func (o opCtx) done(cost simnet.Cost, err error) {
	n := o.m.n
	d := time.Duration(cost)
	if n.cfg.WallClockStats {
		d = time.Since(o.start)
	}
	n.opHists[o.op].Observe(d)
	n.opsTotal.Add(1)
	if err != nil {
		n.opErrors.Add(1)
	}
	if o.tr != nil {
		n.tracer.Finish(o.tr, d, err)
	}
}

// vpathOf returns the virtual path behind a handle for trace labels ("" when
// the handle is unknown; the operation itself surfaces the error).
func (m *Mount) vpathOf(vh VH) string {
	if !m.n.tracer.Enabled() {
		return ""
	}
	if de, err := m.entry(vh); err == nil {
		return de.vpath
	}
	return ""
}

// beginAt opens the observability context for an operation addressed by
// (directory handle, name); the trace label is only assembled when tracing
// is enabled, so disabled tracing costs no path allocation.
func (m *Mount) beginAt(op obs.OpCode, dir VH, name string) opCtx {
	if !m.n.tracer.Enabled() {
		return m.begin(op, "")
	}
	return m.begin(op, path.Join(m.vpathOf(dir), name))
}

// --- resolve/placement stage ---

// distributedAt reports whether a child of directory de lives at a
// distributed level — hashed to its own node with capacity redirection
// (Sections 3.2-3.3) — rather than on the parent's node. Lookup, Mkdir, and
// Rmdir all branch on this to pick the placement path.
func (m *Mount) distributedAt(de *ventry) bool {
	return pathComponents(de.vpath)+1 <= m.n.cfg.DistributionLevel
}

// staleStore marks a resolution whose cached storage root no longer exists:
// the hierarchy was renamed or removed through another node, and either
// takes the root away (a resolver entry names the directory its path reaches
// now, or a root that is gone). walkUnder reports it for a place read from
// the resolver cache, materializeRetry drops the caches and resolves again,
// and it never leaves the package: rematerialize turns a second one into
// NOENT.
var staleStore = errors.New("kosha: cached storage root dangles")

// retryable reports whether an error warrants transparent failover:
// transport failures and stale handles re-resolve onto a replica (Section
// 4.4); ErrNotPrimary re-resolves after an ownership change.
func retryable(err error) bool {
	return errors.Is(err, simnet.ErrUnreachable) ||
		errors.Is(err, ErrNotPrimary) ||
		nfs.IsStatus(err, nfs.ErrStale)
}

// cacheSuspect reports whether an error could be the fault of a stale
// name-cache entry rather than of the operation itself: another client may
// have removed, renamed, or retyped the path since it was cached. Such a
// failure on a cached entry is retried once against a fresh resolution, the
// way the kernel NFS client retries after ESTALE.
func cacheSuspect(err error) bool {
	return nfs.IsStatus(err, nfs.ErrNoEnt) ||
		nfs.IsStatus(err, nfs.ErrNotDir) ||
		nfs.IsStatus(err, nfs.ErrIsDir)
}

// materialize builds a ventry for a virtual path by resolving placement and
// looking the path up on the storage node. It also returns what the walk to
// the entry found: its attributes (as LOOKUP does in NFS) and, when readMax
// asked for it, the first READ of a regular file. When only components below
// the storage root are missing, the NOENT comes with the entry of the deepest
// directory the walk reached, for MkdirAll to carry on from; every other
// failure returns a nil entry.
func (m *Mount) materialize(tr *obs.Trace, vpath string, readMax uint32) (*ventry, nfs.Walked, simnet.Cost, error) {
	vpath = localfs.CleanPath(vpath)
	if vpath == "/" {
		de, c, err := m.bindRoot(tr)
		return de, nfs.Walked{Attr: rootAttr}, c, err
	}
	since := m.meta.sample()
	place, w, cached, total, err := m.n.resolveDir(tr, vpath, readMax)
	// place.Rest, vpath's tail below the controlling directory, is the row's
	// tail and what the walk goes down below the storage root.
	tail := place.Rest
	switch {
	case nfs.IsStatus(err, nfs.ErrNotDir) && w.FH != (nfs.Handle{}):
		// The final component is a file or plain symlink at a depth the
		// resolver treated as a directory level: place is its parent's, and
		// the probe that typed it has already walked to it.
		_, name := parentOf(vpath)
		tail, err = vpath[len(vpath)-len(tail)-1-len(name):], nil
	case err != nil:
		return nil, nfs.Walked{}, total, err
	default:
		var c simnet.Cost
		phys := physRef{root: place.SubtreeRoot(), tail: tail}
		w, c, err = m.n.walkUnder(tr, place.Node, Track{PN: place.Name, Root: phys.root}, phys, readMax, !cached)
		total = simnet.Seq(total, c)
		if err != nil {
			missing := phys.components() - w.Resolved
			if !nfs.IsStatus(err, nfs.ErrNoEnt) || missing > pathComponents(tail) {
				return nil, nfs.Walked{}, total, err
			}
			// The walk got below the storage root: describe the directory it
			// reached last, whose handle the failed reply carries. The tail
			// is a suffix of vpath, so both lose the same bytes.
			reached := level(vpath, pathComponents(vpath)-missing)
			tail = tail[:len(tail)-(len(vpath)-len(reached))]
			vpath = reached
			w.Attr = localfs.Attr{Type: localfs.TypeDir}
		}
	}
	ve := entryAt(vpath, place, tail, w)
	if err == nil {
		tr.SetServedBy(string(place.Node))
		m.meta.put(ve.vpath, w.Attr, nil, since)
	}
	return ve, w, total, err
}

// entryAt is the handle-table row for vpath in place's hierarchy, as a walk
// found it, whose tail below the controlling directory — a suffix of vpath
// — is tail.
func entryAt(vpath string, place Place, tail string, w nfs.Walked) *ventry {
	return &ventry{
		vpath: vpath,
		kind:  w.Attr.Type,
		node:  place.Node,
		fh:    w.FH,
		pn:    place.PN(),
		root:  place.SubtreeRoot(),
		below: len(tail),
	}
}

// materializeRetry is materialize plus the mount's one redrive loop: the
// only place that answers a failed resolution by dropping what is cached for
// the path and resolving again. Three things earn the second look. A
// retryable failure has already invalidated the caches naming the dead node
// (noteErr), so re-resolution routes onto a replica holder; it may repeat. A
// staleStore says a cached level outlived a rename or removal done through
// another node — such an entry always dangles, it never names another live
// directory — and one fresh resolution tells a directory that moved from one
// that is gone (TestNoSentinelCrossesTheAPI, TestOracleSeedSweep/seed1021).
// NOTDIR gets the same single revalidation: a re-salting redirect or a
// rebalancer migration replaces a cached directory root with a special link,
// so a walk through the stale entry hits a non-directory where the root used
// to be (TestScenarioRebalanceTargetCrashMidMove fails without it); a genuine
// not-a-directory survives the retry and is returned unchanged.
func (m *Mount) materializeRetry(tr *obs.Trace, vpath string, readMax uint32) (*ventry, nfs.Walked, simnet.Cost, error) {
	de, w, total, err := m.materialize(tr, vpath, readMax)
	revalidated := false
	for attempt := 0; err != nil && attempt < 3; attempt++ {
		if errors.Is(err, staleStore) || nfs.IsStatus(err, nfs.ErrNotDir) {
			if revalidated {
				break
			}
			revalidated = true
		} else if !retryable(err) {
			break
		}
		var c simnet.Cost
		de, w, c, err = m.rematerialize(tr, vpath, readMax)
		total = simnet.Seq(total, c)
	}
	return de, w, total, err
}

// rematerialize drops everything cached for vpath and resolves it afresh.
// A root a fresh resolution still finds missing after its promote is a
// directory that does not exist; staleStore, from a level cached again
// meanwhile, goes no further than here.
func (m *Mount) rematerialize(tr *obs.Trace, vpath string, readMax uint32) (*ventry, nfs.Walked, simnet.Cost, error) {
	m.dropCachesUnder(vpath)
	de, w, c, err := m.materialize(tr, vpath, readMax)
	if errors.Is(err, staleStore) {
		err = &nfs.Error{Proc: nfs.ProcLookup, Status: nfs.ErrNoEnt}
	}
	return de, w, c, err
}

// bindRoot resolves the root directory's name index: the node owning
// Key(RootPN) and the handle of RootStore there. Before the first level-1
// mkdir the directory is missing, after an ownership change it sits in the
// replica area; the routed apply's cold path adopts that, MkdirAll the rest.
func (m *Mount) bindRoot(tr *obs.Trace) (*ventry, simnet.Cost, error) {
	res, total, err := m.n.route(tr, Key(RootPN))
	if err != nil {
		return nil, total, err
	}
	root := &ventry{
		vpath: "/", kind: localfs.TypeDir,
		node: res.Node.Addr, pn: RootPN, root: RootStore,
	}
	var c simnet.Cost
	root.fh, _, c, err = m.n.remoteLookupPath(tr.Ctx(), root.node, RootStore)
	total = simnet.Seq(total, c)
	if nfs.IsStatus(err, nfs.ErrNoEnt) {
		_, root.fh, c, err = m.n.apply(tr, root.site(), FSOp{Kind: FSMkdirAll, Path: RootStore})
		total = simnet.Seq(total, c)
	}
	if err != nil {
		return nil, total, err
	}
	return root, total, nil
}

// --- failover+retry stage ---

// withFailover runs fn against a ventry, transparently re-resolving and
// retrying on node failure, stale handles, or primary changes. The
// interposition constant I is charged once per operation. Each failover is
// recorded in the overlay event log, the failover latency histogram (the
// cost of re-resolving onto a replica), and the operation's trace.
func (m *Mount) withFailover(tr *obs.Trace, vh VH, fn func(de *ventry) (simnet.Cost, error)) (simnet.Cost, error) {
	c, err := m.failover(tr, vh, fn)
	return simnet.Seq(InterposeCost, c), err
}

// failover is withFailover without the interposition charge, for a step
// inside an operation that has already paid it (indexRoot).
func (m *Mount) failover(tr *obs.Trace, vh VH, fn func(de *ventry) (simnet.Cost, error)) (simnet.Cost, error) {
	var total simnet.Cost
	de, err := m.entry(vh)
	if err != nil {
		return total, err
	}
	if de.node == "" {
		// Only the root row is ever unbound, until its first use.
		if de, _, total, err = m.materializeRetry(tr, de.vpath, 0); err != nil {
			return total, err
		}
		m.replace(vh, de)
	}
	cacheRetried := false
	for attempt := 0; ; attempt++ {
		c, err := fn(de)
		total = simnet.Seq(total, c)
		if err == nil {
			// Deeper instrumentation (apply, replica reads, materialize)
			// records the precise server; otherwise the entry's node
			// served the final RPC.
			if tr != nil && tr.ServedBy == "" {
				tr.SetServedBy(string(de.node))
			}
			return total, nil
		}
		if attempt >= 3 {
			return total, err
		}
		failedOver := false
		switch {
		case retryable(err):
			// Drop state naming the failed node and re-resolve the path:
			// the overlay now routes the key to a node holding a replica.
			// A NotPrimary answer came from a live node — only the stale
			// resolution is dropped, not the node. Nor is the root's node:
			// operations under the root work on other nodes, whose RPCs
			// have each named their own failed peer (noteErr).
			if !errors.Is(err, ErrNotPrimary) && !de.isRoot() {
				m.n.invalidateNode(de.node)
			}
			failedOver = true
		case de.cached && !cacheRetried && cacheSuspect(err):
			// The entry came from the name cache and the failure smells
			// like staleness; revalidate once against a fresh resolution
			// (TestRenameUnderReader fails without it).
			cacheRetried = true
		default:
			return total, err
		}
		nde, _, c2, rerr := m.rematerialize(tr, de.vpath, 0)
		total = simnet.Seq(total, c2)
		if failedOver {
			m.n.events.Add(obs.EvFailover, string(m.n.addr), de.vpath)
			m.n.reg.Observe("op."+obs.OpFailover, time.Duration(c2))
			tr.Failover()
		}
		if rerr != nil {
			return total, rerr
		}
		m.replace(vh, nde)
		de = nde
	}
}

// dropCachesUnder invalidates resolver cache entries for a path and its
// ancestors (any of them may name the failed node), plus this mount's
// metadata caches for the path's subtree (handles and attributes cached
// below a failed or relocated directory are all suspect).
func (m *Mount) dropCachesUnder(vpath string) {
	vpath = localfs.CleanPath(vpath)
	m.n.cacheDropChain(vpath)
	m.meta.dropUnder(vpath, "")
}
