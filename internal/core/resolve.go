package core

import (
	"errors"
	"fmt"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrRootOnlyDirs is returned for operations that would create non-directory
// entries directly under the virtual root; Kosha's root holds only
// distributed directories (the paper's /kosha/$USER layout, Section 3).
var ErrRootOnlyDirs = errors.New("kosha: the virtual root may only contain directories")

// noteErr reacts to a failed RPC against addr: unreachable or stale-handle
// errors invalidate every cache naming that node so re-resolution routes
// around it (the detection half of Section 4.4's transparent fault
// handling). The error is returned unchanged.
func (n *Node) noteErr(addr simnet.Addr, err error) error {
	if err != nil && (errors.Is(err, simnet.ErrUnreachable) || nfs.IsStatus(err, nfs.ErrStale)) {
		n.invalidateNode(addr)
	}
	return err
}

// remoteWalk resolves a physical path on a remote store in one LOOKUPPATH
// from the export's root (see withRootHandle). The path is given in parts,
// whose components are walked in turn (nfs.Client.WalkParts), so a path held
// as a root and a tail is never joined. A readMax above zero asks for up to
// that many bytes of a regular leaf in the same reply (nfs.Walked.Data).
func (n *Node) remoteWalk(tc obs.TraceContext, to simnet.Addr, readMax uint32, phys ...string) (w nfs.Walked, cost simnet.Cost, err error) {
	cost, err = n.withRootHandle(tc, to, func(root nfs.Handle) (c simnet.Cost, err error) {
		w, c, err = n.nfsCtx(tc).WalkParts(to, root, readMax, phys...)
		return c, err
	})
	if !nfs.IsStatus(err, nfs.ErrStale) {
		err = n.noteErr(to, err)
	}
	return w, cost, err
}

// remoteLookupPath is remoteWalk for callers that want only the leaf.
func (n *Node) remoteLookupPath(tc obs.TraceContext, to simnet.Addr, phys ...string) (nfs.Handle, localfs.Attr, simnet.Cost, error) {
	w, cost, err := n.remoteWalk(tc, to, 0, phys...)
	return w.FH, w.Attr, cost, err
}

// pathComponents counts the components of a physical path.
func pathComponents(p string) int {
	n := 0
	for i := 0; i < len(p); i++ {
		if p[i] != '/' && (i == 0 || p[i-1] == '/') {
			n++
		}
	}
	return n
}

// readLink reads a symlink target on a remote store by physical path; the
// walk's reply carries it.
func (n *Node) readLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	w, cost, err := n.remoteWalk(tc, to, 0, phys)
	if err == nil && w.Attr.Type != localfs.TypeSymlink {
		err = &nfs.Error{Proc: nfs.ProcReadlink, Status: nfs.ErrInval}
	}
	return w.Target, cost, err
}

// walkUnder walks phys, under the storage root of record t, on node at,
// asking for readMax bytes of a regular leaf's data. A NOENT above that root
// means the root is missing there. A fresh resolution, which routed to at
// itself, may have reached a new owner yet to surface or fetch its copy: at
// is asked once to promote t (Section 4.3) and phys is walked again. A place
// read from the resolver cache may have outlived a rename or removal done
// elsewhere, which takes its root away: its miss is staleStore.
func (n *Node) walkUnder(tr *obs.Trace, at simnet.Addr, t Track, phys physRef, readMax uint32, fresh bool) (nfs.Walked, simnet.Cost, error) {
	w, cost, err := n.remoteWalk(tr.Ctx(), at, readMax, phys.root, phys.tail, phys.name)
	if !nfs.IsStatus(err, nfs.ErrNoEnt) || w.Resolved >= pathComponents(t.Root) {
		return w, cost, err
	}
	if !fresh {
		return w, cost, staleStore
	}
	_, c, err := n.promote(tr.Ctx(), at, t)
	cost = simnet.Seq(cost, c)
	if err != nil {
		// No NOENT to act on: the node never said what it holds.
		return nfs.Walked{}, cost, err
	}
	w, c, err = n.remoteWalk(tr.Ctx(), at, readMax, phys.root, phys.tail, phys.name)
	return w, simnet.Seq(cost, c), err
}

// cachedLevel returns the deepest of the first d levels of the clean virtual
// path dir that the resolver cache holds, with its place; level 0 when it
// holds none of them.
func (n *Node) cachedLevel(dir string, d int) (int, Place) {
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	for i := d; i > 0; i-- {
		if p, ok := n.dirCache[level(dir, i)]; ok {
			return i, p
		}
	}
	return 0, Place{}
}

func (n *Node) cachePut(vpath string, p Place) {
	n.cacheMu.Lock()
	n.dirCache[vpath] = p
	n.cacheMu.Unlock()
}

func (n *Node) cacheDrop(vpath string) {
	n.cacheMu.Lock()
	delete(n.dirCache, vpath)
	n.cacheMu.Unlock()
}

// cacheDropChain drops the entry of every level on the way to a clean path.
func (n *Node) cacheDropChain(vpath string) {
	for i := pathComponents(vpath); i > 0; i-- {
		n.cacheDrop(level(vpath, i))
	}
}

// ResolvePath locates the virtual directory vpath, following the mapping of
// Section 3.1 with special-link redirection (Section 3.3): hash the
// controlling directory's placement name, route to the numerically closest
// node, and follow any special link found in the parent directory. Resolved
// levels are cached, mirroring koshad's practice of "record[ing] the
// information needed for future accesses" (Section 4). It has no mount to
// redrive it (materializeRetry), so a cached level found dangling is dropped
// with the rest of its chain and resolved once more here
// (TestResolveDirDanglingLevel fails without it).
func (n *Node) ResolvePath(vpath string) (Place, simnet.Cost, error) {
	dir := localfs.CleanPath(vpath)
	pl, _, _, cost, err := n.resolveDir(nil, dir, 0)
	if errors.Is(err, staleStore) {
		n.cacheDropChain(dir)
		var c simnet.Cost
		pl, _, _, c, err = n.resolveDir(nil, dir, 0)
		cost = simnet.Seq(cost, c)
	}
	return pl, cost, err
}

// resolveDir is ResolvePath on a clean virtual path, with an optional trace
// receiving the route hops. Each level it visits is a prefix of dir.
// It starts below the deepest level up to the controlling one that the
// resolver cache holds: a place does not depend on its ancestors' places, so
// the levels above it need no probe. When the last component sits at a
// distributed depth and is a regular file or a user symlink, the NOTDIR comes
// with the parent's place and what the probe found there, so the caller need
// not walk to the leaf again; that probe asks for readMax bytes of a regular
// leaf's data, as the walk it saves would have. Every other failure returns
// neither. Each probe follows walkUnder's rule, fresh unless its level is
// the cached one; cached reports a place read from the cache with no probe.
func (n *Node) resolveDir(tr *obs.Trace, dir string, readMax uint32) (_ Place, _ nfs.Walked, cached bool, _ simnet.Cost, _ error) {
	depth := pathComponents(dir)
	if depth == 0 {
		return Place{VRoot: true, Store: "/"}, nfs.Walked{}, false, 0, nil
	}
	d := ControllingDepth(depth, n.cfg.DistributionLevel)
	lv, cur := n.cachedLevel(dir, d)
	var total simnet.Cost
	for i := lv + 1; i <= d; i++ {
		vpath := level(dir, i)
		_, name := parentOf(vpath)
		var want uint32
		if i == depth {
			want = readMax
		}
		// A level-1 name is probed at the root of its own hash target, where
		// its physical path is its virtual one and its record's root.
		var at simnet.Addr
		var t Track // the record whose storage root the probe walks under
		probe, fresh := physOf(vpath), true
		if i == 1 {
			res, c, err := n.route(tr, Key(name))
			total = simnet.Seq(total, c)
			if err != nil {
				return Place{}, nfs.Walked{}, false, total, fmt.Errorf("kosha: resolve %s: %w", vpath, err)
			}
			at, t = res.Node.Addr, Track{PN: name, Root: vpath}
		} else {
			// cur was routed by this call unless it is the cached level.
			at, t, fresh = cur.Node, Track{PN: cur.Name, Root: cur.SubtreeRoot()}, i > lv+1
			probe = physRef{root: cur.Store, tail: cur.Rest, name: name}
		}
		w, cost, err := n.walkUnder(tr, at, t, probe, want, fresh)
		total = simnet.Seq(total, cost)
		if err != nil {
			return Place{}, nfs.Walked{}, false, total, err
		}
		var next Place
		pn, store, special := ParseLinkTarget(w.Target)
		switch {
		case w.Attr.Type == localfs.TypeDir && i == 1:
			// A real directory at the probe location only occurs for an
			// unsalted level-1 home sitting at its own hash target; deeper
			// distributed children are always behind special links.
			next = Place{Node: at, Name: name, Store: "/" + name}
		case special:
			// Special link: follow to the placement name and storage root,
			// which the probe's reply carried.
			res, c, err := n.route(tr, Key(pn))
			total = simnet.Seq(total, c)
			if err != nil {
				return Place{}, nfs.Walked{}, false, total, err
			}
			next = Place{Node: res.Node.Addr, Name: pn, Store: store}
		default:
			// A file or a user symlink (no marker) is not a directory; as the
			// path's last component it is the leaf the caller was after.
			err := &nfs.Error{Proc: nfs.ProcLookup, Status: nfs.ErrNotDir}
			if i == depth && i > 1 && w.Attr.Type != localfs.TypeDir {
				return cur, w, false, total, err
			}
			return Place{}, nfs.Walked{}, false, total, err
		}
		n.cachePut(vpath, next)
		cur = next
	}
	cur.Rest = dir[len(level(dir, d)):]
	return cur, nfs.Walked{}, lv == d, total, nil
}

// cachedDir is resolveDir answered from the resolver cache alone: the place
// of the directory's controlling ancestor as an earlier resolution recorded
// it, and no RPC. It is a hit when the controlling level is cached, which is
// when resolveDir would probe nothing. The entry may still be stale, and then
// its storage root is gone; whoever acts on it finds out from the node it
// names.
func (n *Node) cachedDir(dir string) (Place, bool) {
	d := ControllingDepth(pathComponents(dir), n.cfg.DistributionLevel)
	if lv, pl := n.cachedLevel(dir, d); lv == d {
		pl.Rest = dir[len(level(dir, d)):]
		return pl, true
	}
	return Place{}, false
}
