package core

import (
	"path"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Directory namespace operations: create, list, remove, and rename. These
// are the operations that interact with placement — distributed levels hash
// each directory to its own node (Sections 3.2-3.3) while deeper levels stay
// on the parent's node — so their bodies branch on distributedAt.

// Mkdir creates a directory. Directories within the distribution level are
// hashed to their own node, with capacity redirection (Sections 3.2-3.3);
// deeper directories stay on the parent's node.
func (m *Mount) Mkdir(dir VH, name string, mode uint32) (VH, localfs.Attr, simnet.Cost, error) {
	o := m.beginAt(obs.OpcMkdir, dir, name)
	vh, attr, cost, err := m.mkdir(o.tr, dir, name, mode)
	o.done(cost, err)
	return vh, attr, cost, err
}

func (m *Mount) mkdir(tr *obs.Trace, dir VH, name string, mode uint32) (VH, localfs.Attr, simnet.Cost, error) {
	if err := ValidName(name); err != nil {
		return 0, localfs.Attr{}, InterposeCost, err
	}
	var out VH
	var attr localfs.Attr
	cost, err := m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if de.kind != localfs.TypeDir {
			return 0, &nfs.Error{Proc: nfs.ProcMkdir, Status: nfs.ErrNotDir}
		}
		if m.distributedAt(de) {
			var c simnet.Cost
			var err error
			out, attr, c, err = m.mkdirDistributed(tr, de, name, mode)
			return c, err
		}
		since := m.meta.sample()
		a, fh, c, err := m.n.applyAt(tr, de.site(), FSOp{Kind: FSMkdir, Mode: mode}, de.at(name), physRef{})
		if err != nil {
			return c, err
		}
		child := de.child(name, localfs.TypeDir, fh)
		attr = a
		m.childMade(de, &child, a, since)
		out = m.insert(&child)
		return c, nil
	})
	return out, attr, cost, err
}

// mkdirDistributed creates a directory at a distributed level: hash the
// name, route, redirect with salts while the target is above the
// utilization limit, create the hierarchy on the chosen node, and place a
// special link in the parent when needed (Section 3.3).
func (m *Mount) mkdirDistributed(tr *obs.Trace, parent *ventry, name string, mode uint32) (VH, localfs.Attr, simnet.Cost, error) {
	n := m.n
	var total simnet.Cost

	link, linkPath, c, err := m.linkSite(tr, parent, name)
	total = simnet.Seq(total, c)
	if err != nil {
		return 0, localfs.Attr{}, total, err
	}

	// Existence check at the probe location. A level-1 name that exists is
	// listed again: the only repair the index has against the homes.
	if _, _, c, err := n.remoteLookupPath(tr.Ctx(), link.node, linkPath.root, linkPath.tail, linkPath.name); err == nil {
		if parent.isRoot() {
			total = simnet.Seq(total, c)
			c, err = m.indexRoot(tr, name, true)
		}
		if err == nil {
			err = &nfs.Error{Proc: nfs.ProcMkdir, Status: nfs.ErrExist}
		}
		return 0, localfs.Attr{}, simnet.Seq(total, c), err
	} else {
		total = simnet.Seq(total, c)
		if !nfs.IsStatus(err, nfs.ErrNoEnt) {
			return 0, localfs.Attr{}, total, err
		}
	}

	// Choose the placement name and node, redirecting on full targets:
	// "the redirection process repeats till a node with enough disk space
	// is found, or a pre-specified number of retries is exhausted".
	var pn string
	var target simnet.Addr
	chosen := false
	for attempt := 0; attempt <= n.cfg.RedirectAttempts; attempt++ {
		pn = Salted(name, attempt)
		res, c, err := n.route(tr, Key(pn))
		total = simnet.Seq(total, c)
		if err != nil {
			return 0, localfs.Attr{}, total, err
		}
		target = res.Node.Addr
		st, c, err := n.remoteFSStat(tr.Ctx(), target)
		total = simnet.Seq(total, c)
		if err != nil {
			continue
		}
		if st.TotalBytes == 0 || float64(st.UsedBytes)/float64(st.TotalBytes) < n.cfg.UtilizationLimit {
			chosen = true
			break
		}
	}
	if !chosen {
		return 0, localfs.Attr{}, total, &nfs.Error{Proc: nfs.ProcMkdir, Status: nfs.ErrNoSpc}
	}

	// An unsalted level-1 home sits at its own hash target under its plain
	// name and needs no link; every other distributed directory gets a
	// fresh, unique storage root behind a special link, so a later rename
	// or re-creation can never alias its storage (see MakeLinkTarget).
	needLink := !(parent.isRoot() && pn == name)
	var subRoot string
	if needLink {
		subRoot = n.newStoreRoot(pn)
	} else {
		subRoot = "/" + pn
	}

	// A level-1 name is indexed before its home exists, so a home that
	// resolves is always listed (see indexRoot).
	if parent.isRoot() {
		c, err := m.indexRoot(tr, name, true)
		total = simnet.Seq(total, c)
		if err != nil {
			return 0, localfs.Attr{}, total, err
		}
	}

	// Create the subtree root on the chosen node.
	since := m.meta.sample()
	attr, fh, c, err := n.apply(tr, site{target, Key(pn), Track{PN: pn, Root: subRoot}},
		FSOp{Kind: FSMkdirAll, Path: subRoot, Mode: mode})
	total = simnet.Seq(total, c)
	if err != nil {
		return 0, localfs.Attr{}, total, err
	}

	if needLink {
		_, _, c, err := n.applyAt(tr, link,
			FSOp{Kind: FSSymlink, Target: MakeLinkTarget(pn, subRoot)}, linkPath, physRef{})
		total = simnet.Seq(total, c)
		if err != nil {
			return 0, localfs.Attr{}, total, err
		}
	}

	place := Place{Node: target, Name: pn, Store: subRoot}
	vpath := path.Join(parent.vpath, name)
	n.cachePut(vpath, place)
	de := entryAt(vpath, place, "", nfs.Walked{FH: fh, Attr: localfs.Attr{Type: localfs.TypeDir}})
	m.childMade(parent, &de, attr, since)
	return m.insert(&de), attr, total, nil
}

// indexRoot adds or drops a level-1 name in the root directory's name index
// (DESIGN.md §4 "The root directory"), through the routed apply on the root
// row, rebinding it when the index has moved. Both directions are idempotent,
// and every caller keeps one order: a name is added before its home (or
// link) is created and dropped after it is removed, so at every instant a
// home that resolves is listed. The converse can fail: a half-done mkdir or
// rmdir leaves a listed name with no home until it is retried — mkdir starts
// over, rmdir and rename drop the name before reporting NOENT.
func (m *Mount) indexRoot(tr *obs.Trace, name string, add bool) (simnet.Cost, error) {
	return m.failover(tr, RootVH, func(root *ventry) (simnet.Cost, error) {
		op := FSOp{Kind: FSRemoveAll}
		if add {
			op.Kind = FSMkdirAll
		}
		_, _, c, err := m.n.applyAt(tr, root.site(), op, root.at(name), physRef{})
		return c, err
	})
}

// linkSite says where resolution probes for a distributed child's name, and
// so where its special link lives: the root of the name's own hash target
// for a level-1 directory, the parent's directory otherwise. It returns what
// an apply to the link is addressed by, and the link's path there.
func (m *Mount) linkSite(tr *obs.Trace, parent *ventry, name string) (site, physRef, simnet.Cost, error) {
	if !parent.isRoot() {
		return parent.site(), parent.at(name), 0, nil
	}
	res, c, err := m.n.route(tr, Key(name))
	return site{res.Node.Addr, Key(name), Track{PN: name, Root: path.Join("/", name)}}, physOf("/").child(name), c, err
}

// Readdir lists a virtual directory: physical entries minus Kosha-internal
// names, with special links reported as the directories they stand for
// (Section 3.3: the link's name "helps Kosha list the directory contents of
// the parent directory"). One READDIRPLUS reply carries every entry's
// handle, attributes, and symlink target, so classifying special links
// needs no per-entry READLINK, and below the distribution level the reply
// pre-warms the name and attribute caches: a following stat-all-entries
// sweep issues no RPCs at all (the N+1 round trips collapse into 1). The
// root is listed the same way: its handle is the name index at Key(RootPN),
// one empty directory per level-1 name.
func (m *Mount) Readdir(dir VH) ([]DirEntry, simnet.Cost, error) {
	o := m.begin(obs.OpcReaddir, m.vpathOf(dir))
	ents, cost, err := m.readdir(o.tr, dir)
	o.done(cost, err)
	return ents, cost, err
}

func (m *Mount) readdir(tr *obs.Trace, dir VH) ([]DirEntry, simnet.Cost, error) {
	var out []DirEntry
	cost, err := m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		since := m.meta.sample()
		ents, c, err := m.n.nfsT(tr).ReaddirPlusAll(de.node, de.fh, 256)
		if err != nil {
			return c, m.n.noteErr(de.node, err)
		}
		if de.isRoot() {
			// The root row is permanent, and a holder that lost the index's
			// key keeps its copy's inode but soon gets no mirrors: it is asked
			// beside the listing whether it still owns the key, or we rebind.
			_, c2, err := m.n.replicasCall(tr.Ctx(), de.node, Key(de.pn))
			if c = simnet.Par(c, c2); err != nil {
				return c, err
			}
		}
		// Children of a sub-distribution-level directory live on the
		// parent's node and their handles came back in the reply, so each
		// is a complete lookup result worth caching. Distributed levels
		// resolve through the overlay instead and are left alone, and a mount
		// whose cache keeps nothing builds no rows.
		prewarm := !m.distributedAt(de) && m.meta.caching()
		if out = out[:0]; cap(out) < len(ents) {
			out = make([]DirEntry, 0, len(ents)) // at most one per entry listed
		}
		for _, e := range ents {
			if Hidden(e.Name) {
				continue
			}
			if e.Type == localfs.TypeSymlink {
				if _, _, ok := ParseLinkTarget(e.SymTarget); ok {
					// Special placement link: a directory on another node.
					out = append(out, DirEntry{Name: e.Name, Type: localfs.TypeDir})
					continue
				}
			}
			out = append(out, DirEntry{Name: e.Name, Type: e.Type})
			if prewarm {
				ve := de.child(e.Name, e.Type, e.FH)
				m.meta.put(ve.vpath, e.Attr, m.meta.resolved(&ve), since)
			}
		}
		return c, nil
	})
	return out, cost, err
}

// Remove unlinks a file or user symlink (Section 4.1.5): the RPC is
// forwarded to the primary, which removes all replica instances.
func (m *Mount) Remove(dir VH, name string) (simnet.Cost, error) {
	o := m.beginAt(obs.OpcRemove, dir, name)
	cost, err := m.remove(o.tr, dir, name)
	o.done(cost, err)
	return cost, err
}

func (m *Mount) remove(tr *obs.Trace, dir VH, name string) (simnet.Cost, error) {
	return m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if de.isRoot() {
			return 0, &nfs.Error{Proc: nfs.ProcRemove, Status: nfs.ErrIsDir}
		}
		// The primary types the victim itself: a directory or a special link
		// answers ISDIR (FSUnlink in applyFSOp).
		_, _, c, err := m.n.applyAt(tr, de.site(), FSOp{Kind: FSUnlink}, de.at(name), physRef{})
		if err == nil {
			m.childChanged(de, name)
		}
		return c, err
	})
}

// Rmdir removes an empty directory, pruning scaffolding and special links
// for distributed directories (Section 4.1.5).
func (m *Mount) Rmdir(dir VH, name string) (simnet.Cost, error) {
	o := m.beginAt(obs.OpcRmdir, dir, name)
	cost, err := m.rmdir(o.tr, dir, name)
	o.done(cost, err)
	return cost, err
}

func (m *Mount) rmdir(tr *obs.Trace, dir VH, name string) (simnet.Cost, error) {
	return m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if m.distributedAt(de) {
			return m.rmdirDistributed(tr, de, name)
		}
		_, _, c, err := m.n.applyAt(tr, de.site(), FSOp{Kind: FSRmdir}, de.at(name), physRef{})
		if err == nil {
			m.childChanged(de, name)
		}
		return c, err
	})
}

func (m *Mount) rmdirDistributed(tr *obs.Trace, parent *ventry, name string) (simnet.Cost, error) {
	n := m.n
	var total simnet.Cost
	vpath := path.Join(parent.vpath, name)

	// Locate the child and verify virtual emptiness.
	child, _, c, err := m.materializeRetry(tr, vpath, 0)
	total = simnet.Seq(total, c)
	if err != nil {
		c, err = m.unindexGone(tr, parent, name, err)
		return simnet.Seq(total, c), err
	}
	if child.kind != localfs.TypeDir {
		return total, &nfs.Error{Proc: nfs.ProcRmdir, Status: nfs.ErrNotDir}
	}
	ents, c, err := n.nfsT(tr).ReaddirPlusAll(child.node, child.fh, 256)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	for _, e := range ents {
		if !Hidden(e.Name) {
			return total, &nfs.Error{Proc: nfs.ProcRmdir, Status: nfs.ErrNotEmpty}
		}
	}

	// Remove the hierarchy on its node (and replicas), pruning empty
	// scaffolding above it.
	_, _, c, err = n.apply(tr, child.site(), FSOp{Kind: FSRemoveAll, Path: child.root, Prune: true})
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}

	// Remove the special link from the parent, if one exists.
	link, linkPath, c, err := m.linkSite(tr, parent, name)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	if !(parent.isRoot() && child.root == "/"+name) {
		// A level-1 link sits in its hash target's export root; any other is
		// one name below the parent handle already held.
		var w nfs.Walked
		var lerr error
		if parent.isRoot() {
			w, c, lerr = n.remoteWalk(tr.Ctx(), link.node, 0, linkPath.root, linkPath.tail, linkPath.name)
		} else {
			w, c, lerr = n.nfsT(tr).Walk(link.node, parent.fh, name, 0)
		}
		total = simnet.Seq(total, c)
		if lerr == nil && w.Attr.Type == localfs.TypeSymlink {
			_, _, c, derr := n.applyAt(tr, link, FSOp{Kind: FSRemove}, linkPath, physRef{})
			total = simnet.Seq(total, c)
			if derr != nil {
				return total, derr
			}
		}
	}
	n.cacheDrop(vpath)
	m.childChanged(parent, name)
	if parent.isRoot() {
		c, err := m.indexRoot(tr, name, false)
		return simnet.Seq(total, c), err
	}
	return total, nil
}

// unindexGone finishes a half-done level-1 removal: a rmdir or rename whose
// victim no longer resolves (err is its NOENT) drops the name an earlier,
// failed attempt may have left in the root's index. The NOENT is reported
// only once the name is out; until then the caller sees why it is not.
func (m *Mount) unindexGone(tr *obs.Trace, parent *ventry, name string, err error) (simnet.Cost, error) {
	if !parent.isRoot() || !nfs.IsStatus(err, nfs.ErrNoEnt) {
		return 0, err
	}
	c, ierr := m.indexRoot(tr, name, false)
	if ierr != nil {
		err = ierr
	}
	return c, err
}

// Rename renames an entry (Section 4.1.4). Renames within one stored
// hierarchy are a single forwarded NFS rename (mirrored to replicas). A
// directory at the leaf distributed level (depth L) renames by its link
// within one parent. Everything else — across hierarchies, or a distributed
// directory above level L, whose distributed descendants each have a
// storage root of their own — is "equivalent to a copy to a new location
// followed by a delete of the old location": every directory copied gets a
// fresh root and every old root is removed, so a resolver entry another
// node keeps for the old name dangles rather than naming the new one.
func (m *Mount) Rename(srcDir VH, srcName string, dstDir VH, dstName string) (simnet.Cost, error) {
	o := m.beginAt(obs.OpcRename, srcDir, srcName)
	cost, err := m.rename(o.tr, srcDir, srcName, dstDir, dstName)
	o.done(cost, err)
	return cost, err
}

func (m *Mount) rename(tr *obs.Trace, srcDir VH, srcName string, dstDir VH, dstName string) (simnet.Cost, error) {
	total := InterposeCost
	if err := ValidName(dstName); err != nil {
		return total, err
	}
	sde, err := m.entry(srcDir)
	if err != nil {
		return total, err
	}
	dde, err := m.entry(dstDir)
	if err != nil {
		return total, err
	}
	srcDepth := pathComponents(sde.vpath) + 1
	if srcDepth > m.n.cfg.DistributionLevel && sde.node == dde.node && sde.root == dde.root {
		c, err := m.withFailover(tr, srcDir, func(de *ventry) (simnet.Cost, error) {
			_, _, c, err := m.n.applyAt(tr, de.site(), FSOp{Kind: FSRename}, sde.at(srcName), dde.at(dstName))
			return c, err
		})
		m.dropChildUnder(sde, srcName)
		m.dropChildUnder(dde, dstName)
		m.meta.drop(sde.vpath)
		m.meta.drop(dde.vpath)
		return simnet.Seq(total, c), err
	}
	src, dst := path.Join(sde.vpath, srcName), path.Join(dde.vpath, dstName)
	moved := func() { // whatever either name reached is cached no longer
		m.dropCachesUnder(src)
		m.dropCachesUnder(dst)
	}

	// Cheap rename of a distributed directory within the same parent
	// (Section 4.1.4): "the rename is achieved by renaming the link ...
	// The target of the link needs not be changed" — the subtree stays
	// where its placement name hashes; only the name users see moves. Taken
	// only at the leaf distributed level: the link rename gives the renamed
	// hierarchy a fresh storage root and can do so for nothing below it, and
	// at depth L nothing below it has a root of its own.
	if srcDepth == m.n.cfg.DistributionLevel && sde.vpath == dde.vpath {
		c, ok, err := m.renameDistributedLink(tr, sde, srcName, dstName)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		if ok {
			moved()
			return total, nil
		}
	}

	// Copy-then-delete: across hierarchies, above the leaf distributed
	// level, and for an unredirected level-1 directory, whose placement is
	// its visible name ("renaming of distributed subdirectories ... is
	// equivalent to a copy ... followed by a delete").
	c, err := m.copyTree(srcDir, srcName, dstDir, dstName)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	c, err = m.RemoveAllPath(src)
	return simnet.Seq(total, c), err
}

// dropChildUnder is dropCachesUnder of name in the directory de, without
// building the path for a name below the distribution level: no resolver
// entry holds such a name, so the levels above it are what the resolver
// drops, and the metadata cache drops the name and what lies below it.
func (m *Mount) dropChildUnder(de *ventry, name string) {
	if m.distributedAt(de) || !oneComponent(name) {
		m.dropCachesUnder(path.Join(de.vpath, name))
		return
	}
	m.n.cacheDropChain(de.vpath)
	m.meta.dropUnder(de.vpath, name)
}

// renameDistributedLink renames a distributed directory cheaply (Section
// 4.1.4): its storage relocates LOCALLY on its node to a fresh root (the
// placement name — and hence the node — is unchanged, so no data crosses
// the network) and the special link is rewritten under the new name.
// ok=false means the cheap path does not apply (an unredirected level-1
// home, whose placement IS its name) and the caller must copy-and-delete.
func (m *Mount) renameDistributedLink(tr *obs.Trace, parent *ventry, srcName, dstName string) (simnet.Cost, bool, error) {
	n := m.n
	var total simnet.Cost
	child, _, c, err := m.materializeRetry(tr, path.Join(parent.vpath, srcName), 0)
	total = simnet.Seq(total, c)
	if err != nil {
		c, err = m.unindexGone(tr, parent, srcName, err)
		return simnet.Seq(total, c), false, err
	}
	if child.kind != localfs.TypeDir {
		return total, false, nil
	}
	// Destination must not exist.
	if _, _, c, err := m.materializeRetry(tr, path.Join(parent.vpath, dstName), 0); err == nil {
		return simnet.Seq(total, c), false, &nfs.Error{Proc: nfs.ProcRename, Status: nfs.ErrExist}
	} else {
		total = simnet.Seq(total, c)
		if !nfs.IsStatus(err, nfs.ErrNoEnt) && !nfs.IsStatus(err, nfs.ErrNotDir) {
			return total, false, err
		}
	}

	if parent.isRoot() && child.root == "/"+srcName {
		// Unredirected level-1 home: no link exists; placement is the
		// visible name, so a rename must move the data (copy + delete).
		return total, false, nil
	}

	// A level-1 rename is bracketed by the root's index: the new name enters
	// it before anything moves, the old one leaves it last.
	if parent.isRoot() {
		c, err := m.indexRoot(tr, dstName, true)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, false, err
		}
	}

	// 1. Relocate the hierarchy to a fresh storage root on its own node —
	// a local rename, no data crosses the network. Stale resolver caches
	// for the old virtual name now dangle instead of aliasing the
	// renamed directory.
	newRoot := n.newStoreRoot(child.pn)
	_, _, c, err = n.apply(tr, site{child.node, Key(child.pn), Track{PN: child.pn, Root: newRoot}},
		FSOp{Kind: FSRename, Path: child.root, Path2: newRoot})
	total = simnet.Seq(total, c)
	if err != nil {
		return total, false, err
	}

	// 2. Replace the link. Below level 1 both names sit in the parent's
	// directory and the old one goes first; at level 1 the link moves between
	// the two names' hash targets, new name first.
	relink := func(name string, op FSOp) error {
		link, at, c, err := m.linkSite(tr, parent, name)
		total = simnet.Seq(total, c)
		if err != nil {
			return err
		}
		_, _, c, err = n.applyAt(tr, link, op, at, physRef{})
		total = simnet.Seq(total, c)
		return err
	}
	remove, create := FSOp{Kind: FSRemove}, FSOp{Kind: FSSymlink, Target: MakeLinkTarget(child.pn, newRoot)}
	if !parent.isRoot() {
		if err := relink(srcName, remove); err != nil {
			return total, false, err
		}
		err := relink(dstName, create)
		return total, err == nil, err
	}
	if err := relink(dstName, create); err != nil {
		return total, false, err
	}
	if err := relink(srcName, remove); err != nil {
		return total, false, err
	}
	c, err = m.indexRoot(tr, srcName, false)
	return simnet.Seq(total, c), err == nil, err
}

// copyTree recursively copies srcDir/srcName to dstDir/dstName via client
// operations.
func (m *Mount) copyTree(srcDir VH, srcName string, dstDir VH, dstName string) (simnet.Cost, error) {
	var total simnet.Cost
	srcVH, sattr, c, err := m.Lookup(srcDir, srcName)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	defer m.forget(srcVH)
	switch sattr.Type {
	case localfs.TypeRegular:
		dstVH, _, c, err := m.Create(dstDir, dstName, sattr.Mode, false)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		defer m.forget(dstVH)
		for off := int64(0); ; {
			data, eof, c, err := m.Read(srcVH, off, localfs.ReadUnit)
			total = simnet.Seq(total, c)
			if err != nil {
				return total, err
			}
			if len(data) > 0 {
				_, c, err = m.Write(dstVH, off, data)
				total = simnet.Seq(total, c)
				if err != nil {
					return total, err
				}
				off += int64(len(data))
			}
			if eof {
				return total, nil
			}
		}
	case localfs.TypeSymlink:
		target, c, err := m.Readlink(srcVH)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		vh, c, err := m.Symlink(dstDir, dstName, target)
		total = simnet.Seq(total, c)
		m.forget(vh)
		return total, err
	case localfs.TypeDir:
		dstVH, _, c, err := m.Mkdir(dstDir, dstName, sattr.Mode)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		defer m.forget(dstVH)
		ents, c, err := m.Readdir(srcVH)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		for _, e := range ents {
			c, err := m.copyTree(srcVH, e.Name, dstVH, e.Name)
			total = simnet.Seq(total, c)
			if err != nil {
				return total, err
			}
		}
		return total, nil
	default:
		return total, &nfs.Error{Proc: nfs.ProcRename, Status: nfs.ErrInval}
	}
}
