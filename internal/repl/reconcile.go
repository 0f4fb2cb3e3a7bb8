package repl

import (
	"path"
	"sort"

	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// walk is one replica repair, run by the node whose copy is behind: the local
// copy of a hierarchy, rooted at root, is made to hold what a peer's copy
// holds. The peer is swarm[0]: it answers the digest listings and symlink
// reads, and with the rest of the swarm serves the blocks of every file that
// differs. Every RPC's cost is added to cost.
type walk struct {
	e     *Engine
	tc    obs.TraceContext
	swarm []simnet.Addr
	root  string // the local hierarchy root
	arm   bool   // raise MigrationFlag at root before the first edit
	cost  simnet.Cost
}

// reconcile makes the local directory dstDir hold what the peer's srcDir
// holds. Both sides are listed with subtree digests, the peer's first, so a
// pull the peer cannot serve edits nothing: matching entries are skipped
// whole, mismatching directories are recursed into, symlinks are replaced,
// regular files are pulled, and names only the local copy holds are removed
// in sorted order, so the RPC sequence is the same on every replay. A listing
// that fails on either side fails the walk: a directory whose content cannot
// be read is never taken for an empty one. A local directory that is missing
// or not a directory is created empty; below the root, a missing peer
// directory leaves the local one as it is. At the root, a peer copy that is
// no directory must be the special link a level-1 record may hold (pullLink),
// and MigrationFlag is protocol state, not content: the walk neither copies
// nor deletes it, and raises it when armed; the caller clears it once the
// walk is done.
func (w *walk) reconcile(srcDir, dstDir string) error {
	srcEnts, ok, c, err := w.e.peer.DirDigests(w.tc, w.swarm[0], srcDir)
	w.cost = simnet.Seq(w.cost, c)
	if err != nil {
		return err
	}
	if !ok {
		if dstDir == w.root {
			return w.pullLink(srcDir)
		}
		return nil
	}
	s := w.e.store
	dstEnts, ok, err := w.e.mk.Entries(dstDir)
	if err != nil {
		return err
	}
	if !ok {
		if err := s.RemoveAll(dstDir); err != nil {
			return err
		}
		if _, err := s.MkdirAll(dstDir); err != nil {
			return err
		}
		dstEnts = nil
	}
	flag := path.Join(w.root, MigrationFlag)
	if dstDir == w.root && w.arm {
		if err := s.WriteFile(flag, nil); err != nil {
			return err
		}
	}
	stale := make(map[string]merkle.Entry, len(dstEnts))
	for _, ent := range dstEnts {
		stale[ent.Name] = ent
	}
	if dstDir == w.root {
		delete(stale, MigrationFlag)
	}
	for _, ent := range srcEnts {
		sp, d := joinChild(srcDir, ent.Name), joinChild(dstDir, ent.Name)
		if d == flag {
			continue
		}
		have, exists := stale[ent.Name]
		delete(stale, ent.Name)
		if exists && have.Type == ent.Type && have.Digest == ent.Digest {
			w.e.digestHits.Add(1)
			w.e.syncSkipped.Add(uint64(w.e.countFiles(d, ent.Type)))
			continue
		}
		if exists {
			w.e.digestMisses.Add(1)
		}
		var target string
		if ent.Type == localfs.TypeSymlink {
			target, c, err = w.e.peer.ReadLink(w.tc, w.swarm[0], sp)
			w.cost = simnet.Seq(w.cost, c)
			if err != nil {
				return err
			}
		}
		if exists && (have.Type != ent.Type || ent.Type == localfs.TypeSymlink) {
			if err := s.RemoveAll(d); err != nil {
				return err
			}
		}
		switch ent.Type {
		case localfs.TypeDir:
			if !exists || have.Type != localfs.TypeDir {
				if _, err := s.MkdirAll(d); err != nil {
					return err
				}
			}
			err = w.reconcile(sp, d)
		case localfs.TypeSymlink:
			var dir localfs.Attr
			if dir, err = s.LookupPath(dstDir); err == nil {
				_, _, err = s.Symlink(dir.Ino, ent.Name, target)
			}
		default:
			err = w.pullFile(sp, d)
		}
		if err != nil {
			return err
		}
	}
	names := make([]string, 0, len(stale))
	for name := range stale {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.RemoveAll(joinChild(dstDir, name)); err != nil {
			return err
		}
	}
	return nil
}

// pullLink makes the local root the link the peer's root is: one ReadLink,
// then the local entry, directory or stale link, is replaced. That is a single
// edit, so no MigrationFlag goes up. A peer root that is missing or is no
// link fails the pull: it never passes for an empty copy.
func (w *walk) pullLink(src string) error {
	target, c, err := w.e.peer.ReadLink(w.tc, w.swarm[0], src)
	w.cost = simnet.Seq(w.cost, c)
	if err != nil {
		return err
	}
	s := w.e.store
	if err := s.RemoveAll(w.root); err != nil {
		return err
	}
	dir, err := s.MkdirAll(path.Dir(w.root))
	if err != nil {
		return err
	}
	_, _, err = s.Symlink(dir.Ino, path.Base(w.root), target)
	return err
}

// countFiles returns the number of regular files under a matched local
// entry, for the files-skipped counter (a local walk only; no traffic).
func (e *Engine) countFiles(p string, typ localfs.FileType) int {
	if typ == localfs.TypeRegular {
		return 1
	}
	if typ != localfs.TypeDir {
		return 0
	}
	n := 0
	e.store.Walk(p, func(_ string, a localfs.Attr, _ string) error {
		if a.Type == localfs.TypeRegular {
			n++
		}
		return nil
	})
	return n
}

func joinChild(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}
