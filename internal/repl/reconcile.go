package repl

import (
	"fmt"
	"path"
	"sort"

	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// tree is one copy of a hierarchy as reconcile sees it: a digest listing per
// directory, symlink reads, and path-based edits. One side of every repair is
// this node's store (localTree), the other a peer's copy (remoteTree).
type tree interface {
	// list returns dir's children with their subtree digests in name order;
	// ok is false when dir is missing or not a directory.
	list(dir string) (ents []merkle.Entry, ok bool, err error)
	readLink(p string) (string, error)
	apply(op FSOp) error
}

// localTree is this node's store.
type localTree struct{ e *Engine }

func (l localTree) list(dir string) ([]merkle.Entry, bool, error) { return l.e.mk.Entries(dir) }

func (l localTree) readLink(p string) (string, error) {
	attr, err := l.e.store.LookupPath(p)
	if err != nil {
		return "", err
	}
	target, _, err := l.e.store.Readlink(attr.Ino)
	return target, err
}

// apply runs the edits reconcile makes, on the local store.
func (l localTree) apply(op FSOp) error {
	s := l.e.store
	switch op.Kind {
	case FSMkdirAll:
		_, err := s.MkdirAll(op.Path)
		return err
	case FSRemoveAll:
		return s.RemoveAll(op.Path)
	case FSWriteFile:
		return s.WriteFile(op.Path, op.Data)
	case FSSymlink:
		dir, err := s.LookupPath(path.Dir(op.Path))
		if err != nil {
			return err
		}
		_, _, err = s.Symlink(dir.Ino, path.Base(op.Path), op.Target)
		return err
	}
	return fmt.Errorf("repl: no local apply for %v", op.Kind)
}

// remoteTree is a peer's copy of t's hierarchy: in its primary namespace, or
// in its replica area when primary is false. Paths are primary-relative;
// listings and reads translate them, Mirror does so on the far side. Every
// RPC's cost is added to *cost.
type remoteTree struct {
	e       *Engine
	tc      obs.TraceContext
	addr    simnet.Addr
	t       Track
	primary bool
	cost    *simnet.Cost
}

// phys is where the peer keeps the primary-relative path p.
func (r remoteTree) phys(p string) string {
	if r.primary {
		return p
	}
	return RepPath(p)
}

func (r remoteTree) add(c simnet.Cost) { *r.cost = simnet.Seq(*r.cost, c) }

func (r remoteTree) list(dir string) ([]merkle.Entry, bool, error) {
	ents, ok, c, err := r.e.peer.DirDigests(r.tc, r.addr, r.phys(dir))
	r.add(c)
	return ents, ok, err
}

func (r remoteTree) readLink(p string) (string, error) {
	target, c, err := r.e.peer.ReadLink(r.tc, r.addr, r.phys(p))
	r.add(c)
	return target, err
}

func (r remoteTree) apply(op FSOp) error {
	c, err := r.e.peer.Mirror(r.tc, r.addr, r.t, op, r.primary)
	r.add(c)
	return err
}

// walk is one replica repair: dst's copy of a hierarchy is made to hold what
// src's holds. A push walks the local store into a peer's copy with sendFile
// as its file step; a pull walks a peer's copy into the local store with
// pullFile.
type walk struct {
	e        *Engine
	src, dst tree
	root     string                      // dst's hierarchy root
	file     func(src, dst string) error // brings one regular file at dst up to src's
	push     bool                        // src is the local store: count the files a match skips
}

// reconcile makes dst's directory dstDir hold what src's srcDir holds. Both
// sides are listed with subtree digests: matching entries are skipped whole,
// mismatching directories are recursed into, symlinks are replaced, regular
// files go to the file step, and names only dst holds are removed in sorted
// order, so the RPC sequence is the same on every replay. A listing that
// fails on either side fails the walk: a directory whose content cannot be
// read is never taken for an empty one. A dst directory that is missing or
// not a directory is created empty; a missing src directory leaves dst as it
// is. At the root, MigrationFlag is protocol state, not content: the walk
// neither copies nor deletes it, and re-arms it if re-creating the root
// removed it; the caller clears it once the walk is done.
func (w walk) reconcile(srcDir, dstDir string) error {
	flag := path.Join(w.root, MigrationFlag)
	dstEnts, ok, err := w.dst.list(dstDir)
	if err != nil {
		return err
	}
	if !ok {
		ops := []FSOp{{Kind: FSRemoveAll, Path: dstDir}, {Kind: FSMkdirAll, Path: dstDir}}
		if dstDir == w.root {
			ops = append(ops, FSOp{Kind: FSWriteFile, Path: flag})
		}
		for _, op := range ops {
			if err := w.dst.apply(op); err != nil {
				return err
			}
		}
		dstEnts = nil
	}
	srcEnts, ok, err := w.src.list(srcDir)
	if err != nil || !ok {
		return err
	}
	stale := make(map[string]merkle.Entry, len(dstEnts))
	for _, ent := range dstEnts {
		stale[ent.Name] = ent
	}
	if dstDir == w.root {
		delete(stale, MigrationFlag)
	}
	for _, ent := range srcEnts {
		s, d := joinChild(srcDir, ent.Name), joinChild(dstDir, ent.Name)
		if d == flag {
			continue
		}
		have, exists := stale[ent.Name]
		delete(stale, ent.Name)
		if exists && have.Type == ent.Type && have.Digest == ent.Digest {
			w.e.digestHits.Add(1)
			if w.push {
				w.e.syncSkipped.Add(uint64(w.e.countFiles(s, ent.Type)))
			}
			continue
		}
		if exists {
			w.e.digestMisses.Add(1)
		}
		var target string
		if ent.Type == localfs.TypeSymlink {
			if target, err = w.src.readLink(s); err != nil {
				return err
			}
		}
		if exists && (have.Type != ent.Type || ent.Type == localfs.TypeSymlink) {
			if err := w.dst.apply(FSOp{Kind: FSRemoveAll, Path: d}); err != nil {
				return err
			}
		}
		switch ent.Type {
		case localfs.TypeDir:
			if !exists || have.Type != localfs.TypeDir {
				if err := w.dst.apply(FSOp{Kind: FSMkdirAll, Path: d}); err != nil {
					return err
				}
			}
			err = w.reconcile(s, d)
		case localfs.TypeSymlink:
			err = w.dst.apply(FSOp{Kind: FSSymlink, Path: d, Target: target})
		default:
			err = w.file(s, d)
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
		if err := w.dst.apply(FSOp{Kind: FSRemoveAll, Path: joinChild(dstDir, name)}); err != nil {
			return err
		}
	}
	return nil
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
