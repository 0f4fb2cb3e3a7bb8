package core

import (
	"fmt"
	"path"
	"strings"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

// resolveCost is what an apply pays to turn its physical path into an inode.
// Path resolution against a warm name cache is much cheaper than a
// data-bearing disk op; a small fixed cost rather than a full disk operation
// keeps path-based mutations comparable to the handle-based NFS ones they
// stand in for.
const resolveCost = simnet.Cost(50_000)

// applyFSOp executes a path-based mutation on the local store. lenient mode
// (replica application) auto-creates missing ancestors and tolerates
// re-application, keeping mirrors idempotent.
func (n *Node) applyFSOp(op FSOp, lenient bool) (localfs.Attr, simnet.Cost, error) {
	parentOf := func(p string) (localfs.Attr, error) {
		dir := path.Dir(p)
		if lenient {
			return n.store.MkdirAll(dir)
		}
		return n.store.LookupPath(dir)
	}
	switch op.Kind {
	case FSMkdirAll:
		attr, err := n.store.MkdirAll(op.Path)
		return attr, resolveCost, err

	case FSMkdir:
		pattr, err := parentOf(op.Path)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		attr, cost, err := n.store.Mkdir(pattr.Ino, path.Base(op.Path), op.Mode)
		if lenient && err != nil && nfs.ToStatus(err) == nfs.ErrExist {
			attr, err = n.store.LookupPath(op.Path)
		}
		return attr, simnet.Seq(resolveCost, cost), err

	case FSCreate:
		pattr, err := parentOf(op.Path)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		excl := op.Excl && !lenient
		attr, cost, err := n.store.Create(pattr.Ino, path.Base(op.Path), op.Mode, excl)
		return attr, simnet.Seq(resolveCost, cost), err

	case FSWrite:
		attr, err := n.fileForWrite(op.Path, lenient)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		_, cost, err := n.store.Write(attr.Ino, op.Offset, op.Data)
		if err != nil {
			return localfs.Attr{}, simnet.Seq(resolveCost, cost), err
		}
		attr, _ = n.store.LookupPath(op.Path)
		return attr, simnet.Seq(resolveCost, cost), nil

	case FSWriteV:
		attr, err := n.fileForWrite(op.Path, lenient)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		// The spans land back to back on the store, like the WRITEBATCH
		// procedure they mirror: disk costs accumulate, the round trip was
		// paid once.
		total := resolveCost
		for _, sp := range op.Spans {
			_, cost, werr := n.store.Write(attr.Ino, sp.Offset, sp.Data)
			total = simnet.Seq(total, cost)
			if werr != nil {
				return localfs.Attr{}, total, werr
			}
		}
		attr, _ = n.store.LookupPath(op.Path)
		return attr, total, nil

	case FSChunkWrite:
		// A manifest span: assemble the bytes first — inline chunks from the
		// op, referenced chunks from the local block index — and only then
		// touch the file. Assembly failure (a reference this node promised
		// but no longer holds) must leave the file untouched: the sender
		// answers the error by re-shipping the span verbatim.
		data, aerr := n.rep.AssembleChunks(op)
		if aerr != nil {
			return localfs.Attr{}, resolveCost, aerr
		}
		attr, err := n.fileForWrite(op.Path, lenient)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		_, cost, err := n.store.Write(attr.Ino, op.Offset, data)
		if err != nil {
			return localfs.Attr{}, simnet.Seq(resolveCost, cost), err
		}
		// Warm-on-receive: the span's chunks just landed at known offsets, so
		// index them immediately — the next push negotiating against this
		// node gets HAVE hits without waiting for a digest recompute.
		n.rep.WarmChunks(op.Path, op)
		attr, _ = n.store.LookupPath(op.Path)
		return attr, simnet.Seq(resolveCost, cost), nil

	case FSRelink:
		// Atomic ownership flip (rebalance migration): whatever occupies
		// Path — the migrated directory itself or a stale special link — is
		// replaced by a link to Target in one apply, so the name never
		// resolves to nothing in between.
		if err := n.store.RemoveAll(op.Path); err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		pattr, err := parentOf(op.Path)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		attr, cost, err := n.store.Symlink(pattr.Ino, path.Base(op.Path), op.Target)
		return attr, simnet.Seq(resolveCost, cost), err

	case FSWriteFile:
		// Mount.WriteFile in one apply. The primary walks to the parent as the
		// client's LOOKUPPATH did, then creates and writes as its CREATE and
		// WRITE did, each step at the store's own price: the compound saves
		// their round trips and nothing else. A replica creates missing
		// ancestors instead, like every lenient arm.
		total := resolveCost
		var pattr localfs.Attr
		var err error
		if lenient {
			pattr, err = n.store.MkdirAll(path.Dir(op.Path))
		} else {
			var c simnet.Cost
			pattr, c, err = n.walkDir(path.Dir(op.Path))
			total = simnet.Seq(total, c)
		}
		if err != nil {
			return localfs.Attr{}, total, err
		}
		attr, c, err := n.store.Create(pattr.Ino, path.Base(op.Path), 0o644, false)
		total = simnet.Seq(total, c)
		if err != nil {
			return localfs.Attr{}, total, err
		}
		_, c, err = n.store.Write(attr.Ino, 0, op.Data)
		total = simnet.Seq(total, c)
		if err != nil {
			return localfs.Attr{}, total, err
		}
		attr, _, err = n.store.Getattr(attr.Ino)
		return attr, total, err

	case FSSetattr:
		attr, err := n.store.LookupPath(op.Path)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		attr, cost, err := n.store.Setattr(attr.Ino, op.SetAttr)
		return attr, simnet.Seq(resolveCost, cost), err

	case FSRemove, FSUnlink, FSRmdir:
		pattr, err := n.store.LookupPath(path.Dir(op.Path))
		if err != nil {
			if lenient {
				return localfs.Attr{}, resolveCost, nil
			}
			return localfs.Attr{}, resolveCost, err
		}
		var cost simnet.Cost
		switch {
		case op.Kind == FSRmdir:
			cost, err = n.store.Rmdir(pattr.Ino, path.Base(op.Path))
		case op.Kind == FSUnlink && !lenient:
			// Mount.Remove types its victim where the removal happens, under
			// the store's own lock: no round trip and no other apply separates
			// the check from the act.
			cost, err = n.store.RemoveUnless(pattr.Ino, path.Base(op.Path), refuseDirectory)
		default:
			cost, err = n.store.Remove(pattr.Ino, path.Base(op.Path))
		}
		if lenient && err != nil && nfs.ToStatus(err) == nfs.ErrNoEnt {
			err = nil
		}
		if err == nil && op.Prune {
			n.rep.PruneUp(path.Dir(op.Path))
		}
		return localfs.Attr{}, simnet.Seq(resolveCost, cost), err

	case FSRemoveAll:
		err := n.store.RemoveAll(op.Path)
		if err == nil && op.Prune {
			n.rep.PruneUp(path.Dir(op.Path))
		}
		return localfs.Attr{}, resolveCost, err

	case FSRename:
		spattr, err := n.store.LookupPath(path.Dir(op.Path))
		if err != nil {
			if lenient {
				return localfs.Attr{}, resolveCost, nil
			}
			return localfs.Attr{}, resolveCost, err
		}
		dpattr, err := parentOf(op.Path2)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		cost, err := n.store.Rename(spattr.Ino, path.Base(op.Path), dpattr.Ino, path.Base(op.Path2))
		if lenient && err != nil && nfs.ToStatus(err) == nfs.ErrNoEnt {
			err = nil
		}
		return localfs.Attr{}, simnet.Seq(resolveCost, cost), err

	case FSSymlink:
		pattr, err := parentOf(op.Path)
		if err != nil {
			return localfs.Attr{}, resolveCost, err
		}
		attr, cost, err := n.store.Symlink(pattr.Ino, path.Base(op.Path), op.Target)
		if lenient && err != nil && nfs.ToStatus(err) == nfs.ErrExist {
			// Replace: mirrors converge on the latest target.
			if _, rerr := n.store.Remove(pattr.Ino, path.Base(op.Path)); rerr == nil {
				attr, cost, err = n.store.Symlink(pattr.Ino, path.Base(op.Path), op.Target)
			}
		}
		return attr, simnet.Seq(resolveCost, cost), err

	default:
		return localfs.Attr{}, 0, fmt.Errorf("kosha: unknown FS op %v", op.Kind)
	}
}

// fileForWrite resolves the file a write lands in; a replica makes it, and
// its ancestors, when it is missing.
func (n *Node) fileForWrite(p string, lenient bool) (localfs.Attr, error) {
	attr, err := n.store.LookupPath(p)
	if err != nil && lenient {
		if werr := n.store.WriteFile(p, nil); werr == nil {
			attr, err = n.store.LookupPath(p)
		}
	}
	return attr, err
}

// walkDir resolves a directory of the local store as a client holding only
// the export's root would: one Lookup per component, each at the store's
// price, stopping at the first that fails.
func (n *Node) walkDir(dir string) (localfs.Attr, simnet.Cost, error) {
	attr := localfs.Attr{Ino: localfs.RootIno, Type: localfs.TypeDir}
	var total simnet.Cost
	for rest := strings.TrimLeft(dir, "/"); rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		rest = strings.TrimLeft(rest, "/")
		var c simnet.Cost
		var err error
		attr, c, err = n.store.Lookup(attr.Ino, name)
		total = simnet.Seq(total, c)
		if err != nil {
			return localfs.Attr{}, total, err
		}
	}
	return attr, total, nil
}

// refuseDirectory is FSUnlink's veto: a directory and a special link (a
// directory on another node) both answer ISDIR, as the LOOKUP and READLINK
// Mount.Remove used to send before its REMOVE would have found.
func refuseDirectory(victim localfs.Attr, target string) error {
	if _, _, special := ParseLinkTarget(target); special || victim.Type == localfs.TypeDir {
		return localfs.ErrIsDir
	}
	return nil
}
