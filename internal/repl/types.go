// Package repl is Kosha's replication and subtree-tracking engine
// (Sections 4.2-4.4): it records which replicated hierarchies a node holds
// (primary or replica), arbitrates versions between copies, re-establishes
// the K-replica invariant after membership changes, and migrates subtrees
// when key ownership moves. Every repair moves file bytes in one direction:
// the copy that is behind pulls them. A primary refreshing a stale replica,
// and an old owner handing a hierarchy to the new one, ask the target to
// pull (Peer.Pull); a promoted primary that finds a newer replica pulls from
// it on its own. Either way the puller walks the source's digest listings,
// skips every matching subtree, and fetches only the blocks it lacks. The
// engine sees the rest of the system through two narrow interfaces —
// Overlay (who owns a key, who the replica candidates are) and Peer (remote
// digests, mirrored mutations, promote and pull requests, hash-verified
// block fetches) — so it carries no dependency on the koshad wiring that
// consumes it.
package repl

import (
	"fmt"

	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
)

// MigrationFlag is the sentinel file created at the root of a replicated
// hierarchy while content migration is in flight; its presence on a replica
// after a primary failure triggers re-migration (Section 4.4).
const MigrationFlag = "MIGRATION_NOT_COMPLETE"

// RepArea is the reserved store subtree holding replica copies. The paper
// keeps replicas "inaccessible to the local users" (Section 4.2); parking
// them outside the primary namespace also keeps a replica's scaffolding
// from colliding with the special links resolution probes. When a node is
// promoted to primary for a key it moves the copy from the replica area to
// the primary path (Sections 4.3-4.4).
const RepArea = "/.rep"

// RepPath translates a primary-relative physical path into the replica
// area.
func RepPath(p string) string {
	if p == "/" || p == "" {
		return RepArea
	}
	return RepArea + p
}

// AppendRepPath appends RepPath of a path held as bytes, such as one borrowed
// from a request frame, to dst: a handler builds the replica-area path in
// room of its own and lends it on, so nothing keeps p and nothing allocates
// while dst has the room.
func AppendRepPath(dst, p []byte) []byte {
	dst = append(dst, RepArea...)
	if string(p) == "/" {
		return dst
	}
	return append(dst, p...)
}

// IsRepPath reports whether p == RepPath(root), without building RepPath.
func IsRepPath(p, root string) bool {
	if root == "/" || root == "" {
		return p == RepArea
	}
	return len(p) == len(RepArea)+len(root) && p[:len(RepArea)] == RepArea && p[len(RepArea):] == root
}

// PrimaryRoot strips the replica-area prefix, returning the primary-relative
// root that version records are keyed by.
func PrimaryRoot(p string) string {
	if len(p) > len(RepArea) && p[:len(RepArea)] == RepArea {
		return p[len(RepArea):]
	}
	return p
}

// FSOpKind enumerates the path-based store mutations replicated to mirrors.
type FSOpKind uint32

const (
	FSMkdirAll FSOpKind = iota + 1
	FSMkdir             // strict: fails if the directory exists
	FSCreate
	FSWrite // Data at Offset, or with Spans each span at its own offset: a write-back flush
	FSSetattr
	FSRemove
	FSRmdir
	FSRemoveAll // recursive removal (migration resync, forced deletes)
	FSRename
	FSSymlink
	FSWriteFile // create-or-truncate plus full contents: Mount.WriteFile's one apply
	_           // 12 was FSWriteV, a flush's spans, which FSWrite carries now; vacant
	_           // 13 was FSChunkWrite, the replica push's chunk span, gone with the push; vacant
	FSRelink    // atomic ownership flip: replace the entry at Path with a symlink to Target
	FSUnlink    // user-level remove: ISDIR for a directory or a special link; mirrored as FSRemove
)

func (k FSOpKind) String() string {
	switch k {
	case FSMkdirAll:
		return "mkdirall"
	case FSCreate:
		return "create"
	case FSWrite:
		return "write"
	case FSSetattr:
		return "setattr"
	case FSRemove:
		return "remove"
	case FSRmdir:
		return "rmdir"
	case FSMkdir:
		return "mkdir"
	case FSRemoveAll:
		return "removeall"
	case FSRename:
		return "rename"
	case FSSymlink:
		return "symlink"
	case FSWriteFile:
		return "writefile"
	case FSRelink:
		return "relink"
	case FSUnlink:
		return "unlink"
	default:
		return fmt.Sprintf("fsop(%d)", uint32(k))
	}
}

// FSOp is one path-based store mutation. Path/Path2 are physical store
// paths. The same structure is executed at the primary (Apply) and shipped
// verbatim to replicas (Mirror), which keeps replica stores byte-identical
// mirrors of the primary's hierarchy (Section 4.2).
type FSOp struct {
	Kind    FSOpKind
	Path    string
	Path2   string // rename destination
	Data    []byte // write / writefile payload
	Offset  int64
	Mode    uint32
	Excl    bool
	Target  string // symlink target
	SetAttr localfs.SetAttr
	Prune   bool            // rmdir/remove: prune empty scaffolding above
	Spans   []nfs.WriteSpan // write: a flush's coalesced spans, applied in order
}

// Track carries subtree-ownership metadata alongside mutations so replicas
// know which hierarchies they hold and for which keys, enabling them to act
// when they are promoted to primary (Section 4.4). Ver is the subtree's
// mutation counter: the primary bumps it on every apply, replicas record
// the value shipped with each mirror, and replica maintenance uses it to
// tell a fresh copy from one left behind by an old membership — higher
// version wins.
//
// A level-1 entry at /name on Key(name)'s node is one record, {PN: name,
// Root: "/name"}, whether it holds the unsalted home or the special link a
// redirect or a relink put there (Section 3.3): it is replicated, versioned
// and migrated like any other root, and a relink continues its chain.
type Track struct {
	PN   string // controlling placement name; Key(PN) is the DHT key
	Root string // physical path of the replicated hierarchy root
	Ver  uint64 // subtree mutation counter
	Dead bool   // tombstone: the hierarchy was deleted at this version
}

// RemovedBy reports whether op removes the root itself, the hierarchy or the
// link standing at it, at its primary path or in the replica area: the op
// that makes the record a tombstone.
func (t Track) RemovedBy(op FSOp) bool {
	switch op.Kind {
	case FSRemove, FSRmdir, FSRemoveAll:
		return op.Path == t.Root || PrimaryRoot(op.Path) == t.Root
	}
	return false
}

// TreeStat is the local summary of a hierarchy the capacity rebalancer
// sizes victims with (StatLocal). What a peer holds is asked with a
// TreeDigest.
type TreeStat struct {
	Exists bool
	Flag   bool // MIGRATION_NOT_COMPLETE present
	Bytes  int64
}

// TreeDigest is what a node holds at a hierarchy root: two settled copies
// are byte-identical exactly when their Root digests match, so replica
// maintenance can skip an entire subtree with one exchange and otherwise
// walk only the mismatching directories; Exists, Flag and Ver arbitrate
// which copy is current.
type TreeDigest struct {
	Exists bool
	Flag   bool          // MIGRATION_NOT_COMPLETE present at the root
	Ver    uint64        // the holder's recorded mutation counter for the root
	Root   merkle.Digest // content-structural digest of the subtree; zero unless asked for
}
