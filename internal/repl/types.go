// Package repl is Kosha's replication and subtree-tracking engine
// (Sections 4.2-4.4): it records which replicated hierarchies a node holds
// (primary or replica), arbitrates versions between copies, re-establishes
// the K-replica invariant after membership changes, and migrates subtrees
// when key ownership moves. The engine sees the rest of the system through
// two narrow interfaces — Overlay (who owns a key, who the replica
// candidates are) and Peer (remote digest/mirror/promote and hash-verified
// block exchange) — so it carries no dependency on the koshad wiring that
// consumes it.
package repl

import (
	"fmt"

	"repro/internal/cas"
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
	FSWrite
	FSSetattr
	FSRemove
	FSRmdir
	FSRemoveAll // recursive removal (migration resync, forced deletes)
	FSRename
	FSSymlink
	FSWriteFile  // create-or-truncate plus full contents: Mount.WriteFile's one apply, and migration
	FSWriteV     // vectored write: a write-back buffer's coalesced spans
	FSChunkWrite // manifest span: chunk refs resolved against the receiver's block index
	FSRelink     // atomic ownership flip: replace the entry at Path with a symlink to Target
	FSUnlink     // user-level remove: ISDIR for a directory or a special link; mirrored as FSRemove
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
	case FSWriteV:
		return "writev"
	case FSChunkWrite:
		return "chunkwrite"
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
	Spans   []nfs.WriteSpan // writev: coalesced spans, applied in order
	Chunks  []ChunkRef      // chunkwrite: the span's chunk sequence, at Offset
}

// ChunkRef is one chunk of an FSChunkWrite span. Inline chunks carry their
// bytes concatenated (in chunk order) in the op's Data; the rest are
// references the receiver resolves against its own content-addressed block
// index — bytes it already holds are never reshipped. The receiver
// hash-verifies both kinds and rejects the whole span if any reference
// cannot be resolved, which the sender answers by re-shipping the span
// verbatim.
type ChunkRef struct {
	Hash   cas.Hash
	Len    uint32
	Inline bool
}

// Track carries subtree-ownership metadata alongside mutations so replicas
// know which hierarchies they hold and for which keys, enabling them to act
// when they are promoted to primary (Section 4.4). Ver is the subtree's
// mutation counter: the primary bumps it on every apply, replicas record
// the value shipped with each mirror, and replica maintenance uses it to
// tell a fresh copy from one left behind by an old membership — higher
// version wins.
type Track struct {
	PN   string // controlling placement name; Key(PN) is the DHT key
	Root string // physical path of the replicated hierarchy root
	Link string // for level-1 special links: the link's name ("" if none)
	Ver  uint64 // subtree mutation counter
	Dead bool   // tombstone: the hierarchy was deleted at this version
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
