package core

import (
	"errors"

	"repro/internal/id"
	"repro/internal/nfs"
	"repro/internal/repl"
	"repro/internal/wire"
)

// KoshaService is the simnet service name for koshad-to-koshad RPCs: the
// interposed mutation path (apply-at-primary with replica fan-out, Section
// 4.2) and the replica-maintenance traffic (Section 4.3).
const KoshaService = "kosha"

// kosha service procedure numbers. 3 was STAT_TREE, which kTreeDigest
// answers, and 4 was UNTRACK, whose work the relink's own link record
// does (repl.Engine.Track); both numbers stay vacant.
const (
	kApply      = 1 // execute an FS op at the primary; primary fans out
	kMirror     = 2 // execute an FS op at a replica; no fan-out
	kPromote    = 5 // move a replica-area copy to the primary path
	kReplicas   = 6 // report the primary's current replica holders for a key
	kTreeDigest = 7 // Merkle root digest of a subtree (anti-entropy check)
	kDirDigests = 8 // immediate children of a directory with subtree digests
	// Block-level transfer (CHUNK_MANIFEST / CHUNK_FETCH), under the digest
	// exchange: kChunkManifest returns a file's chunk manifest, kChunkFetch
	// serves block bytes by content hash.
	kChunkManifest = 9
	kChunkFetch    = 10
	// kPull asks the receiver to make its copy of a hierarchy hold what the
	// caller's holds, fetching from the caller what it lacks: every replica
	// refresh and migration hand-over.
	kPull = 11
)

// kosha reply codes beyond NFS statuses.
const (
	codeOK         = 0
	codeNotPrimary = 1 // receiver no longer owns the key; caller re-resolves
	codeNFSBase    = 100
)

// ErrNotPrimary signals that the contacted node is not the current primary
// replica for the key; the caller must re-resolve through the overlay.
var ErrNotPrimary = errors.New("kosha: node is not the primary replica for key")

// procKosha is the pseudo-procedure used when a kosha-service reply carries
// an NFS status (the mutation executed through the store rather than an NFS
// RPC proper).
const procKosha = nfs.Proc(200)

// The replication data model (mutation records, subtree-ownership tracking,
// tree summaries) lives in internal/repl; core aliases the types so the rest
// of the package — and external consumers — keep their spelling.
type (
	// FSOpKind enumerates the path-based store mutations replicated to
	// mirrors.
	FSOpKind = repl.FSOpKind
	// FSOp is one path-based store mutation (see repl.FSOp).
	FSOp = repl.FSOp
	// Track carries subtree-ownership metadata alongside mutations (see
	// repl.Track).
	Track = repl.Track
	// TreeDigest summarizes a replicated hierarchy by its Merkle root
	// digest (see repl.TreeDigest).
	TreeDigest = repl.TreeDigest
)

const (
	FSMkdirAll  = repl.FSMkdirAll
	FSMkdir     = repl.FSMkdir
	FSCreate    = repl.FSCreate
	FSWrite     = repl.FSWrite
	FSSetattr   = repl.FSSetattr
	FSRemove    = repl.FSRemove
	FSRmdir     = repl.FSRmdir
	FSRemoveAll = repl.FSRemoveAll
	FSRename    = repl.FSRename
	FSSymlink   = repl.FSSymlink
	FSWriteFile = repl.FSWriteFile
	FSRelink    = repl.FSRelink
	FSUnlink    = repl.FSUnlink
)

// putFSOp encodes op with path and path2 in the place of its own two paths.
func putFSOp(e *wire.Encoder, op FSOp, path, path2 physRef) {
	e.PutUint32(uint32(op.Kind))
	putPhys(e, path)
	putPhys(e, path2)
	e.PutOpaqueRef(op.Data)
	e.PutInt64(op.Offset)
	e.PutUint32(op.Mode)
	e.PutBool(op.Excl)
	e.PutString(op.Target)
	nfs.PutSetAttr(e, op.SetAttr)
	e.PutBool(op.Prune)
	nfs.PutWriteSpans(e, op.Spans)
}

// getFSOp decodes an FSOp but for its two paths, which it returns as bytes
// borrowed from the request for the caller to view once it knows where they
// land (decodeApplyReq). The op's spans and the values its SetAttr points at
// go into room.
func getFSOp(d *wire.Decoder, room *applyRoom) (op FSOp, path, path2 []byte) {
	op.Kind = FSOpKind(d.Uint32())
	path = d.OpaqueRef()
	path2 = d.OpaqueRef()
	// Data, Target and Spans borrow the request frame, the bodies it lends
	// included: applyFSOp copies them into the store, and the mirror
	// fan-out lends them on, before the handler returns.
	op.Data = d.OpaqueRef()
	op.Offset = d.Int64()
	op.Mode = d.Uint32()
	op.Excl = d.Bool()
	op.Target = d.StringRef()
	op.SetAttr = nfs.GetSetAttr(d, &room.setattr)
	op.Prune = d.Bool()
	// An op without spans holds no slice of the caller's room.
	if op.Spans = nfs.GetWriteSpans(d, room.spans[:0]); len(op.Spans) == 0 {
		op.Spans = nil
	}
	return op, path, path2
}

// putPhys encodes a physical path from its parts: byte for byte what
// PutString encodes for the joined path, which is never built.
func putPhys(e *wire.Encoder, p physRef) { e.PutOpaqueFunc(p.appendTo) }

func putTrack(e *wire.Encoder, t Track) {
	e.PutString(t.PN)
	e.PutString(t.Root)
	e.PutUint64(t.Ver)
	e.PutBool(t.Dead)
}

// getTrack decodes a Track whose names are the engine's own strings where
// they equal its record for the frame's root (repl.Engine.TrackNames), so
// only a hierarchy new to this node, or changed, allocates them.
func getTrack(d *wire.Decoder, rep *repl.Engine) Track {
	pn := d.OpaqueRef()
	root := d.OpaqueRef()
	t := rep.TrackNames(pn, root)
	t.Ver = d.Uint64()
	t.Dead = d.Bool()
	return t
}

// applyReq is the body of kApply and kMirror. Primary marks a mirror that
// must land in the receiver's primary namespace rather than the replica
// area: a deletion or a level-1 link told to a key's new owner, whose copy
// must be directly servable (Section 4.3.1).
//
// at and at2 are what a request encodes for the op's Path and Path2: the
// parts of a handle row's path (physRef), so an apply builds no path string.
// A zero one encodes the op's own string, as the mirror fan-out re-sends a
// decoded op's views; a decoded request leaves both zero.
type applyReq struct {
	Key     id.ID // DHT key the primary must own (kApply only)
	Track   Track
	Op      FSOp
	Primary bool
	at, at2 physRef
}

// request encodes a kApply/kMirror request that lends its data: the op's
// Data and every span's bytes go out from where they lie, and only the head
// is encoded, into a pooled Codec (wire.GetCodec), which also records the one
// body a write lends, so a write of any size whose head fits the Codec's
// array allocates nothing for its request. The caller frees the Codec after
// its last send; its decoder is unused.
func (r *applyReq) request(proc uint32) *wire.Codec {
	x := wire.GetCodec()
	x.E.PutUint32(proc)
	r.encode(&x.E)
	return x
}

func (r *applyReq) encode(e *wire.Encoder) {
	e.PutFixedOpaque(r.Key[:])
	putTrack(e, r.Track)
	putFSOp(e, r.Op, orPath(r.at, r.Op.Path), orPath(r.at2, r.Op.Path2))
	e.PutBool(r.Primary)
}

// orPath is p, or the whole path s when p is zero.
func orPath(p physRef, s string) physRef {
	if p == (physRef{}) {
		return physOf(s)
	}
	return p
}

// decodeApplyReq decodes a kApply (mirror false) or kMirror body into the
// handler's room. The op's paths and link target are views (wire.View) that
// the handler lends to applyFSOp and the store, which copies only the names
// it keeps. They are views of the frame, except a mirror's paths: those land
// in the replica area unless the frame says Primary, its last field, so once
// it has been read both are built into room.paths, prefix and all, and
// viewed there. The op's spans and its SetAttr's values go into the room
// too, so a flush's vector and a setattr cost no allocation either. Nothing
// of the result may be kept past the handler run: the caller frees the
// request's frame once the call has returned, and the room is pooled.
func decodeApplyReq(d *wire.Decoder, rep *repl.Engine, mirror bool, room *applyRoom) applyReq {
	var r applyReq
	var path, path2 []byte
	d.FixedOpaque(r.Key[:])
	r.Track = getTrack(d, rep)
	r.Op, path, path2 = getFSOp(d, room)
	r.Primary = d.Bool()
	if !mirror || r.Primary {
		r.Op.Path, r.Op.Path2 = wire.View(path), wire.View(path2)
		return r
	}
	buf := room.paths[:0]
	if need := 2*len(repl.RepArea) + len(path) + len(path2); need > cap(buf) {
		buf = make([]byte, 0, need) // both paths in one buffer, sized once
	}
	buf = repl.AppendRepPath(buf, path)
	r.Op.Path = wire.View(buf)
	if len(path2) > 0 {
		rest := repl.AppendRepPath(buf[len(buf):], path2)
		r.Op.Path2 = wire.View(rest)
	}
	return r
}

func codeToError(code uint32) error {
	switch code {
	case codeOK:
		return nil
	case codeNotPrimary:
		return ErrNotPrimary
	default:
		return &nfs.Error{Proc: procKosha, Status: nfs.Status(code - codeNFSBase)}
	}
}
