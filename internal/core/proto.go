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
// answers; the number stays vacant.
const (
	kApply      = 1 // execute an FS op at the primary; primary fans out
	kMirror     = 2 // execute an FS op at a replica; no fan-out
	kUntrack    = 4 // drop root-tracking metadata for a removed subtree
	kPromote    = 5 // move a replica-area copy to the primary path
	kReplicas   = 6 // report the primary's current replica holders for a key
	kTreeDigest = 7 // Merkle root digest of a subtree (anti-entropy check)
	kDirDigests = 8 // immediate children of a directory with subtree digests
	// Block-level negotiation (CHUNK_MANIFEST / CHUNK_FETCH): the
	// content-addressed delta-sync procedures layered under the digest
	// exchange. kChunkManifest returns a file's chunk manifest plus HAVE
	// bits for a WANT list; kChunkFetch serves block bytes by content hash.
	kChunkManifest = 9
	kChunkFetch    = 10
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
	FSMkdirAll   = repl.FSMkdirAll
	FSMkdir      = repl.FSMkdir
	FSCreate     = repl.FSCreate
	FSWrite      = repl.FSWrite
	FSSetattr    = repl.FSSetattr
	FSRemove     = repl.FSRemove
	FSRmdir      = repl.FSRmdir
	FSRemoveAll  = repl.FSRemoveAll
	FSRename     = repl.FSRename
	FSSymlink    = repl.FSSymlink
	FSWriteFile  = repl.FSWriteFile
	FSWriteV     = repl.FSWriteV
	FSChunkWrite = repl.FSChunkWrite
	FSRelink     = repl.FSRelink
	FSUnlink     = repl.FSUnlink
)

func putFSOp(e *wire.Encoder, op FSOp) {
	e.PutUint32(uint32(op.Kind))
	e.PutString(op.Path)
	e.PutString(op.Path2)
	e.PutOpaque(op.Data)
	e.PutInt64(op.Offset)
	e.PutUint32(op.Mode)
	e.PutBool(op.Excl)
	e.PutString(op.Target)
	nfs.PutSetAttr(e, op.SetAttr)
	e.PutBool(op.Prune)
	nfs.PutWriteSpans(e, op.Spans)
	e.PutUint32(uint32(len(op.Chunks)))
	for _, cr := range op.Chunks {
		e.PutDigest(cr.Hash)
		e.PutUint32(cr.Len)
		e.PutBool(cr.Inline)
	}
}

func getFSOp(d *wire.Decoder) FSOp {
	var op FSOp
	op.Kind = FSOpKind(d.Uint32())
	op.Path = d.String()
	op.Path2 = d.String()
	// Data and Spans borrow the request buffer: applyFSOp copies them into
	// the store, and the mirror fan-out into its own frame, before the
	// handler returns.
	op.Data = d.OpaqueRef()
	op.Offset = d.Int64()
	op.Mode = d.Uint32()
	op.Excl = d.Bool()
	op.Target = d.String()
	op.SetAttr = nfs.GetSetAttr(d)
	op.Prune = d.Bool()
	op.Spans = nfs.GetWriteSpans(d)
	if n := d.ArrayLen(); n > 0 && d.Err() == nil {
		op.Chunks = make([]repl.ChunkRef, 0, n)
		for i := 0; i < n; i++ {
			op.Chunks = append(op.Chunks, repl.ChunkRef{Hash: d.Digest(), Len: d.Uint32(), Inline: d.Bool()})
		}
	}
	return op
}

func putTrack(e *wire.Encoder, t Track) {
	e.PutString(t.PN)
	e.PutString(t.Root)
	e.PutString(t.Link)
	e.PutUint64(t.Ver)
	e.PutBool(t.Dead)
}

func getTrack(d *wire.Decoder) Track {
	return Track{PN: d.String(), Root: d.String(), Link: d.String(), Ver: d.Uint64(), Dead: d.Bool()}
}

// applyReq is the body of kApply and kMirror. Primary marks a mirror that
// must land in the receiver's primary namespace rather than the replica
// area: migration pushes to a key's new owner, whose copy must be directly
// servable (Section 4.3.1).
type applyReq struct {
	Key     id.ID // DHT key the primary must own (kApply only)
	Track   Track
	Op      FSOp
	Primary bool
}

// frame encodes a kApply/kMirror request in a buffer sized for the whole
// frame (256 covers the fixed fields and path strings), so a data-bearing
// mutation is allocated once.
func (r *applyReq) frame(proc uint32) []byte {
	e := wire.NewEncoder(256 + len(r.Op.Data) + nfs.SpansWireSize(r.Op.Spans) + 40*len(r.Op.Chunks))
	e.PutUint32(proc)
	r.encode(e)
	return e.Bytes()
}

func (r *applyReq) encode(e *wire.Encoder) {
	e.PutFixedOpaque(r.Key[:])
	putTrack(e, r.Track)
	putFSOp(e, r.Op)
	e.PutBool(r.Primary)
}

func decodeApplyReq(d *wire.Decoder) applyReq {
	var r applyReq
	d.FixedOpaque(r.Key[:])
	r.Track = getTrack(d)
	r.Op = getFSOp(d)
	r.Primary = d.Bool()
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
