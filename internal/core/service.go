package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// procHandler serves one decoded procedure of a node service. The decoder
// is positioned just past the procedure number; the handler decodes its own
// arguments, encodes the reply into e, and returns the simulated cost. A
// non-nil error is a malformed request (or internal failure) and aborts the
// RPC without a reply body; application-level failures are encoded replies.
// The trace context is the server span the transport allocated for the
// request (zero when the exchange is untraced); handlers that issue
// downstream RPCs thread it so the fan-out — replica mirroring, root
// adoption — nests under it in the assembled trace tree.
type procHandler func(n *Node, ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error)

// proc is one entry of a service's dispatch table: the handler and the name
// its server spans are labelled with ("<service>.<name>").
type proc struct {
	name  string
	serve procHandler
}

// serviceTable maps procedure numbers to handlers. Both node services (the
// kosha replication service and the koshactl administrative service) are
// plain tables dispatched through the same path, so adding a procedure is a
// table entry plus a handler rather than a new arm in a monolithic switch.
type serviceTable map[uint32]proc

// serve returns the transport handler for one of the node's service tables:
// it decodes the procedure number and routes to the table entry. The decoder
// and the encoder live in one pooled wire.Codec, freed on every path: they
// escape through the table's indirect call, and the Codec's array takes a
// reply of up to 264 bytes. The caller owns a reply (DESIGN §10), so it gets
// the reply at its own length (Codec.Keep): a copy of one in the array, or
// the frame a larger reply grew, so a served request allocates one object
// beyond its handler. The decoder reads the request frame the transport was
// handed (wire.FrameOf), so a write's lent data reaches the store, and the
// mirror fan-out, uncopied; nothing held by the reply pins the request.
func (n *Node) serve(service string, table serviceTable) simnet.HandlerCtx {
	return func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		x := wire.GetCodec()
		defer x.Free()
		d, e := &x.D, &x.E
		d.ResetFrame(wire.FrameOf(req))
		num := d.Uint32()
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		p, ok := table[num]
		if !ok {
			return nil, 0, fmt.Errorf("%s: unknown proc %d", service, num)
		}
		cost, err := p.serve(n, ctx, from, d, e)
		if err != nil {
			return nil, cost, err
		}
		return x.Keep(), cost, nil
	}
}

// applyRoom is what a kApply or kMirror handler decodes the op into: spans,
// wbMaxSpans+1 of them, the most a write-back flush carries
// (writeBuffered), the values of a setattr, and paths, where a mirror builds
// its replica-area paths (decodeApplyReq). A vector longer than that, which
// only another client sends, grows on the heap past it, as do the paths of
// a mirror longer than the array. The room lives in a pool, not on the
// handler's stack, because the decoded op reaches the store's interface, and
// escape analysis lets whatever the op points at escape with it.
type applyRoom struct {
	spans   [wbMaxSpans + 1]nfs.WriteSpan
	setattr nfs.SetAttrValues
	// paths makes the room 1152 bytes, a size class, and holds the two
	// replica-area paths of a rename up to about 260 bytes each.
	paths [536]byte
}

var applyRooms = sync.Pool{New: func() any { return new(applyRoom) }}

// getApplyRoom takes a room for one handler run, which frees it (free) once
// the op has been applied and mirrored.
func getApplyRoom() *applyRoom { return applyRooms.Get().(*applyRoom) }

// free clears the room's spans, so the pool pins no request frame or lent
// body, poisons its paths while wire.PoisonFreed is on, so a store that kept
// a replica-area path reads wire.Poison there, and pools it.
func (r *applyRoom) free() {
	clear(r.spans[:])
	wire.PoisonLent(r.paths[:])
	applyRooms.Put(r)
}

// koshaProcs is the kosha replication service (Sections 4.2-4.4).
var koshaProcs = serviceTable{
	kApply:         {"apply", (*Node).serveApply},
	kMirror:        {"mirror", (*Node).serveMirror},
	kPromote:       {"promote", (*Node).servePromote},
	kReplicas:      {"replicas", (*Node).serveReplicas},
	kTreeDigest:    {"tree-digest", (*Node).serveTreeDigest},
	kDirDigests:    {"dir-digests", (*Node).serveDirDigests},
	kChunkManifest: {"chunk-manifest", (*Node).serveChunkManifest},
	kChunkFetch:    {"chunk-fetch", (*Node).serveChunkFetch},
	kPull:          {"pull", (*Node).servePull},
}

// serveApply executes a mutation at the primary and fans out to replicas.
func (n *Node) serveApply(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	room := getApplyRoom()
	defer room.free()
	r := decodeApplyReq(d, n.rep, false, room)
	if d.Err() != nil {
		return 0, d.Err()
	}
	// Primary check: all accesses go to the primary replica (Section
	// 4.2). The check is active — a better candidate is pinged and
	// purged if dead — so a node bordering a fresh failure accepts
	// ownership immediately (Section 4.4).
	var checkCost simnet.Cost
	if !r.Key.IsZero() {
		isRoot, c := n.overlay.EnsureRootFor(r.Key)
		checkCost = c
		if !isRoot {
			e.PutUint32(codeNotPrimary)
			return checkCost, nil
		}
		// Cold path after an ownership change: surface the local
		// replica-area copy and adopt any newer version (or newer
		// deletion) a current replica holds. Skipped when the primary
		// path already exists — the warm, per-mutation case.
		if r.Track.Root != "" {
			if _, err := n.store.LookupPath(r.Track.Root); err != nil {
				c, _ := n.rep.AdoptRoot(ctx, r.Track, true)
				checkCost = simnet.Seq(checkCost, c)
			}
		}
	}
	attr, cost, err := n.applyFSOp(r.Op, false)
	if err != nil {
		e.PutUint32(codeNFSBase + uint32(nfs.ToStatus(err)))
		return simnet.Seq(checkCost, cost), nil
	}
	if r.Op.Kind == FSUnlink {
		// The check was the primary's; replicas just remove.
		r.Op.Kind = FSRemove
	}
	r.Track = n.rep.Stamp(r.Track, r.Op)
	n.rep.Track(r.Track, r.Op)
	// Fan out to the K leaf-set replicas; the primary "forwards the
	// RPC to all the replicas" (Section 4.2). Failures are tolerated: the
	// next Sync repairs the replica. Removals of a whole hierarchy (or of
	// the level-1 link standing at its root) additionally reach every
	// leaf-set member: former replica candidates may still hold copies, and
	// a deletion they miss would resurrect when ownership drifts to them.
	var buf [8]pastry.NodeInfo
	targets := n.overlay.AppendReplicaCandidates(buf[:0], n.cfg.Replicas)
	if r.Track.RemovedBy(r.Op) {
		targets = n.overlay.Leaf()
	}
	if len(targets) > 0 {
		// The request is the same for every replica: encode it once.
		mr := applyReq{Track: r.Track, Op: r.Op}
		x := mr.request(kMirror)
		var fanout simnet.Cost // the mirrors run in parallel
		for _, rep := range targets {
			_, c, _ := n.koshaSend(ctx, rep.Addr, x.E.Frame())
			fanout = simnet.Par(fanout, c)
		}
		x.Free()
		n.repCount.Add(1)
		n.repFanout.Add(uint64(len(targets)))
		n.repHist.Observe(time.Duration(fanout))
	}
	// The reply is charged without the fan-out: the primary answers after
	// its local apply and the mirrors propagate off the client's path. What
	// a synchronous fan-out would add is op.replicate's sum.
	cost = simnet.Seq(checkCost, cost)
	e.PutUint32(codeOK)
	putApplyReplyBody(e, attr, nfs.Handle{Gen: n.nsrvGen(), Ino: attr.Ino}, len(targets))
	return cost, nil
}

// serveMirror executes a mutation at a replica (no fan-out). Its reply is
// the status code alone: the primary's fan-out and a repair's Mirror only
// learn whether the replica applied the op.
func (n *Node) serveMirror(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	// Replica copies live in the reserved replica area, outside the
	// primary namespace ("the replicas are inaccessible to the local
	// users", Section 4.2): the decoder builds the op's paths there. A
	// deletion addressed to this node as the key's new primary lands in the
	// primary namespace directly.
	room := getApplyRoom()
	defer room.free()
	r := decodeApplyReq(d, n.rep, true, room)
	if d.Err() != nil {
		return 0, d.Err()
	}
	// A copy this mirror makes from nothing (lenient parents) keeps its old
	// version, for the owner's next Sync to refresh: at the primary's, it
	// would outrank the full copy once ownership moves (seed 1152).
	whole := r.Track.Ver == n.rep.VerOf(r.Track.Root)+1 || r.Track.RemovedBy(r.Op) || n.holdsMirrored(r)
	_, cost, err := n.applyFSOp(r.Op, true)
	if err != nil {
		e.PutUint32(codeNFSBase + uint32(nfs.ToStatus(err)))
		return cost, nil
	}
	if whole {
		n.rep.Track(r.Track, r.Op)
	}
	e.PutUint32(codeOK)
	return cost, nil
}

// holdsMirrored reports whether this node holds the copy mirror r edits: the
// root in r's area, a prefix of r's path, or the source of a root rename.
func (n *Node) holdsMirrored(r applyReq) bool {
	p, end := r.Op.Path, len(r.Track.Root)
	if !r.Primary {
		end += len(repl.RepArea)
	}
	if r.Op.Kind != FSRename || repl.PrimaryRoot(r.Op.Path2) != r.Track.Root {
		p = p[:min(end, len(p))]
	}
	_, err := n.store.LookupPath(p)
	return err == nil
}

// serveTreeDigest reports what this node holds at a path — existence,
// migration flag, version and, when asked for, the Merkle root digest: the
// anti-entropy fast path ("has anything changed?") and every version
// arbitration, answered in one exchange.
func (n *Node) serveTreeDigest(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	root := d.String()
	hash := d.Bool()
	if d.Err() != nil {
		return 0, d.Err()
	}
	td := n.rep.DigestLocal(root, hash)
	// Version is keyed by the primary-relative root regardless of the
	// area being digested.
	td.Ver = n.rep.VerOf(repl.PrimaryRoot(root))
	e.PutUint32(codeOK)
	e.PutBool(td.Exists)
	e.PutBool(td.Flag)
	e.PutUint64(td.Ver)
	if td.Exists && hash {
		// There is no digest of nothing: "I do not hold that root" is the
		// three fields above.
		e.PutDigest(td.Root)
	}
	return simnet.Disk7200.OpCost(0), nil
}

// serveDirDigests lists the immediate children of a local directory with
// their subtree digests — one level of the delta walk.
func (n *Node) serveDirDigests(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	dir := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	ents, ok, err := n.rep.DirDigestsLocal(dir)
	if err != nil {
		e.PutUint32(codeNFSBase + uint32(nfs.ToStatus(err)))
		return simnet.Disk7200.OpCost(0), nil
	}
	e.PutUint32(codeOK)
	e.PutBool(ok)
	merkle.PutEntries(e, ents)
	return simnet.Disk7200.OpCost(len(ents) * 64), nil
}

// serveReplicas reports the primary's current replica holders for a key.
func (n *Node) serveReplicas(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	var key id.ID
	d.FixedOpaque(key[:])
	if d.Err() != nil {
		return 0, d.Err()
	}
	if isRoot, cost := n.overlay.EnsureRootFor(key); !isRoot {
		e.PutUint32(codeNotPrimary)
		return cost, nil
	}
	var buf [8]pastry.NodeInfo
	reps := n.overlay.AppendReplicaCandidates(buf[:0], n.cfg.Replicas)
	e.PutUint32(codeOK)
	e.PutUint32(uint32(len(reps)))
	for _, rep := range reps {
		e.PutString(string(rep.Addr))
	}
	return 0, nil
}

// servePromote surfaces a replica-area copy at the new primary.
func (n *Node) servePromote(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	t := getTrack(d, n.rep)
	if d.Err() != nil {
		return 0, d.Err()
	}
	key := Key(t.PN)
	isRoot, cost := n.overlay.EnsureRootFor(key)
	if !isRoot {
		e.PutUint32(codeNotPrimary)
		return cost, nil
	}
	c, changed := n.rep.AdoptRoot(ctx, t, false)
	cost = simnet.Seq(cost, c)
	e.PutUint32(codeOK)
	e.PutBool(changed)
	return simnet.Seq(cost, simnet.Disk7200.OpCost(0)), nil
}

// serveChunkManifest answers CHUNK_MANIFEST: the chunk manifest and the mode
// of the local regular file at phys. Computing it indexes the file's blocks,
// which the puller's CHUNK_FETCH asks for next.
func (n *Node) serveChunkManifest(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	phys := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	man, mode, exists := n.rep.ManifestLocal(phys)
	e.PutUint32(codeOK)
	e.PutBool(exists)
	e.PutUint32(mode)
	cas.PutManifest(e, man)
	return simnet.Disk7200.OpCost(len(man) * 36), nil
}

// serveChunkFetch serves block bytes by content hash (CHUNK_FETCH). The phys
// hint names a file whose manifest covers the hashes: indexing it on demand
// lets a holder that never digested its copy still answer. Each reply slot
// carries a presence bool so missing blocks are distinguishable from empty
// ones; callers hash-verify whatever comes back.
func (n *Node) serveChunkFetch(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	phys := d.String()
	hashes := cas.GetHashes(d)
	if d.Err() != nil {
		return 0, d.Err()
	}
	if phys != "" {
		n.rep.ManifestLocal(phys)
	}
	e.PutUint32(codeOK)
	e.PutUint32(uint32(len(hashes)))
	total := 0
	for _, h := range hashes {
		b, ok := n.rep.GetBlock(h)
		e.PutBool(ok)
		if ok {
			e.PutOpaque(b)
			total += len(b)
		}
	}
	return simnet.Disk7200.OpCost(total), nil
}

// servePull makes this node's copy of a hierarchy hold what the caller's
// copy holds (kPull), fetching from the caller what it lacks. The source is
// the transport's from, never a frame field: a node can only be told to pull
// from the node that asked.
func (n *Node) servePull(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	t := getTrack(d, n.rep)
	src := d.String()
	primary := d.Bool()
	if d.Err() != nil {
		return 0, d.Err()
	}
	if t.Root == "" || src == "" {
		return 0, errors.New("kosha: pull names no hierarchy")
	}
	cost, err := n.rep.Pull(ctx, from, t, src, primary)
	if err != nil {
		e.PutUint32(codeNFSBase + uint32(nfs.ToStatus(err)))
		return cost, nil
	}
	e.PutUint32(codeOK)
	return cost, nil
}

// putApplyReplyBody encodes what follows codeOK in a kApply reply: the
// target's post-op attributes, all ten fields as an NFSv3 reply's wcc_data
// carries them, so the client caches what it just wrote without a GETATTR;
// the target's handle; and the replica fan-out width, for trace records. A
// failed apply's reply is its status code alone.
func putApplyReplyBody(e *wire.Encoder, attr localfs.Attr, fh nfs.Handle, fanout int) {
	nfs.PutAttr(e, attr)
	e.PutUint64(fh.Gen)
	e.PutUint64(fh.Ino)
	e.PutUint32(uint32(fanout))
}

func getApplyReplyBody(d *wire.Decoder) (localfs.Attr, nfs.Handle, int) {
	attr := nfs.GetAttr(d)
	var fh nfs.Handle
	fh.Gen = d.Uint64()
	fh.Ino = d.Uint64()
	return attr, fh, int(d.Uint32())
}
