package core

import (
	"fmt"
	"time"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/obs"
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
// it decodes the procedure number and routes to the table entry. The reply is
// the encoder's own bytes: the caller owns a reply (DESIGN §10), and nothing
// else holds the encoder once the handler returns. Besides that frame a
// request allocates one object, the decoder and the encoder together, which
// escape through the table's indirect call.
func (n *Node) serve(service string, table serviceTable) simnet.HandlerCtx {
	return func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		x := new(struct {
			d wire.Decoder
			e wire.Encoder
		})
		d, e := &x.d, &x.e
		d.Reset(req)
		num := d.Uint32()
		if d.Err() != nil {
			return nil, 0, d.Err()
		}
		p, ok := table[num]
		if !ok {
			return nil, 0, fmt.Errorf("%s: unknown proc %d", service, num)
		}
		e.Grow(256)
		cost, err := p.serve(n, ctx, from, d, e)
		if err != nil {
			return nil, cost, err
		}
		return e.Bytes(), cost, nil
	}
}

// koshaProcs is the kosha replication service (Sections 4.2-4.4).
var koshaProcs = serviceTable{
	kApply:         {"apply", (*Node).serveApply},
	kMirror:        {"mirror", (*Node).serveMirror},
	kUntrack:       {"untrack", (*Node).serveUntrack},
	kPromote:       {"promote", (*Node).servePromote},
	kReplicas:      {"replicas", (*Node).serveReplicas},
	kTreeDigest:    {"tree-digest", (*Node).serveTreeDigest},
	kDirDigests:    {"dir-digests", (*Node).serveDirDigests},
	kChunkManifest: {"chunk-manifest", (*Node).serveChunkManifest},
	kChunkFetch:    {"chunk-fetch", (*Node).serveChunkFetch},
}

// serveApply executes a mutation at the primary and fans out to replicas.
func (n *Node) serveApply(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	r := decodeApplyReq(d)
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
			putApplyReplyBody(e, localfs.Attr{}, nfs.Handle{}, 0)
			return checkCost, nil
		}
		// Cold path after an ownership change: surface the local
		// replica-area copy and adopt any newer version (or newer
		// deletion) a current replica holds. Skipped when the primary
		// path already exists — the warm, per-mutation case.
		if r.Track.Root != "" {
			if _, err := n.store.LookupPath(r.Track.Root); err != nil {
				c, _ := n.rep.AdoptRoot(ctx, r.Track)
				checkCost = simnet.Seq(checkCost, c)
			}
		}
	}
	attr, cost, err := n.applyFSOp(r.Op, false)
	if err != nil {
		e.PutUint32(codeNFSBase + uint32(nfs.ToStatus(err)))
		putApplyReplyBody(e, localfs.Attr{}, nfs.Handle{}, 0)
		return simnet.Seq(checkCost, cost), nil
	}
	if r.Op.Kind == FSUnlink {
		// The check was the primary's; replicas just remove.
		r.Op.Kind = FSRemove
	}
	r.Track = n.rep.Stamp(r.Track, r.Op)
	n.rep.Track(r.Track, r.Op)
	// Fan out to the K leaf-set replicas; the primary "forwards the
	// RPC to all the replicas" (Section 4.2). Failures are tolerated:
	// replica repair happens on membership change. Removals of a whole
	// hierarchy (or level-1 link) additionally reach every leaf-set
	// member: former replica candidates may still hold copies, and a
	// deletion they miss would resurrect when ownership drifts to them.
	targets := n.overlay.ReplicaCandidates(n.cfg.Replicas)
	removesRoot := (r.Op.Kind == FSRmdir || r.Op.Kind == FSRemoveAll) && r.Op.Path == r.Track.Root
	removesLink := r.Op.Kind == FSRemove && r.Track.Link != ""
	if removesRoot || removesLink {
		targets = n.overlay.Leaf()
	}
	if len(targets) > 0 {
		// The request is the same for every replica: encode it once.
		mr := applyReq{Track: r.Track, Op: r.Op}
		frame := mr.frame(kMirror)
		var fanout simnet.Cost // the mirrors run in parallel
		for _, rep := range targets {
			c, _ := n.sendMirror(ctx, rep.Addr, frame)
			fanout = simnet.Par(fanout, c)
		}
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

// serveMirror executes a mutation at a replica (no fan-out).
func (n *Node) serveMirror(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	r := decodeApplyReq(d)
	if d.Err() != nil {
		return 0, d.Err()
	}
	// Replica copies live in the reserved replica area, outside the
	// primary namespace ("the replicas are inaccessible to the local
	// users", Section 4.2). A migration push addressed to this node as
	// the key's new primary lands in the primary namespace directly.
	if !r.Primary {
		r.Op.Path = RepPath(r.Op.Path)
		if r.Op.Path2 != "" {
			r.Op.Path2 = RepPath(r.Op.Path2)
		}
	}
	attr, cost, err := n.applyFSOp(r.Op, true)
	if err != nil {
		e.PutUint32(codeNFSBase + uint32(nfs.ToStatus(err)))
		putApplyReplyBody(e, localfs.Attr{}, nfs.Handle{}, 0)
		return cost, nil
	}
	n.rep.Track(r.Track, r.Op)
	e.PutUint32(codeOK)
	putApplyReplyBody(e, attr, nfs.Handle{Gen: n.nsrvGen(), Ino: attr.Ino}, 0)
	return cost, nil
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

// serveUntrack drops root-tracking metadata for a removed subtree.
func (n *Node) serveUntrack(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	root := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	n.rep.Untrack(root)
	e.PutUint32(codeOK)
	return 0, nil
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
	reps := n.overlay.ReplicaCandidates(n.cfg.Replicas)
	e.PutUint32(codeOK)
	e.PutUint32(uint32(len(reps)))
	for _, rep := range reps {
		e.PutString(string(rep.Addr))
	}
	return 0, nil
}

// servePromote surfaces a replica-area copy at the new primary.
func (n *Node) servePromote(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	t := getTrack(d)
	if d.Err() != nil {
		return 0, d.Err()
	}
	key := Key(t.PN)
	isRoot, cost := n.overlay.EnsureRootFor(key)
	if !isRoot {
		e.PutUint32(codeNotPrimary)
		return cost, nil
	}
	c, changed := n.rep.AdoptRoot(ctx, t)
	cost = simnet.Seq(cost, c)
	e.PutUint32(codeOK)
	e.PutBool(changed)
	return simnet.Seq(cost, simnet.Disk7200.OpCost(0)), nil
}

// serveChunkManifest answers a CHUNK_MANIFEST negotiation: the chunk
// manifest of the local regular file at phys (computing it also indexes the
// file's blocks, so a stale local copy of the very file being negotiated
// yields HAVE answers for its unchanged chunks) plus HAVE bits for the
// caller's WANT list.
func (n *Node) serveChunkManifest(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	phys := d.String()
	want := cas.GetHashes(d)
	if d.Err() != nil {
		return 0, d.Err()
	}
	man, exists := n.rep.ManifestLocal(phys)
	have := n.rep.HaveBlocks(want)
	e.PutUint32(codeOK)
	e.PutBool(exists)
	cas.PutManifest(e, man)
	cas.PutBools(e, have)
	return simnet.Disk7200.OpCost(len(man)*36 + len(want)*32), nil
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

func putApplyReplyBody(e *wire.Encoder, attr localfs.Attr, fh nfs.Handle, fanout int) {
	e.PutUint64(attr.Ino)
	e.PutUint32(uint32(attr.Type))
	e.PutUint32(attr.Mode)
	e.PutInt64(attr.Size)
	e.PutUint64(fh.Gen)
	e.PutUint64(fh.Ino)
	e.PutUint32(uint32(fanout)) // replica fan-out width, for trace records
}

func getApplyReplyBody(d *wire.Decoder) (localfs.Attr, nfs.Handle, int) {
	var attr localfs.Attr
	attr.Ino = d.Uint64()
	attr.Type = localfs.FileType(d.Uint32())
	attr.Mode = d.Uint32()
	attr.Size = d.Int64()
	var fh nfs.Handle
	fh.Gen = d.Uint64()
	fh.Ino = d.Uint64()
	return attr, fh, int(d.Uint32())
}
