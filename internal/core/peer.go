package core

import (
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

// engineOverlay adapts the node's Pastry instance to repl.Overlay. It reads
// n.overlay at call time because Revive replaces the overlay object.
type engineOverlay struct{ n *Node }

func (o engineOverlay) EnsureRootFor(key id.ID) (bool, simnet.Cost) {
	return o.n.overlay.EnsureRootFor(key)
}

func (o engineOverlay) ReplicaCandidates(k int) []pastry.NodeInfo {
	return o.n.overlay.ReplicaCandidates(k)
}

func (o engineOverlay) Route(key id.ID) (pastry.RouteResult, error) {
	return o.n.overlay.Route(key)
}

// enginePeer adapts the node's kosha-service and NFS clients to repl.Peer.
type enginePeer struct{ n *Node }

// Mirror ships a mutation to another node; primary selects the namespace it
// lands in.
func (p enginePeer) Mirror(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	r := applyReq{Track: t, Op: op, Primary: primary}
	_, cost, err := p.n.koshaCall(tc, to, r.request(kMirror))
	return cost, err
}

// Pull asks to to make its copy of t's hierarchy hold what this node's copy
// at src holds (kPull); to fetches what it lacks from here.
func (p enginePeer) Pull(tc obs.TraceContext, to simnet.Addr, t Track, src string, primary bool) (simnet.Cost, error) {
	x := wire.GetCodec()
	e := &x.E
	e.PutUint32(kPull)
	putTrack(e, t)
	e.PutString(src)
	e.PutBool(primary)
	_, cost, err := p.n.koshaCall(tc, to, x)
	return cost, err
}

func (p enginePeer) Promote(tc obs.TraceContext, to simnet.Addr, t Track) (bool, simnet.Cost, error) {
	return p.n.promote(tc, to, t)
}

func (p enginePeer) DigestTree(tc obs.TraceContext, to simnet.Addr, root string, hash bool) (TreeDigest, simnet.Cost, error) {
	return p.n.remoteDigestTree(tc, to, root, hash)
}

// DirDigests lists the immediate children of a remote directory with their
// subtree digests (DIR_DIGESTS); ok is false when the directory is missing.
func (p enginePeer) DirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	d, cost, err := p.n.koshaPathCall(tc, to, kDirDigests, dir)
	if err != nil {
		return nil, false, cost, err
	}
	ok := d.Bool()
	ents := merkle.GetEntries(&d)
	return ents, ok, cost, d.Err()
}

func (p enginePeer) ReadLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	return p.n.readLink(tc, to, phys)
}

// ChunkManifest fetches the chunk manifest and the mode of a remote regular
// file (CHUNK_MANIFEST).
func (p enginePeer) ChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string) (cas.Manifest, uint32, bool, simnet.Cost, error) {
	d, cost, err := p.n.koshaPathCall(tc, to, kChunkManifest, phys)
	if err != nil {
		return nil, 0, false, cost, err
	}
	exists := d.Bool()
	mode := d.Uint32()
	man := cas.GetManifest(&d)
	return man, mode, exists, cost, d.Err()
}

// ChunkFetch retrieves blocks by content hash (CHUNK_FETCH); blocks[i] is nil
// for hashes the remote could not serve. The engine verifies every returned
// block against its hash, so no verification happens here.
func (p enginePeer) ChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	x := wire.GetCodec()
	e := &x.E
	e.Grow(64 + len(hashes)*32)
	e.PutUint32(kChunkFetch)
	e.PutString(phys)
	cas.PutHashes(e, hashes)
	d, cost, err := p.n.koshaCall(tc, to, x)
	if err != nil {
		return nil, cost, err
	}
	cnt := d.ArrayLen()
	blocks := make([][]byte, 0, cnt)
	for i := 0; i < cnt; i++ {
		if d.Bool() {
			blocks = append(blocks, d.Opaque())
		} else {
			blocks = append(blocks, nil)
		}
	}
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	return blocks, cost, nil
}

var _ repl.Peer = enginePeer{}
var _ repl.Overlay = engineOverlay{}

// --- kosha service (client side) ---

// koshaCall sends the kosha-service request encoded in x, frees x once the
// call has returned (the reply is a buffer of its own, never the request's),
// and returns a decoder positioned after the reply's OK code. Anything else
// is the error: the transport's (noted against the node), a reply too short
// to carry a code, ErrNotPrimary, or the NFS status the code stands for.
func (n *Node) koshaCall(tc obs.TraceContext, to simnet.Addr, x *wire.Codec) (wire.Decoder, simnet.Cost, error) {
	d, cost, err := n.koshaSend(tc, to, x.E.Frame())
	x.Free()
	return d, cost, err
}

// koshaSend is koshaCall for a request frame its caller frees, so one frame
// can go to several nodes: the mirror fan-out's.
func (n *Node) koshaSend(tc obs.TraceContext, to simnet.Addr, req wire.Frame) (wire.Decoder, simnet.Cost, error) {
	resp, cost, err := n.callKosha(tc, to, req)
	if err != nil {
		return wire.Decoder{}, cost, n.noteErr(to, err)
	}
	d := *wire.NewDecoder(resp)
	code := d.Uint32()
	if d.Err() != nil {
		return d, cost, d.Err()
	}
	return d, cost, codeToError(code)
}

// koshaPathCall is koshaCall for the procedures whose request is one path.
func (n *Node) koshaPathCall(tc obs.TraceContext, to simnet.Addr, proc uint32, phys string) (wire.Decoder, simnet.Cost, error) {
	x := wire.GetCodec()
	e := &x.E
	e.PutUint32(proc)
	e.PutString(phys)
	return n.koshaCall(tc, to, x)
}

// apply sends a mutation to the primary that at addresses. A non-nil trace
// records the serving node, the replica fan-out width, and an apply span.
func (n *Node) apply(tr *obs.Trace, at site, op FSOp) (localfs.Attr, nfs.Handle, simnet.Cost, error) {
	return n.applyAt(tr, at, op, physRef{}, physRef{})
}

// applyAt is apply for an op whose paths are path and path2, in parts: the
// request encodes them where the op's Path and Path2 go (applyReq). A zero
// one stands for the op's own string.
func (n *Node) applyAt(tr *obs.Trace, at site, op FSOp, path, path2 physRef) (localfs.Attr, nfs.Handle, simnet.Cost, error) {
	r := applyReq{Key: at.key, Track: at.track, Op: op, at: path, at2: path2}
	d, cost, err := n.koshaCall(tr.Ctx(), at.node, r.request(kApply))
	if err != nil {
		return localfs.Attr{}, nfs.Handle{}, cost, err
	}
	attr, fh, fanout := getApplyReplyBody(&d)
	if d.Err() != nil {
		return localfs.Attr{}, nfs.Handle{}, cost, d.Err()
	}
	tr.AddSpan("apply", string(at.node), time.Duration(cost))
	tr.SetServedBy(string(at.node))
	if fanout > 0 {
		tr.SetReplicas(fanout)
	}
	return attr, fh, cost, nil
}

// remoteDigestTree asks another node what it holds at root (TREE_DIGEST);
// the reply carries the Merkle root digest when hash asked for it and the
// root exists.
func (n *Node) remoteDigestTree(tc obs.TraceContext, to simnet.Addr, root string, hash bool) (TreeDigest, simnet.Cost, error) {
	x := wire.GetCodec()
	e := &x.E
	e.PutUint32(kTreeDigest)
	e.PutString(root)
	e.PutBool(hash)
	d, cost, err := n.koshaCall(tc, to, x)
	if err != nil {
		return TreeDigest{}, cost, err
	}
	td := TreeDigest{Exists: d.Bool(), Flag: d.Bool(), Ver: d.Uint64()}
	if td.Exists && hash {
		td.Root = merkle.GetDigest(&d)
	}
	return td, cost, d.Err()
}

// replicaSet asks the primary for its current replica holders of a key,
// caching the answer per subtree root. The cache is dropped whenever the
// node's view of membership changes.
func (n *Node) replicaSet(tc obs.TraceContext, primary simnet.Addr, key id.ID, root string) ([]simnet.Addr, simnet.Cost, error) {
	n.mu.Lock()
	reps, ok := n.replicaCache[root]
	n.mu.Unlock()
	if ok {
		return reps, 0, nil
	}
	reps, cost, err := n.askReplicas(tc, primary, key)
	if err == nil {
		n.mu.Lock()
		n.replicaCache[root] = reps
		n.mu.Unlock()
	}
	return reps, cost, err
}

// askReplicas is the exchange under replicaSet, replicasCall with the holder
// list decoded.
func (n *Node) askReplicas(tc obs.TraceContext, primary simnet.Addr, key id.ID) ([]simnet.Addr, simnet.Cost, error) {
	d, cost, err := n.replicasCall(tc, primary, key)
	if err != nil {
		return nil, cost, err
	}
	cnt := d.ArrayLen()
	reps := make([]simnet.Addr, 0, cnt)
	for i := 0; i < cnt; i++ {
		reps = append(reps, simnet.Addr(d.String()))
	}
	return reps, cost, d.Err()
}

// replicasCall sends kReplicas for key to primary and returns the reply
// after its code. Only key's current owner answers, the rest say
// ErrNotPrimary: readdir's check of a long-held handle reads that verdict
// alone and leaves the holder list undecoded.
func (n *Node) replicasCall(tc obs.TraceContext, primary simnet.Addr, key id.ID) (wire.Decoder, simnet.Cost, error) {
	x := wire.GetCodec()
	e := &x.E
	e.PutUint32(kReplicas)
	e.PutFixedOpaque(key[:])
	return n.koshaCall(tc, primary, x)
}

// withRootHandle runs fn with the root handle of a node's export, fetched
// once and cached. A node that crashed and rejoined re-incarnates its store
// under a new handle generation, so when fn meets ErrStale the cached handle
// is dropped and fn runs once more with a fresh one. The MNT, when one is
// needed, carries the caller's trace context like fn's own RPC does.
func (n *Node) withRootHandle(tc obs.TraceContext, to simnet.Addr, fn func(root nfs.Handle) (simnet.Cost, error)) (simnet.Cost, error) {
	var total simnet.Cost
	for attempt := 0; ; attempt++ {
		root, c, err := n.rootHandle(tc, to)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		c, err = fn(root)
		total = simnet.Seq(total, c)
		if attempt > 0 || !nfs.IsStatus(err, nfs.ErrStale) {
			return total, err
		}
		n.mu.Lock()
		delete(n.rootHandles, to)
		n.mu.Unlock()
	}
}

// remoteFSStat fetches FSSTAT from a node's export.
func (n *Node) remoteFSStat(tc obs.TraceContext, to simnet.Addr) (st nfs.FSStat, cost simnet.Cost, err error) {
	cost, err = n.withRootHandle(tc, to, func(root nfs.Handle) (c simnet.Cost, err error) {
		st, c, err = n.nfsCtx(tc).FSStat(to, root)
		return c, err
	})
	return st, cost, err
}

// rootHandle returns (and caches) the NFS root handle of a node's export.
func (n *Node) rootHandle(tc obs.TraceContext, to simnet.Addr) (nfs.Handle, simnet.Cost, error) {
	n.mu.Lock()
	h, ok := n.rootHandles[to]
	n.mu.Unlock()
	if ok {
		return h, 0, nil
	}
	h, cost, err := n.nfsCtx(tc).MountRoot(to)
	if err != nil {
		return nfs.Handle{}, cost, err
	}
	n.mu.Lock()
	n.rootHandles[to] = h
	n.mu.Unlock()
	return h, cost, nil
}

// promote asks target to move its replica-area copy to the primary path and
// run read-repair against the current replica set. The changed result
// reports whether the target's state moved — handles resolved before the
// call may then be stale and must be re-resolved.
func (n *Node) promote(tc obs.TraceContext, to simnet.Addr, t Track) (changed bool, cost simnet.Cost, err error) {
	x := wire.GetCodec()
	e := &x.E
	e.PutUint32(kPromote)
	putTrack(e, t)
	d, cost, err := n.koshaCall(tc, to, x)
	if err != nil {
		return false, cost, err
	}
	return d.Bool(), cost, nil
}
