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

func (p enginePeer) Mirror(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	return p.n.mirrorArea(tc, to, t, op, primary)
}

func (p enginePeer) Promote(tc obs.TraceContext, to simnet.Addr, t Track) (bool, simnet.Cost, error) {
	return p.n.promote(tc, to, t)
}

func (p enginePeer) DigestTree(tc obs.TraceContext, to simnet.Addr, root string, hash bool) (TreeDigest, simnet.Cost, error) {
	return p.n.remoteDigestTree(tc, to, root, hash)
}

func (p enginePeer) DirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	return p.n.remoteDirDigests(tc, to, dir)
}

func (p enginePeer) ReadLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	return p.n.readLink(tc, to, phys)
}

func (p enginePeer) ChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	return p.n.remoteChunkManifest(tc, to, phys, want)
}

func (p enginePeer) ChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	return p.n.remoteChunkFetch(tc, to, phys, hashes)
}

var _ repl.Peer = enginePeer{}
var _ repl.Overlay = engineOverlay{}

// --- kosha service (client side) ---

// koshaCall sends one kosha-service request and returns a decoder positioned
// after the reply's OK code. Anything else is the error: the transport's
// (noted against the node), a reply too short to carry a code, ErrNotPrimary,
// or the NFS status the code stands for.
func (n *Node) koshaCall(tc obs.TraceContext, to simnet.Addr, req []byte) (wire.Decoder, simnet.Cost, error) {
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
	e := wire.NewEncoder(64)
	e.PutUint32(proc)
	e.PutString(phys)
	return n.koshaCall(tc, to, e.Bytes())
}

// apply sends a mutation to the primary that at addresses. A non-nil trace
// records the serving node, the replica fan-out width, and an apply span.
func (n *Node) apply(tr *obs.Trace, at site, op FSOp) (localfs.Attr, nfs.Handle, simnet.Cost, error) {
	r := applyReq{Key: at.key, Track: at.track, Op: op}
	d, cost, err := n.koshaCall(tr.Ctx(), at.node, r.frame(kApply))
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

// mirrorArea ships a mutation to another node; primary selects the
// namespace it lands in.
func (n *Node) mirrorArea(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	r := applyReq{Track: t, Op: op, Primary: primary}
	return n.sendMirror(tc, to, r.frame(kMirror))
}

// sendMirror ships an encoded kMirror request to one node. A request is
// immutable once sent, so a fan-out sends one frame to every target.
func (n *Node) sendMirror(tc obs.TraceContext, to simnet.Addr, frame []byte) (simnet.Cost, error) {
	_, cost, err := n.koshaCall(tc, to, frame)
	return cost, err
}

// remoteDigestTree asks another node what it holds at root (TREE_DIGEST);
// the reply carries the Merkle root digest when hash asked for it and the
// root exists.
func (n *Node) remoteDigestTree(tc obs.TraceContext, to simnet.Addr, root string, hash bool) (TreeDigest, simnet.Cost, error) {
	e := wire.NewEncoder(64)
	e.PutUint32(kTreeDigest)
	e.PutString(root)
	e.PutBool(hash)
	d, cost, err := n.koshaCall(tc, to, e.Bytes())
	if err != nil {
		return TreeDigest{}, cost, err
	}
	td := TreeDigest{Exists: d.Bool(), Flag: d.Bool(), Ver: d.Uint64()}
	if td.Exists && hash {
		td.Root = merkle.GetDigest(&d)
	}
	return td, cost, d.Err()
}

// remoteDirDigests lists the immediate children of a remote directory with
// their subtree digests; ok is false when the directory is missing.
func (n *Node) remoteDirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	d, cost, err := n.koshaPathCall(tc, to, kDirDigests, dir)
	if err != nil {
		return nil, false, cost, err
	}
	ok := d.Bool()
	ents := merkle.GetEntries(&d)
	return ents, ok, cost, d.Err()
}

// remoteChunkManifest fetches the chunk manifest of a remote regular file
// plus the remote block index's HAVE bits for a WANT list (CHUNK_MANIFEST).
// A short or missing HAVE reply is normalized to all-false: negotiation is
// an optimization, so "don't know" must read as "ship it".
func (n *Node) remoteChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	e := wire.NewEncoder(64 + len(want)*32)
	e.PutUint32(kChunkManifest)
	e.PutString(phys)
	cas.PutHashes(e, want)
	d, cost, err := n.koshaCall(tc, to, e.Bytes())
	if err != nil {
		return nil, false, nil, cost, err
	}
	exists := d.Bool()
	man := cas.GetManifest(&d)
	have := cas.GetBools(&d)
	if d.Err() != nil {
		return nil, false, nil, cost, d.Err()
	}
	if len(have) != len(want) {
		have = make([]bool, len(want))
	}
	return man, exists, have, cost, nil
}

// remoteChunkFetch retrieves blocks by content hash (CHUNK_FETCH); blocks[i]
// is nil for hashes the remote could not serve. The engine verifies every
// returned block against its hash, so no verification happens here.
func (n *Node) remoteChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	e := wire.NewEncoder(64 + len(hashes)*32)
	e.PutUint32(kChunkFetch)
	e.PutString(phys)
	cas.PutHashes(e, hashes)
	d, cost, err := n.koshaCall(tc, to, e.Bytes())
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

// askReplicas is the exchange under replicaSet. Only key's current owner
// answers, the rest say ErrNotPrimary: readdir's check of a long-held handle.
func (n *Node) askReplicas(tc obs.TraceContext, primary simnet.Addr, key id.ID) ([]simnet.Addr, simnet.Cost, error) {
	e := wire.NewEncoder(32)
	e.PutUint32(kReplicas)
	e.PutFixedOpaque(key[:])
	d, cost, err := n.koshaCall(tc, primary, e.Bytes())
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
	e := wire.NewEncoder(128)
	e.PutUint32(kPromote)
	putTrack(e, t)
	d, cost, err := n.koshaCall(tc, to, e.Bytes())
	if err != nil {
		return false, cost, err
	}
	return d.Bool(), cost, nil
}
