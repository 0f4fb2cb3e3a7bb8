package repl

import (
	"path"
	"sync"
	"sync/atomic"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// Overlay is the engine's view of the p2p substrate: key ownership checks,
// the current replica candidates, and raw routing. The core node adapts its
// Pastry instance to this (re-reading it across Revive incarnations).
type Overlay interface {
	// EnsureRootFor actively verifies whether this node owns key (pinging
	// and purging a better candidate if it is dead).
	EnsureRootFor(key id.ID) (bool, simnet.Cost)
	// ReplicaCandidates returns the K leaf-set neighbors that should hold
	// replicas for this node's keys.
	ReplicaCandidates(k int) []pastry.NodeInfo
	// Route resolves the node currently owning key.
	Route(key id.ID) (pastry.RouteResult, error)
}

// Peer is the engine's view of other nodes: the RPCs replica maintenance is
// built from. File bytes move only as hash-verified blocks that the node
// lacking them fetches (ChunkManifest, ChunkFetch): a node that finds
// another's copy stale asks it to Pull, it never writes into it.
// Every method takes the caller's trace context first, so anti-entropy and
// migration traffic shows up as server spans on the remote side of the
// assembled cross-node trace (a zero context propagates nothing).
type Peer interface {
	// Mirror ships one mutation to another node; primary selects whether it
	// lands in the primary namespace or the replica area. Repair sends only
	// metadata this way: a deletion or a version re-stamp.
	Mirror(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error)
	// Promote asks to, as the new owner of t's key, to surface its
	// replica-area copy; reports whether remote state changed.
	Promote(tc obs.TraceContext, to simnet.Addr, t Track) (bool, simnet.Cost, error)
	// Pull asks to to make its copy of t's hierarchy (at t.Root when
	// primary, else in its replica area) hold what this node's copy at src
	// holds, at version t.Ver: to walks this node's copy and fetches what
	// it lacks from here (Engine.Pull), under its own MIGRATION_NOT_COMPLETE.
	Pull(tc obs.TraceContext, to simnet.Addr, t Track, src string, primary bool) (simnet.Cost, error)
	// DigestTree asks to what it holds at exactly root: existence, the
	// migration flag, its recorded version and, when hash is set, the
	// Merkle root digest. Callers that arbitrate on versions alone leave
	// hash unset, which spares the holder computing a digest its memo has
	// dropped since the last mutation — unless a pull may follow: digesting
	// indexes the holder's blocks, which its pull then reuses.
	DigestTree(tc obs.TraceContext, to simnet.Addr, root string, hash bool) (TreeDigest, simnet.Cost, error)
	// DirDigests lists the immediate children of a remote directory with
	// their subtree digests; ok is false when dir is missing or not a
	// directory.
	DirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error)
	// ReadLink reads a remote symlink target by physical path.
	ReadLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error)
	// ChunkManifest returns the chunk manifest and the mode of the remote
	// regular file at phys (CHUNK_MANIFEST); exists is false when phys is
	// missing or not a regular file. Computing it indexes the remote copy's
	// blocks.
	ChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string) (man cas.Manifest, mode uint32, exists bool, cost simnet.Cost, err error)
	// ChunkFetch retrieves blocks by content hash (CHUNK_FETCH); phys hints
	// at a file whose manifest covers the hashes so a holder that never
	// indexed it can do so on demand. blocks[i] is nil for hashes the remote
	// could not serve — callers verify every returned block against its hash.
	ChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) (blocks [][]byte, cost simnet.Cost, err error)
}

// Options configures an Engine.
type Options struct {
	Self     simnet.Addr        // this node's address (event attribution)
	Store    localfs.FileSystem // the contributed partition
	Overlay  Overlay
	Peer     Peer
	Replicas int                   // K
	Key      func(pn string) id.ID // placement-name hash
	Events   *obs.EventLog         // may be nil-safe consumers only if non-nil
	Registry *obs.Registry
	// Tracer, when set, gives replica-maintenance runs their own cluster-wide
	// trace ids: each Sync becomes a traced operation whose remote traffic
	// records server spans on the peers it touches. Nil disables (all engine
	// RPCs then carry the zero context).
	Tracer *obs.Tracer
}

// Engine tracks the replicated hierarchies this node holds and re-establishes
// the K-replica invariant after membership changes (Sections 4.2-4.4). All
// methods are safe for concurrent use; Sync is additionally self-excluding
// (overlapping calls collapse to one).
type Engine struct {
	self     simnet.Addr
	store    localfs.FileSystem
	ov       Overlay
	peer     Peer
	replicas int
	key      func(pn string) id.ID
	events   *obs.EventLog
	reg      *obs.Registry
	tracer   *obs.Tracer
	mk       *merkle.Cache // subtree digests over store, mutation-invalidated
	cas      *cas.Store    // block index the merkle cache keeps in lockstep

	// Sync-traffic counters: files a pull rebuilt vs skipped by digest
	// match, and digest comparisons that hit vs missed.
	syncSent     *obs.Counter
	syncSkipped  *obs.Counter
	digestHits   *obs.Counter
	digestMisses *obs.Counter
	// Repair counters: blocks a pull or a scrub repair obtained over
	// CHUNK_FETCH and their bytes — every file byte a repair moves, counted
	// once, by the node that fetched it.
	blocksFetched *obs.Counter
	fetchBytes    *obs.Counter

	mu        sync.Mutex
	tracked   map[string]Track // physical subtree root -> metadata (PN, version)
	pulling   map[string]bool  // local copy roots a pull is editing
	fetchHook func(holder simnet.Addr, blocks int)

	syncing atomic.Bool
	syncs   atomic.Uint32 // Syncs run since the engine was built or Reset
}

// New builds an engine with empty tracking state.
func New(o Options) *Engine {
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	blocks := cas.NewStore(o.Store, o.Registry)
	return &Engine{
		self:          o.Self,
		store:         o.Store,
		ov:            o.Overlay,
		peer:          o.Peer,
		replicas:      o.Replicas,
		key:           o.Key,
		events:        o.Events,
		reg:           o.Registry,
		tracer:        o.Tracer,
		mk:            merkle.NewCacheWithStore(o.Store, blocks),
		cas:           blocks,
		syncSent:      o.Registry.Counter("repl.sync.files.sent"),
		syncSkipped:   o.Registry.Counter("repl.sync.files.skipped"),
		digestHits:    o.Registry.Counter("repl.sync.digest.hits"),
		digestMisses:  o.Registry.Counter("repl.sync.digest.misses"),
		blocksFetched: o.Registry.Counter("repl.cas.blocks.fetched"),
		fetchBytes:    o.Registry.Counter("repl.fetch.bytes"),
		tracked:       make(map[string]Track),
		pulling:       make(map[string]bool),
	}
}

// Reset discards all tracking state (node revival purges all Kosha data,
// Section 4.3.2).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.tracked = make(map[string]Track)
	e.mu.Unlock()
	e.cas.Reset()
	e.syncs.Store(0)
}

// IsDead reports whether this node's record for a root is a tombstone.
func (e *Engine) IsDead(root string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tracked[root]
	return ok && t.Dead
}

// VerOf returns this node's recorded mutation counter for a root.
func (e *Engine) VerOf(root string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracked[root].Ver
}

// TrackNames makes the names of a Track out of a frame's PN and Root bytes:
// each is the string of this node's record for that root when the two are
// equal, and a copy of the bytes only otherwise. A mutation of a hierarchy
// the node already tracks allocates neither; a new or changed one gets fresh
// strings. The bytes may be borrowed: nothing keeps them.
func (e *Engine) TrackNames(pn, root []byte) Track {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec := e.tracked[string(root)]
	return Track{PN: same(rec.PN, pn), Root: same(rec.Root, root)}
}

// same is s when b spells it, else a copy of b.
func same(s string, b []byte) string {
	if s == string(b) {
		return s
	}
	return string(b)
}

// Stamp assigns the next mutation counter value for the op being applied at
// the primary; Track records it afterwards together with the op's liveness.
// A storage-root rename continues the old root's version chain.
func (e *Engine) Stamp(t Track, op FSOp) Track {
	e.mu.Lock()
	defer e.mu.Unlock()
	if op.Kind == FSRename && op.Path2 == t.Root {
		t.Ver = e.tracked[op.Path].Ver + 1
		return t
	}
	if t.Root == "" {
		t.Ver = 0
		return t
	}
	t.Ver = e.tracked[t.Root].Ver + 1
	return t
}

// Track records subtree ownership metadata shipped with a mutation: one
// record per root, a level-1 link's included (see Track).
func (e *Engine) Track(t Track, op FSOp) {
	if t.PN == "" || t.Root == "" {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// A storage-root rename (the cheap-rename path) rekeys the entry,
	// carrying the version chain to the new root.
	if op.Kind == FSRename && (op.Path2 == t.Root || IsRepPath(op.Path2, t.Root)) {
		old := PrimaryRoot(op.Path)
		if cur, ok := e.tracked[old]; ok {
			if cur.Ver > t.Ver {
				t.Ver = cur.Ver
			}
			delete(e.tracked, old)
		}
		e.tracked[t.Root] = t
		return
	}
	// A removal of the root becomes a tombstone: the entry stays with a
	// bumped version so a node holding a stale copy can learn that deletion
	// is the newer state, and a later re-creation continues the version
	// chain above the tombstone.
	t.Dead = t.RemovedBy(op)
	// Last writer wins: the copy now reflects the sender's version, so the
	// record does too (a full re-pull may legitimately lower it).
	e.tracked[t.Root] = t
}

// PruneUp removes empty scaffolding directories above a deleted entry,
// stopping at tracked subtree roots and the store root (Section 4.1.5: "The
// empty hierarchy leading to the subdirectory is then deleted").
func (e *Engine) PruneUp(dir string) {
	for dir != "/" && dir != "." {
		e.mu.Lock()
		_, isTracked := e.tracked[dir]
		e.mu.Unlock()
		if isTracked {
			return
		}
		attr, err := e.store.LookupPath(dir)
		if err != nil || attr.Type != localfs.TypeDir {
			return
		}
		ents, _, err := e.store.Readdir(attr.Ino)
		if err != nil || len(ents) > 0 {
			return
		}
		parent := path.Dir(dir)
		pattr, err := e.store.LookupPath(parent)
		if err != nil {
			return
		}
		if _, err := e.store.Rmdir(pattr.Ino, path.Base(dir)); err != nil {
			return
		}
		dir = parent
	}
}

// StatLocal sizes the local subtree stored at exactly this path: one walk,
// for the rebalancer's victim choice only.
func (e *Engine) StatLocal(root string) TreeStat {
	var st TreeStat
	if _, err := e.store.LookupPath(root); err != nil {
		return st
	}
	st.Exists = true
	flagPath := path.Join(root, MigrationFlag)
	e.store.Walk(root, func(p string, a localfs.Attr, _ string) error {
		// Only the root-level sentinel is protocol state; a user file that
		// happens to share the name deeper in the tree is ordinary data.
		if p == flagPath {
			st.Flag = true
		} else if a.Type != localfs.TypeDir {
			st.Bytes += a.Size
		}
		return nil
	})
	return st
}

// DigestLocal summarizes the local subtree stored at exactly this path:
// existence, the migration flag and, when hash is set, its Merkle root
// digest. Ver is left zero; the RPC layer stamps the holder's recorded
// mutation counter (the engine's VerOf) on the way out.
func (e *Engine) DigestLocal(root string, hash bool) TreeDigest {
	var td TreeDigest
	if _, err := e.store.LookupPath(root); err != nil {
		return td
	}
	td.Exists = true
	if _, err := e.store.LookupPath(path.Join(root, MigrationFlag)); err == nil {
		td.Flag = true
	}
	if hash {
		// A subtree that cannot be digested answers the zero digest, which
		// no settled copy matches.
		td.Root, _ = e.mk.DigestOf(root)
	}
	return td
}

// DirDigestsLocal lists the immediate children of a local directory with
// their subtree digests; ok is false when dir is missing or not a directory.
func (e *Engine) DirDigestsLocal(dir string) ([]merkle.Entry, bool, error) {
	return e.mk.Entries(dir)
}

// LocalTreePath locates this node's copy of a subtree: at the primary path
// when it owns the key, otherwise in the replica area.
func (e *Engine) LocalTreePath(root string) (string, bool) {
	if _, err := e.store.LookupPath(root); err == nil {
		return root, true
	}
	if _, err := e.store.LookupPath(RepPath(root)); err == nil {
		return RepPath(root), true
	}
	return "", false
}

// PromoteLocal moves a replica-area copy of a subtree (or of the special
// link at a level-1 root) to its primary path. Call only after confirming
// ownership of the key; it is a no-op when the primary path already exists
// or no replica copy is held. The record keeps its version: a promote moves
// no content, so it does not restart the chain. Reports whether it surfaced
// anything.
func (e *Engine) PromoteLocal(t Track) bool {
	if t.Root == "" {
		return false
	}
	e.mu.Lock()
	meta, ok := e.tracked[t.Root]
	e.mu.Unlock()
	if ok && meta.Dead {
		// We saw the hierarchy's deletion: nothing to surface, and any
		// leftover replica-area data is stale.
		e.store.RemoveAll(RepPath(t.Root))
		return false
	}
	if _, err := e.store.LookupPath(t.Root); err == nil {
		return false
	}
	if !e.moveTree(RepPath(t.Root), t.Root) {
		return false
	}
	t.Ver = max(t.Ver, meta.Ver)
	e.Track(t, FSOp{Kind: FSMkdirAll, Path: t.Root})
	return true
}

// moveTree renames the subtree or link at src to dst, creating dst's parent
// directories and pruning the scaffolding src leaves empty. It reports
// whether the move happened; false when src does not exist.
func (e *Engine) moveTree(src, dst string) bool {
	if _, err := e.store.LookupPath(src); err != nil {
		return false
	}
	if _, err := e.store.MkdirAll(path.Dir(dst)); err != nil {
		return false
	}
	spar, err := e.store.LookupPath(path.Dir(src))
	if err != nil {
		return false
	}
	dpar, err := e.store.LookupPath(path.Dir(dst))
	if err != nil {
		return false
	}
	if _, err := e.store.Rename(spar.Ino, path.Base(src), dpar.Ino, path.Base(dst)); err != nil {
		return false
	}
	e.PruneUp(path.Dir(src))
	return true
}

// DemoteLocal moves this node's primary-path copy of a subtree (or link)
// back into the replica area, after ownership of the key moved elsewhere.
// Without this, a stale primary-path leftover would shadow the fresher
// replica-area copy the next time ownership returns here ("their copy on N
// becomes one of the replicas", Section 4.3.1).
func (e *Engine) DemoteLocal(t Track) {
	if t.Root == "" || t.Root == "/" {
		return
	}
	if _, err := e.store.LookupPath(t.Root); err != nil {
		return
	}
	e.store.RemoveAll(RepPath(t.Root))
	e.moveTree(t.Root, RepPath(t.Root))
}
