package core

import (
	"errors"
	"fmt"
	"path"
	"sync"
	"sync/atomic"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// VH is a virtual file handle: the identifier koshad hands the local NFS
// client in place of a real handle (Section 4.1.2). The indirection lets
// koshad transparently rebind a handle to a replica when the primary fails.
type VH uint64

// RootVH is the virtual handle of the mount root (/kosha).
const RootVH VH = 1

// rootAttr is what the mount root reports, not its name index's attributes.
var rootAttr = localfs.Attr{Ino: 1, Type: localfs.TypeDir, Mode: 0o755, Nlink: 2}

// ventry is one row of the virtual-handle table: virtual handle → full
// path, storage node, and real handle (Section 4.1.2 stores exactly this),
// plus the replicated hierarchy the path sits in — its placement name and
// storage root, which every apply is addressed by (site). Rows are immutable
// once published in the table; rebinding installs a fresh row (see vtable).
type ventry struct {
	vpath    string
	kind     localfs.FileType
	node     simnet.Addr
	fh       nfs.Handle
	physPath string
	pn       string // controlling placement name
	root     string // physical subtree root of the replicated hierarchy
	cached   bool   // served from the name cache, not a fresh resolution
}

// isRoot reports whether the row is the mount root's: the one directory whose
// children are placed by their own names, not stored beside its handle.
func (de *ventry) isRoot() bool { return de.vpath == "/" }

// child is the row for name in the directory de, as a reply from de's node
// described it: same node, placement name and storage root.
func (de *ventry) child(name string, kind localfs.FileType, fh nfs.Handle) ventry {
	return ventry{
		vpath:    path.Join(de.vpath, name),
		kind:     kind,
		node:     de.node,
		fh:       fh,
		physPath: path.Join(de.physPath, name),
		pn:       de.pn,
		root:     de.root,
	}
}

// site is what an apply is addressed by: the node it is sent to, the key that
// node must own to accept it, and the track it stamps.
type site struct {
	node  simnet.Addr
	key   id.ID
	track Track
}

// track names the replicated hierarchy the row sits in.
func (de *ventry) track() Track { return Track{PN: de.pn, Root: de.root} }

// site addresses an apply to the primary of the row's hierarchy.
func (de *ventry) site() site { return site{de.node, Key(de.pn), de.track()} }

// DirEntry is one row of a virtual directory listing.
type DirEntry struct {
	Name string
	Type localfs.FileType
}

// Mount is the client view of the Kosha file system through one node's
// koshad, corresponding to the virtual mount point /kosha (Figure 1). All
// operations return the simulated cost including the interposition constant
// I, overlay lookups, and forwarded NFS RPCs. A Mount is safe for concurrent
// use by multiple goroutines; its hot-path state — the virtual-handle table
// and the metadata caches — is sharded so operations on different files do
// not serialize on a global mutex (see vtable and metaCache).
type Mount struct {
	n *Node

	vt vtable // sharded virtual-handle table

	rr        atomic.Uint64 // round-robin cursor for replica reads
	readsFrom sync.Map      // simnet.Addr → *atomic.Int64 read counters

	// Streaming state (readahead windows, write-back buffers), keyed by
	// virtual handle. Populated only when Config enables streaming, so the
	// default write-through/stop-and-wait paths pay one empty-map lookup at
	// most.
	smu     sync.Mutex
	streams map[VH]*stream

	meta metaCache // client-side attribute and name cache, one row per path
}

// NewMount attaches a client to the node's koshad. The root row starts
// unbound — a mount may exist before its node has joined — and binds to the
// root directory's name index on first use (see failover).
func (n *Node) NewMount() *Mount {
	m := &Mount{
		n:       n,
		streams: make(map[VH]*stream),
	}
	m.meta.init(n.cfg.AttrCacheTTL, n.cfg.NameCacheTTL)
	m.vt.init(&ventry{vpath: "/", kind: localfs.TypeDir})
	return m
}

// childChanged is the write-through invalidation every mutation of one name
// in the directory de makes: whatever is cached at or below the name, and the
// directory's own row (its attributes changed).
func (m *Mount) childChanged(de *ventry, name string) {
	m.meta.dropUnder(path.Join(de.vpath, name))
	m.meta.drop(de.vpath)
}

// Root returns the mount's root virtual handle.
func (m *Mount) Root() VH { return RootVH }

// ErrBadHandle is returned for unknown virtual handles.
var ErrBadHandle = errors.New("kosha: unknown virtual handle")

func (m *Mount) entry(vh VH) (*ventry, error) { return m.vt.get(vh) }

func (m *Mount) insert(de *ventry) VH { return m.vt.insert(de) }

func (m *Mount) replace(vh VH, de *ventry) { m.vt.set(vh, de) }

// forget drops a virtual handle (e.g. after unlink). The root handle is
// permanent. Dirty write-back data is flushed best-effort first — internal
// helpers (WriteFile) drop handles on return and must not lose buffered
// bytes; Close is the path where flush errors surface.
func (m *Mount) forget(vh VH) {
	if vh == RootVH {
		return
	}
	if m.n.cfg.WriteBackBytes > 0 {
		m.flushVH(nil, vh) //nolint:errcheck // best-effort; Close reports
	}
	m.cancelStream(vh)
	m.vt.delete(vh)
}

// Forget releases a virtual handle the client no longer references,
// mirroring the kernel's FORGET upcall; without it long-lived mounts would
// pin every handle ever issued. The root handle is permanent.
func (m *Mount) Forget(vh VH) { m.forget(vh) }

// Lookup resolves name within the directory dir, returning a new virtual
// handle (Section 4.1.3). Below the distribution level the parent's real
// handle answers with a single forwarded LOOKUP; at distributed levels the
// resolver (hash + route + special links) locates the child's node.
func (m *Mount) Lookup(dir VH, name string) (VH, localfs.Attr, simnet.Cost, error) {
	o := m.beginAt(obs.OpcLookup, dir, name)
	vh, attr, cost, err := m.lookup(o.tr, dir, name)
	o.done(cost, err)
	return vh, attr, cost, err
}

func (m *Mount) lookup(tr *obs.Trace, dir VH, name string) (VH, localfs.Attr, simnet.Cost, error) {
	de, err := m.entry(dir)
	if err != nil {
		return 0, localfs.Attr{}, InterposeCost, err
	}
	if de.kind != localfs.TypeDir {
		return 0, localfs.Attr{}, InterposeCost, &nfs.Error{Proc: nfs.ProcLookup, Status: nfs.ErrNotDir}
	}
	if !m.distributedAt(de) {
		// Name-cache hit: the child was resolved (or pre-warmed by
		// READDIRPLUS) within the TTL; no network at all. The entry must
		// belong to the same hierarchy incarnation as the parent handle in
		// use — re-created directories get fresh storage roots, so a root
		// mismatch exposes entries cached before the re-creation. A stale
		// hit that slips through self-heals: handle ops return
		// NFS3ERR_STALE and path ops NFS3ERR_NOENT, both of which the
		// failover path retries against a fresh resolution.
		if r, ok := m.meta.get(path.Join(de.vpath, name), true); ok &&
			r.ve.node == de.node && r.ve.root == de.root {
			ve := r.ve // the published row is the child's alone, not the cache's
			ve.cached = true
			return m.insert(&ve), r.attr, InterposeCost, nil
		}
		var out VH
		var attr localfs.Attr
		cost, err := m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
			fh, a, c, err := m.n.nfsT(tr).Lookup(de.node, de.fh, name)
			if err != nil {
				return c, err
			}
			attr = a
			ve := de.child(name, a.Type, fh)
			m.meta.put(ve.vpath, a, &ve)
			out = m.insert(&ve)
			return c, nil
		})
		return out, attr, cost, err
	}

	total := InterposeCost
	child, w, cost, err := m.materializeRetry(tr, path.Join(de.vpath, name), 0)
	total = simnet.Seq(total, cost)
	if err != nil {
		return 0, localfs.Attr{}, total, err
	}
	return m.insert(child), w.Attr, total, nil
}

// Getattr fetches attributes for a virtual handle. Within the attribute
// cache's TTL a hit costs only the interposition constant — no RPC — just
// as the kernel NFS client's acregmin/acdirmin window the paper assumes.
func (m *Mount) Getattr(vh VH) (localfs.Attr, simnet.Cost, error) {
	o := m.begin(obs.OpcGetattr, m.vpathOf(vh))
	attr, cost, err := m.getattr(o.tr, vh)
	o.done(cost, err)
	return attr, cost, err
}

func (m *Mount) getattr(tr *obs.Trace, vh VH) (localfs.Attr, simnet.Cost, error) {
	if vh == RootVH {
		return rootAttr, InterposeCost, nil
	}
	if de, err := m.entry(vh); err == nil {
		if r, ok := m.meta.get(de.vpath, false); ok {
			return r.attr, InterposeCost, nil
		}
	}
	// The fetched attributes must reflect buffered write-back data (size,
	// mtime), so dirty spans land first.
	fcost, ferr := m.flushVH(tr, vh)
	if ferr != nil {
		return localfs.Attr{}, fcost, ferr
	}
	var attr localfs.Attr
	cost, err := m.withFailover(tr, vh, func(de *ventry) (simnet.Cost, error) {
		a, c, err := m.n.nfsT(tr).Getattr(de.node, de.fh)
		if err == nil {
			attr = a
			m.meta.put(de.vpath, a, nil)
		}
		return c, err
	})
	return attr, simnet.Seq(fcost, cost), err
}

// Setattr updates attributes through the primary, which mirrors to replicas.
func (m *Mount) Setattr(vh VH, sa localfs.SetAttr) (localfs.Attr, simnet.Cost, error) {
	o := m.begin(obs.OpcSetattr, m.vpathOf(vh))
	attr, cost, err := m.setattr(o.tr, vh, sa)
	o.done(cost, err)
	return attr, cost, err
}

func (m *Mount) setattr(tr *obs.Trace, vh VH, sa localfs.SetAttr) (localfs.Attr, simnet.Cost, error) {
	// Buffered writes precede the attribute change in program order.
	fcost, ferr := m.flushVH(tr, vh)
	if ferr != nil {
		return localfs.Attr{}, fcost, ferr
	}
	var attr localfs.Attr
	cost, err := m.withFailover(tr, vh, func(de *ventry) (simnet.Cost, error) {
		a, _, c, err := m.n.apply(tr, de.site(), FSOp{Kind: FSSetattr, Path: de.physPath, SetAttr: sa})
		if err == nil {
			attr = a
			m.meta.drop(de.vpath)
		}
		return c, err
	})
	return attr, simnet.Seq(fcost, cost), err
}

// Read returns up to count bytes of the file at offset. With
// Config.ReadFromReplicas enabled, reads rotate across the primary and its
// replica holders (the Section 4.2 optimization); any replica-side failure
// falls back to the primary path transparently.
func (m *Mount) Read(vh VH, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	o := m.begin(obs.OpcRead, m.vpathOf(vh))
	data, eof, cost, err := m.read(o.tr, vh, offset, count)
	o.done(cost, err)
	return data, eof, cost, err
}

func (m *Mount) read(tr *obs.Trace, vh VH, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	// Read-your-writes: this handle's buffered write-back data must land
	// before bytes are served back.
	fcost, ferr := m.flushVH(tr, vh)
	if ferr != nil {
		return nil, false, fcost, ferr
	}
	if m.n.cfg.ReadaheadChunks > 0 {
		data, eof, cost, err := m.readAhead(tr, vh, offset, count)
		return data, eof, simnet.Seq(fcost, cost), err
	}
	var data []byte
	var eof bool
	cost, err := m.withFailover(tr, vh, func(de *ventry) (c simnet.Cost, err error) {
		data, eof, c, err = m.readAt(tr, de, offset, count)
		return c, err
	})
	return data, eof, simnet.Seq(fcost, cost), err
}

// readAt is one stop-and-wait READ of the file behind de: from a rotating
// replica holder when replica reads are on and it is their turn, from the
// primary otherwise.
func (m *Mount) readAt(tr *obs.Trace, de *ventry, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	if m.n.cfg.ReadFromReplicas && m.n.cfg.Replicas > 0 && de.kind == localfs.TypeRegular {
		if d, e, c, ok := m.readViaReplica(tr, de, offset, count); ok {
			return d, e, c, nil
		}
	}
	d, e, c, err := m.n.nfsT(tr).Read(de.node, de.fh, offset, count)
	if err == nil {
		m.countRead(de.node)
		if de.node == m.n.addr {
			c = simnet.Seq(c, loopbackXfer(len(d)))
		}
	}
	return d, e, c, err
}

// readViaReplica attempts one read against a rotating replica holder;
// ok=false means the caller should use the primary.
func (m *Mount) readViaReplica(tr *obs.Trace, de *ventry, offset int64, count int) ([]byte, bool, simnet.Cost, bool) {
	reps, total, err := m.n.replicaSet(tr.Ctx(), de.node, Key(de.pn), de.root)
	if err != nil || len(reps) == 0 {
		return nil, false, total, false
	}
	idx := (m.rr.Add(1) - 1) % uint64(len(reps)+1)
	if idx == 0 {
		return nil, false, total, false // the primary's turn
	}
	rep := reps[idx-1]
	fh, _, c, err := m.n.remoteLookupPath(tr.Ctx(), rep, RepPath(de.physPath))
	total = simnet.Seq(total, c)
	if err != nil {
		return nil, false, total, false
	}
	d, e, c, err := m.n.nfsT(tr).Read(rep, fh, offset, count)
	total = simnet.Seq(total, c)
	if err != nil {
		return nil, false, total, false
	}
	m.countRead(rep)
	tr.SetServedBy(string(rep))
	if rep == m.n.addr {
		total = simnet.Seq(total, loopbackXfer(len(d)))
	}
	return d, e, total, true
}

// countRead bumps the per-node read counter. Lock-free on the steady path:
// concurrent reads against different (or the same) nodes no longer
// serialize on a mount-global mutex.
func (m *Mount) countRead(addr simnet.Addr) {
	c, ok := m.readsFrom.Load(addr)
	if !ok {
		c, _ = m.readsFrom.LoadOrStore(addr, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// ReadSpread reports how many reads this mount served from each node,
// for observability and the replica-read ablation. The returned map is a
// copy the caller owns.
func (m *Mount) ReadSpread() map[simnet.Addr]int64 {
	out := make(map[simnet.Addr]int64)
	m.readsFrom.Range(func(k, v any) bool {
		out[k.(simnet.Addr)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Write stores data at offset through the primary, which synchronously
// mirrors the write to the K replicas (Section 4.2).
func (m *Mount) Write(vh VH, offset int64, data []byte) (int, simnet.Cost, error) {
	o := m.begin(obs.OpcWrite, m.vpathOf(vh))
	n, cost, err := m.write(o.tr, vh, offset, data)
	o.done(cost, err)
	return n, cost, err
}

func (m *Mount) write(tr *obs.Trace, vh VH, offset int64, data []byte) (int, simnet.Cost, error) {
	if m.n.cfg.WriteBackBytes > 0 {
		if n, cost, handled, err := m.writeBuffered(tr, vh, offset, data); handled {
			return n, cost, err
		}
	}
	n := 0
	cost, err := m.withFailover(tr, vh, func(de *ventry) (simnet.Cost, error) {
		_, _, c, err := m.n.apply(tr, de.site(),
			FSOp{Kind: FSWrite, Path: de.physPath, Offset: offset, Data: data})
		if err == nil {
			n = len(data)
			m.meta.drop(de.vpath)
			if de.node == m.n.addr {
				c = simnet.Seq(c, loopbackXfer(len(data)))
			}
		}
		return c, err
	})
	return n, cost, err
}

// Create makes a regular file in dir (Section 4.1.4): the primary for the
// parent directory creates the primary replica and returns its handle.
func (m *Mount) Create(dir VH, name string, mode uint32, exclusive bool) (VH, localfs.Attr, simnet.Cost, error) {
	o := m.beginAt(obs.OpcCreate, dir, name)
	vh, attr, cost, err := m.create(o.tr, dir, name, mode, exclusive)
	o.done(cost, err)
	return vh, attr, cost, err
}

func (m *Mount) create(tr *obs.Trace, dir VH, name string, mode uint32, exclusive bool) (VH, localfs.Attr, simnet.Cost, error) {
	var out VH
	var attr localfs.Attr
	if err := ValidName(name); err != nil {
		return 0, localfs.Attr{}, InterposeCost, err
	}
	cost, err := m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if de.isRoot() {
			return 0, ErrRootOnlyDirs
		}
		if de.kind != localfs.TypeDir {
			return 0, &nfs.Error{Proc: nfs.ProcCreate, Status: nfs.ErrNotDir}
		}
		file := de.child(name, localfs.TypeRegular, nfs.Handle{}) // the reply brings the handle
		a, fh, c, err := m.n.apply(tr, de.site(),
			FSOp{Kind: FSCreate, Path: file.physPath, Mode: mode, Excl: exclusive})
		if err != nil {
			return c, err
		}
		attr, file.fh = a, fh
		m.childChanged(de, name)
		out = m.insert(&file)
		return c, nil
	})
	return out, attr, cost, err
}

// Symlink creates a user symbolic link in dir. Targets beginning with
// Kosha's reserved link marker are rejected to keep user symlinks
// distinguishable from placement links.
func (m *Mount) Symlink(dir VH, name, target string) (VH, simnet.Cost, error) {
	o := m.beginAt(obs.OpcSymlink, dir, name)
	vh, cost, err := m.symlink(o.tr, dir, name, target)
	o.done(cost, err)
	return vh, cost, err
}

func (m *Mount) symlink(tr *obs.Trace, dir VH, name, target string) (VH, simnet.Cost, error) {
	if err := ValidName(name); err != nil {
		return 0, InterposeCost, err
	}
	if _, _, ok := ParseLinkTarget(target); ok {
		return 0, InterposeCost, fmt.Errorf("kosha: symlink target begins with a reserved marker")
	}
	var out VH
	cost, err := m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if de.isRoot() {
			return 0, ErrRootOnlyDirs
		}
		link := de.child(name, localfs.TypeSymlink, nfs.Handle{}) // the reply brings the handle
		_, fh, c, err := m.n.apply(tr, de.site(), FSOp{Kind: FSSymlink, Path: link.physPath, Target: target})
		if err != nil {
			return c, err
		}
		link.fh = fh
		m.childChanged(de, name)
		out = m.insert(&link)
		return c, nil
	})
	return out, cost, err
}

// Readlink reads a user symlink's target.
func (m *Mount) Readlink(vh VH) (string, simnet.Cost, error) {
	o := m.begin(obs.OpcReadlink, m.vpathOf(vh))
	target, cost, err := m.readlink(o.tr, vh)
	o.done(cost, err)
	return target, cost, err
}

func (m *Mount) readlink(tr *obs.Trace, vh VH) (string, simnet.Cost, error) {
	var target string
	cost, err := m.withFailover(tr, vh, func(de *ventry) (simnet.Cost, error) {
		t, c, err := m.n.nfsT(tr).Readlink(de.node, de.fh)
		if err == nil {
			target = t
		}
		return c, err
	})
	return target, cost, err
}
