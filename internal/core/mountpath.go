package core

import (
	"path"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Path-level conveniences for applications and experiments, built on the
// handle-level operations, plus the cluster-wide statfs view.

// LookupPath resolves a whole virtual path to a handle.
func (m *Mount) LookupPath(vpath string) (VH, localfs.Attr, simnet.Cost, error) {
	de, w, total, err := m.lookupPath(vpath, 0)
	if err != nil {
		return 0, localfs.Attr{}, total, err
	}
	return m.vhOf(de), w.Attr, total, nil
}

// lookupPath is LookupPath before a handle is issued, with the walk's reply:
// the attributes and, when readMax asks, a regular file's first READ. A NOENT
// may come with the entry of the deepest existing ancestor (see materialize).
// The root resolves to its permanent row as it stands: failover binds and
// rebinds it.
func (m *Mount) lookupPath(vpath string, readMax uint32) (*ventry, nfs.Walked, simnet.Cost, error) {
	o := m.begin(obs.OpcLookup, vpath)
	if path.Clean(vpath) == "/" {
		de, err := m.entry(RootVH)
		o.done(InterposeCost, err)
		return de, nfs.Walked{Attr: rootAttr}, InterposeCost, err
	}
	de, w, cost, err := m.materializeRetry(o.tr, vpath, readMax)
	total := simnet.Seq(InterposeCost, cost)
	o.done(total, err)
	return de, w, total, err
}

// vhOf issues a virtual handle for a materialized entry; the root keeps its
// permanent handle.
func (m *Mount) vhOf(de *ventry) VH {
	if de.isRoot() {
		return RootVH
	}
	return m.insert(de)
}

// MkdirAll creates a directory path and any missing ancestors. It resolves
// the path with one walk, which is all an existing directory costs. When the
// walk stops at a missing component it names the deepest ancestor that
// exists, and only the components below that one are created; a miss at a
// distributed level names no ancestor, and the loop starts at the root. Each
// step creates first and looks up on EXIST (a component above the miss, or
// one another client created meanwhile): the walk has just said the rest is
// missing, so a name-cache hit for any of it could only be stale.
func (m *Mount) MkdirAll(vpath string) (VH, simnet.Cost, error) {
	de, _, total, err := m.lookupPath(vpath, 0)
	if err == nil {
		return m.vhOf(de), total, nil
	}
	if !nfs.IsStatus(err, nfs.ErrNoEnt) {
		return 0, total, err
	}
	parts := SplitVirtual(vpath)
	cur := m.Root()
	if de != nil {
		cur, parts = m.insert(de), parts[pathComponents(de.vpath):]
	}
	for _, name := range parts {
		next, _, c, err := m.Mkdir(cur, name, 0o755)
		total = simnet.Seq(total, c)
		if nfs.IsStatus(err, nfs.ErrExist) {
			next, _, c, err = m.Lookup(cur, name)
			total = simnet.Seq(total, c)
		}
		m.forget(cur) // a no-op on RootVH
		if err != nil {
			return 0, total, err
		}
		cur = next
	}
	return cur, total, nil
}

// WriteFile creates (or truncates) a file at a virtual path and writes data
// in one routed apply: the resolver's cache places the parent directory, and
// its primary walks to it, creates, writes and mirrors once (FSWriteFile in
// applyFSOp). When the cache has no answer, or the primary says the parent is
// missing, moved or out of reach — NOENT, a cache-suspect status, a retryable
// error — the call goes through MkdirAll, which owns resolution, creation,
// failover and promotion, and sends the same apply to the directory that
// returns. A stale resolver entry needs no dropping here: its storage root
// is gone, which MkdirAll's walk finds and re-resolves (materializeRetry).
// Only the fast path is a single op with a single InterposeCost: MkdirAll's
// lookups and mkdirs and a write-back tail are pipeline ops of their own,
// counted and charged as they were when WriteFile was a sequence of them.
func (m *Mount) WriteFile(vpath string, data []byte) (simnet.Cost, error) {
	o := m.begin(obs.OpcWrite, vpath)
	cost, err := m.writeFile(o.tr, vpath, data)
	o.done(cost, err)
	return cost, err
}

func (m *Mount) writeFile(tr *obs.Trace, vpath string, data []byte) (simnet.Cost, error) {
	dir, name := parentOf(localfs.CleanPath(vpath))
	if err := ValidName(name); err != nil {
		return InterposeCost, err
	}
	if dir == "/" {
		return InterposeCost, ErrRootOnlyDirs
	}
	total := InterposeCost
	if place, ok := m.n.cachedDir(dir); ok {
		de := entryAt(dir, place, place.Rest, nfs.Walked{Attr: localfs.Attr{Type: localfs.TypeDir}})
		c, err := m.writeFileIn(tr, de, name, data)
		total = simnet.Seq(total, c)
		if err == nil || !(retryable(err) || cacheSuspect(err)) {
			return total, err
		}
	}
	dirVH, c, err := m.MkdirAll(dir)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	defer m.forget(dirVH) // a no-op on RootVH
	c, err = m.failover(tr, dirVH, func(de *ventry) (simnet.Cost, error) {
		return m.writeFileIn(tr, de, name, data)
	})
	return simnet.Seq(total, c), err
}

// writeFileIn sends the FSWriteFile compound for name in the directory de.
// Under write-back it carries one batch at most and the rest follows through
// the handle the reply returns, so no frame outgrows the buffer's high water.
// WriteFile's contract is an acknowledged durable write, so that tail is
// flushed here: forget's flush is best-effort and would swallow the error.
func (m *Mount) writeFileIn(tr *obs.Trace, de *ventry, name string, data []byte) (simnet.Cost, error) {
	if de.kind != localfs.TypeDir {
		return 0, &nfs.Error{Proc: nfs.ProcCreate, Status: nfs.ErrNotDir}
	}
	first := data
	if wb := m.n.cfg.WriteBackBytes; wb > 0 && len(data) > wb {
		first = data[:wb]
	}
	_, fh, cost, err := m.n.applyAt(tr, de.site(),
		FSOp{Kind: FSWriteFile, Data: first}, de.at(name), physRef{})
	if err != nil {
		return cost, err
	}
	if de.node == m.n.addr {
		cost = simnet.Seq(cost, loopbackXfer(len(first)))
	}
	m.childChanged(de, name)
	if len(first) == len(data) {
		return cost, nil
	}
	file := de.child(name, localfs.TypeRegular, fh)
	fvh := m.insert(&file)
	defer m.forget(fvh)
	_, c, err := m.write(tr, fvh, int64(len(first)), data[len(first):])
	cost = simnet.Seq(cost, c)
	if err != nil {
		return cost, err
	}
	c, err = m.flushVH(tr, fvh)
	return simnet.Seq(cost, c), err
}

// ReadFile reads a whole file at a virtual path. The walk to the file asks
// for its first chunk, which the LOOKUPPATH reply carries when the leaf is a
// regular file, so a file of up to one chunk costs one round trip and no
// virtual handle, and its bytes are the reply frame's. A longer file reads on
// to EOF rather than trusting the looked-up size, so a concurrent append
// through another node can never truncate the result; the size only presizes
// the buffer, and each later chunk is read in place, into the room left in
// it (ReadInto), so its bytes are allocated once. A stale size costs a
// regrow, not a READ. With replica reads on the walk asks for nothing, and
// the first READ rotates across the holders as every other one does.
func (m *Mount) ReadFile(vpath string) ([]byte, simnet.Cost, error) {
	const chunk = localfs.ReadUnit
	var want uint32 = chunk
	if m.n.cfg.ReadFromReplicas {
		want = 0
	}
	de, w, total, err := m.lookupPath(vpath, want)
	if err != nil {
		return nil, total, err
	}
	if w.EOF || len(w.Data) > 0 {
		total = simnet.Seq(total, m.readCarried(de, w.Data))
		if w.EOF {
			return w.Data, total, nil
		}
	}
	vh := m.vhOf(de)
	defer m.forget(vh)
	var data []byte
	if w.Attr.Size > 0 && w.Attr.Size <= wire.MaxOpaque {
		data = make([]byte, 0, w.Attr.Size)
	}
	data = append(data, w.Data...)
	for {
		n := len(data)
		d, eof, c, err := m.ReadInto(vh, int64(n), chunk, data)
		total = simnet.Seq(total, c)
		if err != nil {
			return nil, total, err
		}
		data = d
		if eof || len(d) == n {
			return data, total, nil
		}
	}
}

// readCarried is the Read op whose READ a walk's reply carried: it costs the
// interposition constant and the loopback copy of the bytes, as that READ
// served by de's node would have, and no round trip, and it counts toward
// ReadSpread.
func (m *Mount) readCarried(de *ventry, data []byte) simnet.Cost {
	o := m.begin(obs.OpcRead, de.vpath)
	cost := InterposeCost
	m.countRead(de.node)
	if de.node == m.n.addr {
		cost = simnet.Seq(cost, loopbackXfer(len(data)))
	}
	o.tr.SetServedBy(string(de.node))
	o.done(cost, nil)
	return cost
}

// RemoveAllPath recursively removes a virtual subtree. It redrives once on
// NOTEMPTY, the mark of a listing read through a name-cache entry that
// another client's rename left pointing at the directory's old inode: the
// children it listed and removed were the old directory's, the rmdir met the
// new one's (TestOracleSeedSweep/seed1284 fails without it).
func (m *Mount) RemoveAllPath(vpath string) (simnet.Cost, error) {
	total, err := m.removeAllOnce(vpath)
	if nfs.IsStatus(err, nfs.ErrNotEmpty) {
		m.dropCachesUnder(vpath)
		c, err2 := m.removeAllOnce(vpath)
		return simnet.Seq(total, c), err2
	}
	return total, err
}

func (m *Mount) removeAllOnce(vpath string) (simnet.Cost, error) {
	dir, name := parentOf(localfs.CleanPath(vpath))
	if name == "" {
		return 0, &nfs.Error{Proc: nfs.ProcRmdir, Status: nfs.ErrInval}
	}
	parentVH, _, total, err := m.LookupPath(dir)
	if err != nil {
		return total, err
	}
	defer m.forget(parentVH)
	c, err := m.removeAllIn(parentVH, name)
	return simnet.Seq(total, c), err
}

// removeAllIn removes dir/name recursively. NOENT at any step means
// another client (or a stale cache entry standing in for one) already
// removed that piece — the goal state, so it counts as success.
func (m *Mount) removeAllIn(dir VH, name string) (simnet.Cost, error) {
	vh, attr, total, err := m.Lookup(dir, name)
	if err != nil {
		if nfs.IsStatus(err, nfs.ErrNoEnt) {
			if dir != RootVH {
				return total, nil
			}
			// A removal that failed half-way may have left the name in the
			// root's index; Rmdir drops it before its own NOENT.
			c, err := m.Rmdir(dir, name)
			if nfs.IsStatus(err, nfs.ErrNoEnt) {
				err = nil
			}
			return simnet.Seq(total, c), err
		}
		return total, err
	}
	defer m.forget(vh)
	if attr.Type != localfs.TypeDir {
		c, err := m.Remove(dir, name)
		if nfs.IsStatus(err, nfs.ErrNoEnt) {
			err = nil
		}
		return simnet.Seq(total, c), err
	}
	ents, c, err := m.Readdir(vh)
	total = simnet.Seq(total, c)
	if err != nil {
		if nfs.IsStatus(err, nfs.ErrNoEnt) {
			return total, nil
		}
		return total, err
	}
	for _, e := range ents {
		c, err := m.removeAllIn(vh, e.Name)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
	}
	c, err = m.Rmdir(dir, name)
	if nfs.IsStatus(err, nfs.ErrNoEnt) {
		err = nil
	}
	return simnet.Seq(total, c), err
}

// ClusterStat aggregates contributed-space accounting across every node
// this mount's koshad knows about — the "single large storage" view the
// paper's introduction promises (unused desktop space harvested into one
// shared file system).
type ClusterStat struct {
	Nodes      int
	TotalBytes int64 // sum of contributed capacities (0 entries = unlimited)
	UsedBytes  int64
	Files      int64 // file copies stored, replicas included
	Unlimited  int   // nodes contributing without a cap
}

// Statfs sums FSSTAT over the local node and every known peer.
func (m *Mount) Statfs() (ClusterStat, simnet.Cost, error) {
	total := InterposeCost
	var out ClusterStat
	nodes := []simnet.Addr{m.n.addr}
	for _, p := range m.n.overlay.Known() {
		nodes = append(nodes, p.Addr)
	}
	for _, addr := range nodes {
		st, c, err := m.n.remoteFSStat(obs.TraceContext{}, addr)
		total = simnet.Seq(total, c)
		if err != nil {
			continue
		}
		out.Nodes++
		out.UsedBytes += st.UsedBytes
		out.Files += st.Files
		if st.TotalBytes == 0 {
			out.Unlimited++
		} else {
			out.TotalBytes += st.TotalBytes
		}
	}
	return out, total, nil
}
