package main

import (
	"fmt"
	"path"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

// fsClient is the client surface the meta and stream workloads drive. It has
// two implementations: a Kosha mount (every method below is exactly ONE
// core.Mount call, which is what the benchmark counts as an op) and a plain
// NFS client against one server (the paper's baseline, the denominator of
// sim_vs_nfs_ratio). Both hold directory handles the way a kernel NFS client
// does and resolve file paths afresh on every path call, matching the
// uncached client the meta workload models.
type fsClient interface {
	// MkdirAll creates p and its ancestors and keeps their handles. Set-up only.
	MkdirAll(p string) error
	Stat(p string) (size int64, isDir bool, cost simnet.Cost, err error)
	ReadFile(p string) ([]byte, simnet.Cost, error)
	WriteFile(p string, data []byte) (simnet.Cost, error)
	Readdir(dir string) ([]entry, simnet.Cost, error)
	Create(dir, name string) (handle, simnet.Cost, error)
	Open(p string) (handle, int64, simnet.Cost, error)
	Write(h handle, off int64, data []byte) (simnet.Cost, error)
	Read(h handle, off int64, n int) ([]byte, simnet.Cost, error)
	// Close commits buffered writes and releases the handle.
	Close(h handle) (simnet.Cost, error)
	// Release drops a handle without a commit; it is local and untimed.
	Release(h handle)
	Remove(dir, name string) (simnet.Cost, error)
	Mkdir(dir, name string) (simnet.Cost, error)
	Rmdir(dir, name string) (simnet.Cost, error)
	Rename(dir, from, to string) (simnet.Cost, error)
}

// handle is an open file on either client.
type handle struct {
	vh core.VH
	fh nfs.Handle
}

// --- Kosha ---

type koshaClient struct {
	m    *core.Mount
	dirs map[string]core.VH
}

func newKoshaClient(m *core.Mount) *koshaClient {
	return &koshaClient{m: m, dirs: map[string]core.VH{"/": m.Root()}}
}

// dir returns the held handle of a directory, resolving it on first use.
// bed.remount resolves the writer's ahead of each round, so inside a round
// only the read-back mount ever has to.
func (k *koshaClient) dir(p string) (core.VH, error) {
	if vh, ok := k.dirs[p]; ok {
		return vh, nil
	}
	vh, _, _, err := k.m.LookupPath(p)
	if err != nil {
		return 0, fmt.Errorf("resolve dir %s: %w", p, err)
	}
	k.dirs[p] = vh
	return vh, nil
}

func (k *koshaClient) MkdirAll(p string) error {
	comps := core.SplitVirtual(p)
	for i := 1; i <= len(comps); i++ {
		d := core.JoinVirtual(comps[:i])
		if _, ok := k.dirs[d]; ok {
			continue
		}
		vh, _, err := k.m.MkdirAll(d)
		if err != nil {
			return fmt.Errorf("mkdir -p %s: %w", d, err)
		}
		k.dirs[d] = vh
	}
	return nil
}

func (k *koshaClient) Stat(p string) (int64, bool, simnet.Cost, error) {
	vh, attr, cost, err := k.m.LookupPath(p)
	if err != nil {
		return 0, false, cost, err
	}
	k.m.Forget(vh)
	return attr.Size, attr.Type == localfs.TypeDir, cost, nil
}

func (k *koshaClient) ReadFile(p string) ([]byte, simnet.Cost, error) { return k.m.ReadFile(p) }

func (k *koshaClient) WriteFile(p string, data []byte) (simnet.Cost, error) {
	return k.m.WriteFile(p, data)
}

func (k *koshaClient) Readdir(dir string) ([]entry, simnet.Cost, error) {
	vh, err := k.dir(dir)
	if err != nil {
		return nil, 0, err
	}
	ents, cost, err := k.m.Readdir(vh)
	out := make([]entry, len(ents))
	for i, e := range ents {
		out[i] = entry{Name: e.Name, IsDir: e.Type == localfs.TypeDir}
	}
	return out, cost, err
}

func (k *koshaClient) Create(dir, name string) (handle, simnet.Cost, error) {
	dvh, err := k.dir(dir)
	if err != nil {
		return handle{}, 0, err
	}
	vh, _, cost, err := k.m.Create(dvh, name, 0o644, false)
	return handle{vh: vh}, cost, err
}

func (k *koshaClient) Open(p string) (handle, int64, simnet.Cost, error) {
	vh, attr, cost, err := k.m.LookupPath(p)
	return handle{vh: vh}, attr.Size, cost, err
}

func (k *koshaClient) Write(h handle, off int64, data []byte) (simnet.Cost, error) {
	_, cost, err := k.m.Write(h.vh, off, data)
	return cost, err
}

func (k *koshaClient) Read(h handle, off int64, n int) ([]byte, simnet.Cost, error) {
	data, _, cost, err := k.m.Read(h.vh, off, n)
	return data, cost, err
}

func (k *koshaClient) Close(h handle) (simnet.Cost, error) { return k.m.Close(h.vh) }

func (k *koshaClient) Release(h handle) { k.m.Forget(h.vh) }

func (k *koshaClient) Remove(dir, name string) (simnet.Cost, error) {
	dvh, err := k.dir(dir)
	if err != nil {
		return 0, err
	}
	return k.m.Remove(dvh, name)
}

func (k *koshaClient) Mkdir(dir, name string) (simnet.Cost, error) {
	dvh, err := k.dir(dir)
	if err != nil {
		return 0, err
	}
	vh, _, cost, err := k.m.Mkdir(dvh, name, 0o755)
	if err == nil {
		k.dirs[path.Join(dir, name)] = vh
	}
	return cost, err
}

func (k *koshaClient) Rmdir(dir, name string) (simnet.Cost, error) {
	dvh, err := k.dir(dir)
	if err != nil {
		return 0, err
	}
	cost, err := k.m.Rmdir(dvh, name)
	if vh, ok := k.dirs[path.Join(dir, name)]; ok && err == nil {
		k.m.Forget(vh)
		delete(k.dirs, path.Join(dir, name))
	}
	return cost, err
}

func (k *koshaClient) Rename(dir, from, to string) (simnet.Cost, error) {
	dvh, err := k.dir(dir)
	if err != nil {
		return 0, err
	}
	return k.m.Rename(dvh, from, dvh, to)
}

// --- plain NFS (baseline) ---

type nfsClient struct {
	c      nfs.Client
	server simnet.Addr
	dirs   map[string]nfs.Handle
}

func newNFSClient(c nfs.Client, server simnet.Addr, root nfs.Handle) *nfsClient {
	return &nfsClient{c: c, server: server, dirs: map[string]nfs.Handle{"/": root}}
}

// walk resolves p with one LOOKUP per component from the root.
func (n *nfsClient) walk(p string) (nfs.Handle, localfs.Attr, simnet.Cost, error) {
	cur := n.dirs["/"]
	var attr localfs.Attr
	var total simnet.Cost
	for _, name := range core.SplitVirtual(p) {
		h, a, c, err := n.c.Lookup(n.server, cur, name)
		total += c
		if err != nil {
			return nfs.Handle{}, localfs.Attr{}, total, err
		}
		cur, attr = h, a
	}
	return cur, attr, total, nil
}

func (n *nfsClient) dir(p string) (nfs.Handle, error) {
	if h, ok := n.dirs[p]; ok {
		return h, nil
	}
	h, _, _, err := n.walk(p)
	if err != nil {
		return nfs.Handle{}, fmt.Errorf("resolve dir %s: %w", p, err)
	}
	n.dirs[p] = h
	return h, nil
}

func (n *nfsClient) MkdirAll(p string) error {
	cur, walked := n.dirs["/"], "/"
	for _, name := range core.SplitVirtual(p) {
		walked = path.Join(walked, name)
		if h, ok := n.dirs[walked]; ok {
			cur = h
			continue
		}
		h, _, _, err := n.c.Mkdir(n.server, cur, name, 0o755)
		if err != nil {
			return fmt.Errorf("mkdir -p %s: %w", walked, err)
		}
		n.dirs[walked] = h
		cur = h
	}
	return nil
}

func (n *nfsClient) Stat(p string) (int64, bool, simnet.Cost, error) {
	_, attr, cost, err := n.walk(p)
	return attr.Size, attr.Type == localfs.TypeDir, cost, err
}

func (n *nfsClient) ReadFile(p string) ([]byte, simnet.Cost, error) {
	h, _, total, err := n.walk(p)
	if err != nil {
		return nil, total, err
	}
	var out []byte
	for {
		data, eof, c, err := n.c.Read(n.server, h, int64(len(out)), 1<<20)
		total += c
		if err != nil {
			return nil, total, err
		}
		out = append(out, data...)
		if eof || len(data) == 0 {
			return out, total, nil
		}
	}
}

func (n *nfsClient) WriteFile(p string, data []byte) (simnet.Cost, error) {
	dir, base := path.Dir(p), path.Base(p)
	dh, _, total, err := n.walk(dir)
	if err != nil {
		return total, err
	}
	fh, _, c, err := n.c.Create(n.server, dh, base, 0o644, false)
	total += c
	if err != nil {
		return total, err
	}
	_, c, err = n.c.Write(n.server, fh, 0, data)
	return total + c, err
}

func (n *nfsClient) Readdir(dir string) ([]entry, simnet.Cost, error) {
	dh, err := n.dir(dir)
	if err != nil {
		return nil, 0, err
	}
	ents, cost, err := n.c.ReaddirPlusAll(n.server, dh, 256)
	out := make([]entry, len(ents))
	for i, e := range ents {
		out[i] = entry{Name: e.Name, IsDir: e.Type == localfs.TypeDir}
	}
	return out, cost, err
}

func (n *nfsClient) Create(dir, name string) (handle, simnet.Cost, error) {
	dh, err := n.dir(dir)
	if err != nil {
		return handle{}, 0, err
	}
	fh, _, cost, err := n.c.Create(n.server, dh, name, 0o644, false)
	return handle{fh: fh}, cost, err
}

func (n *nfsClient) Open(p string) (handle, int64, simnet.Cost, error) {
	fh, attr, cost, err := n.walk(p)
	return handle{fh: fh}, attr.Size, cost, err
}

func (n *nfsClient) Write(h handle, off int64, data []byte) (simnet.Cost, error) {
	_, cost, err := n.c.Write(n.server, h.fh, off, data)
	return cost, err
}

func (n *nfsClient) Read(h handle, off int64, count int) ([]byte, simnet.Cost, error) {
	data, _, cost, err := n.c.Read(n.server, h.fh, off, count)
	return data, cost, err
}

// Close is free on the baseline: its writes are write-through.
func (n *nfsClient) Close(handle) (simnet.Cost, error) { return 0, nil }

func (n *nfsClient) Release(handle) {}

func (n *nfsClient) Remove(dir, name string) (simnet.Cost, error) {
	dh, err := n.dir(dir)
	if err != nil {
		return 0, err
	}
	return n.c.Remove(n.server, dh, name)
}

func (n *nfsClient) Mkdir(dir, name string) (simnet.Cost, error) {
	dh, err := n.dir(dir)
	if err != nil {
		return 0, err
	}
	h, _, cost, err := n.c.Mkdir(n.server, dh, name, 0o755)
	if err == nil {
		n.dirs[path.Join(dir, name)] = h
	}
	return cost, err
}

func (n *nfsClient) Rmdir(dir, name string) (simnet.Cost, error) {
	dh, err := n.dir(dir)
	if err != nil {
		return 0, err
	}
	cost, err := n.c.Rmdir(n.server, dh, name)
	if err == nil {
		delete(n.dirs, path.Join(dir, name))
	}
	return cost, err
}

func (n *nfsClient) Rename(dir, from, to string) (simnet.Cost, error) {
	dh, err := n.dir(dir)
	if err != nil {
		return 0, err
	}
	return n.c.Rename(n.server, dh, from, dh, to)
}
