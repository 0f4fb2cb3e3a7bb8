package mab

import (
	"path"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

// KoshaFS drives the benchmark through a Kosha mount. Directory and file
// handles are cached across operations, as the kernel NFS client above
// koshad would cache them.
type KoshaFS struct {
	M *core.Mount

	mu  sync.Mutex
	vhs map[string]core.VH
}

// NewKoshaFS wraps a mount.
func NewKoshaFS(m *core.Mount) *KoshaFS {
	return &KoshaFS{M: m, vhs: map[string]core.VH{"/": m.Root()}}
}

func (k *KoshaFS) cached(p string) (core.VH, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	vh, ok := k.vhs[p]
	return vh, ok
}

func (k *KoshaFS) remember(p string, vh core.VH) {
	k.mu.Lock()
	k.vhs[p] = vh
	k.mu.Unlock()
}

func (k *KoshaFS) handle(p string) (core.VH, simnet.Cost, error) {
	if vh, ok := k.cached(p); ok {
		return vh, 0, nil
	}
	vh, _, cost, err := k.M.LookupPath(p)
	if err != nil {
		return 0, cost, err
	}
	k.remember(p, vh)
	return vh, cost, nil
}

// MkdirAll implements FS, walking with cached handles like a kernel NFS
// client's dentry cache (one LOOKUP or MKDIR per missing component).
func (k *KoshaFS) MkdirAll(p string) (simnet.Cost, error) {
	p = localfs.CleanPath(p)
	var total simnet.Cost
	cur := k.M.Root()
	walked := "/"
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if part == "" {
			continue
		}
		next := path.Join(walked, part)
		if vh, ok := k.cached(next); ok {
			cur, walked = vh, next
			continue
		}
		vh, _, c, err := k.M.Lookup(cur, part)
		total = simnet.Seq(total, c)
		if err != nil {
			if !nfs.IsStatus(err, nfs.ErrNoEnt) {
				return total, err
			}
			vh, _, c, err = k.M.Mkdir(cur, part, 0o755)
			total = simnet.Seq(total, c)
			if err != nil {
				return total, err
			}
		}
		k.remember(next, vh)
		cur, walked = vh, next
	}
	return total, nil
}

// WriteFile implements FS with ChunkSize writes.
func (k *KoshaFS) WriteFile(p string, data []byte) (simnet.Cost, error) {
	dir := path.Dir(localfs.CleanPath(p))
	dirVH, total, err := k.handle(dir)
	if err != nil {
		return total, err
	}
	fvh, _, c, err := k.M.Create(dirVH, path.Base(p), 0o644, false)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	k.remember(localfs.CleanPath(p), fvh)
	for off := 0; off < len(data); off += ChunkSize {
		end := min(off+ChunkSize, len(data))
		_, c, err := k.M.Write(fvh, int64(off), data[off:end])
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadFile implements FS with ChunkSize reads.
func (k *KoshaFS) ReadFile(p string) ([]byte, simnet.Cost, error) {
	fvh, total, err := k.handle(localfs.CleanPath(p))
	if err != nil {
		return nil, total, err
	}
	return gather(total, func(off int64) ([]byte, bool, simnet.Cost, error) {
		return k.M.Read(fvh, off, ChunkSize)
	})
}

// Stat implements FS.
func (k *KoshaFS) Stat(p string) (simnet.Cost, error) {
	fvh, total, err := k.handle(localfs.CleanPath(p))
	if err != nil {
		return total, err
	}
	_, c, err := k.M.Getattr(fvh)
	return simnet.Seq(total, c), err
}

// NFSFS drives the benchmark through a plain NFS client against a single
// server: the paper's baseline ("The NFS configuration consists of two
// nodes with one running as a client, and the other running as a server").
type NFSFS struct {
	C      nfs.Client
	Server simnet.Addr
	Root   nfs.Handle

	mu  sync.Mutex
	fhs map[string]nfs.Handle
}

// NewNFSFS wraps a client and the server's root handle.
func NewNFSFS(c nfs.Client, server simnet.Addr, root nfs.Handle) *NFSFS {
	return &NFSFS{C: c, Server: server, Root: root, fhs: map[string]nfs.Handle{"/": root}}
}

func (n *NFSFS) cached(p string) (nfs.Handle, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.fhs[p]
	return h, ok
}

func (n *NFSFS) remember(p string, h nfs.Handle) {
	n.mu.Lock()
	n.fhs[p] = h
	n.mu.Unlock()
}

// handle resolves a path with per-component LOOKUPs, caching like the
// kernel's dentry cache.
func (n *NFSFS) handle(p string) (nfs.Handle, simnet.Cost, error) {
	p = localfs.CleanPath(p)
	if h, ok := n.cached(p); ok {
		return h, 0, nil
	}
	var total simnet.Cost
	cur := n.Root
	walked := "/"
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if part == "" {
			continue
		}
		next := path.Join(walked, part)
		if h, ok := n.cached(next); ok {
			cur, walked = h, next
			continue
		}
		h, _, c, err := n.C.Lookup(n.Server, cur, part)
		total = simnet.Seq(total, c)
		if err != nil {
			return nfs.Handle{}, total, err
		}
		n.remember(next, h)
		cur, walked = h, next
	}
	return cur, total, nil
}

// MkdirAll implements FS.
func (n *NFSFS) MkdirAll(p string) (simnet.Cost, error) {
	p = localfs.CleanPath(p)
	var total simnet.Cost
	cur := n.Root
	walked := "/"
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if part == "" {
			continue
		}
		next := path.Join(walked, part)
		if h, ok := n.cached(next); ok {
			cur, walked = h, next
			continue
		}
		h, _, c, err := n.C.Lookup(n.Server, cur, part)
		total = simnet.Seq(total, c)
		if err != nil {
			if !nfs.IsStatus(err, nfs.ErrNoEnt) {
				return total, err
			}
			h, _, c, err = n.C.Mkdir(n.Server, cur, part, 0o755)
			total = simnet.Seq(total, c)
			if err != nil {
				return total, err
			}
		}
		n.remember(next, h)
		cur, walked = h, next
	}
	return total, nil
}

// WriteFile implements FS with ChunkSize writes.
func (n *NFSFS) WriteFile(p string, data []byte) (simnet.Cost, error) {
	p = localfs.CleanPath(p)
	dirH, total, err := n.handle(path.Dir(p))
	if err != nil {
		return total, err
	}
	fh, _, c, err := n.C.Create(n.Server, dirH, path.Base(p), 0o644, false)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	n.remember(p, fh)
	for off := 0; off < len(data); off += ChunkSize {
		end := min(off+ChunkSize, len(data))
		_, c, err := n.C.Write(n.Server, fh, int64(off), data[off:end])
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadFile implements FS with ChunkSize reads.
func (n *NFSFS) ReadFile(p string) ([]byte, simnet.Cost, error) {
	fh, total, err := n.handle(p)
	if err != nil {
		return nil, total, err
	}
	return gather(total, func(off int64) ([]byte, bool, simnet.Cost, error) {
		return n.C.Read(n.Server, fh, off, ChunkSize)
	})
}

// gather reads a whole file one ChunkSize READ at a time from offset 0,
// adding each READ's cost to total. A file that fits one chunk comes back as
// the READ reply's own bytes, which the caller owns (DESIGN §10's borrow
// rule); a longer one is copied once into a buffer sized from the chunks.
func gather(total simnet.Cost, read func(off int64) ([]byte, bool, simnet.Cost, error)) ([]byte, simnet.Cost, error) {
	chunks := make([][]byte, 0, 4)
	size := 0
	for {
		data, eof, c, err := read(int64(size))
		total = simnet.Seq(total, c)
		if err != nil {
			return nil, total, err
		}
		chunks = append(chunks, data)
		size += len(data)
		if eof {
			break
		}
	}
	if len(chunks) == 1 {
		return chunks[0], total, nil
	}
	out := make([]byte, 0, size)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, total, nil
}

// Stat implements FS.
func (n *NFSFS) Stat(p string) (simnet.Cost, error) {
	fh, total, err := n.handle(p)
	if err != nil {
		return total, err
	}
	_, c, err := n.C.Getattr(n.Server, fh)
	return simnet.Seq(total, c), err
}

// NewBaseline builds the paper's two-node NFS baseline on a fresh simulated
// network: a client node and a server node exporting an unlimited store.
func NewBaseline(link simnet.LinkModel, disk simnet.DiskModel) *NFSFS {
	net := simnet.New(link)
	fs := localfs.New(0, disk)
	srv := nfs.NewServer(fs, 1)
	srv.Attach(net, "server")
	net.AddNode("client")
	c := nfs.NewClient(net, "client")
	return NewNFSFS(c, "server", srv.Root())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
