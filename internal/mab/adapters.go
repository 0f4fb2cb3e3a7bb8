package mab

import (
	"path"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// known is what an adapter keeps of one path: its handle and, for a file,
// the last size it learnt, as a kernel client's inode keeps it. A size is
// only a hint that presizes a ReadFile's buffer.
type known[H any] struct {
	h    H
	size int64
}

// handles is an adapter's cache of known paths.
type handles[H any] struct {
	mu sync.Mutex
	m  map[string]known[H]
}

func newHandles[H any](root H) handles[H] {
	return handles[H]{m: map[string]known[H]{"/": {h: root}}}
}

func (t *handles[H]) cached(p string) (known[H], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k, ok := t.m[p]
	return k, ok
}

func (t *handles[H]) remember(p string, h H, size int64) {
	t.mu.Lock()
	t.m[p] = known[H]{h: h, size: size}
	t.mu.Unlock()
}

// KoshaFS drives the benchmark through a Kosha mount. Directory and file
// handles are cached across operations, as the kernel NFS client above
// koshad would cache them, each file's beside the size it last saw.
type KoshaFS struct {
	M *core.Mount

	vhs handles[core.VH]
}

// NewKoshaFS wraps a mount.
func NewKoshaFS(m *core.Mount) *KoshaFS {
	return &KoshaFS{M: m, vhs: newHandles(m.Root())}
}

func (k *KoshaFS) handle(p string) (known[core.VH], simnet.Cost, error) {
	if f, ok := k.vhs.cached(p); ok {
		return f, 0, nil
	}
	vh, attr, cost, err := k.M.LookupPath(p)
	if err != nil {
		return known[core.VH]{}, cost, err
	}
	k.vhs.remember(p, vh, attr.Size)
	return known[core.VH]{h: vh, size: attr.Size}, cost, nil
}

// MkdirAll implements FS, walking with cached handles like a kernel NFS
// client's dentry cache (one LOOKUP or MKDIR per missing component). Each
// prefix it probes is a slice of the clean path, which the cache may keep:
// p is the caller's string.
func (k *KoshaFS) MkdirAll(p string) (simnet.Cost, error) {
	p = localfs.CleanPath(p)
	var total simnet.Cost
	cur := k.M.Root()
	for start := 1; start < len(p); {
		end := strings.IndexByte(p[start:], '/')
		if end < 0 {
			end = len(p)
		} else {
			end += start
		}
		next, part := p[:end], p[start:end]
		start = end + 1
		if f, ok := k.vhs.cached(next); ok {
			cur = f.h
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
		k.vhs.remember(next, vh, 0)
		cur = vh
	}
	return total, nil
}

// WriteFile implements FS with ChunkSize writes.
func (k *KoshaFS) WriteFile(p string, data []byte) (simnet.Cost, error) {
	dir := path.Dir(localfs.CleanPath(p))
	d, total, err := k.handle(dir)
	if err != nil {
		return total, err
	}
	fvh, _, c, err := k.M.Create(d.h, path.Base(p), 0o644, false)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	k.vhs.remember(localfs.CleanPath(p), fvh, int64(len(data)))
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

// ReadFile implements FS with ChunkSize reads into one buffer.
func (k *KoshaFS) ReadFile(p string) ([]byte, simnet.Cost, error) {
	f, total, err := k.handle(localfs.CleanPath(p))
	if err != nil {
		return nil, total, err
	}
	return gather(total, f.size, func(off int64, dst []byte) ([]byte, bool, simnet.Cost, error) {
		return k.M.ReadInto(f.h, off, ChunkSize, dst)
	})
}

// Stat implements FS.
func (k *KoshaFS) Stat(p string) (simnet.Cost, error) {
	p = localfs.CleanPath(p)
	f, total, err := k.handle(p)
	if err != nil {
		return total, err
	}
	attr, c, err := k.M.Getattr(f.h)
	if err == nil {
		k.vhs.remember(p, f.h, attr.Size)
	}
	return simnet.Seq(total, c), err
}

// NFSFS drives the benchmark through a plain NFS client against a single
// server: the paper's baseline ("The NFS configuration consists of two
// nodes with one running as a client, and the other running as a server").
type NFSFS struct {
	C      nfs.Client
	Server simnet.Addr
	Root   nfs.Handle

	fhs handles[nfs.Handle]
}

// NewNFSFS wraps a client and the server's root handle.
func NewNFSFS(c nfs.Client, server simnet.Addr, root nfs.Handle) *NFSFS {
	return &NFSFS{C: c, Server: server, Root: root, fhs: newHandles(root)}
}

// handle resolves a path with per-component LOOKUPs, caching like the
// kernel's dentry cache.
func (n *NFSFS) handle(p string) (known[nfs.Handle], simnet.Cost, error) {
	p = localfs.CleanPath(p)
	if f, ok := n.fhs.cached(p); ok {
		return f, 0, nil
	}
	var total simnet.Cost
	cur := known[nfs.Handle]{h: n.Root}
	walked := "/"
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if part == "" {
			continue
		}
		next := path.Join(walked, part)
		if f, ok := n.fhs.cached(next); ok {
			cur, walked = f, next
			continue
		}
		h, attr, c, err := n.C.Lookup(n.Server, cur.h, part)
		total = simnet.Seq(total, c)
		if err != nil {
			return known[nfs.Handle]{}, total, err
		}
		n.fhs.remember(next, h, attr.Size)
		cur, walked = known[nfs.Handle]{h: h, size: attr.Size}, next
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
		if f, ok := n.fhs.cached(next); ok {
			cur, walked = f.h, next
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
		n.fhs.remember(next, h, 0)
		cur, walked = h, next
	}
	return total, nil
}

// WriteFile implements FS with ChunkSize writes.
func (n *NFSFS) WriteFile(p string, data []byte) (simnet.Cost, error) {
	p = localfs.CleanPath(p)
	dir, total, err := n.handle(path.Dir(p))
	if err != nil {
		return total, err
	}
	fh, _, c, err := n.C.Create(n.Server, dir.h, path.Base(p), 0o644, false)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	n.fhs.remember(p, fh, int64(len(data)))
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

// ReadFile implements FS with ChunkSize reads into one buffer.
func (n *NFSFS) ReadFile(p string) ([]byte, simnet.Cost, error) {
	f, total, err := n.handle(p)
	if err != nil {
		return nil, total, err
	}
	return gather(total, f.size, func(off int64, dst []byte) ([]byte, bool, simnet.Cost, error) {
		return n.C.ReadInto(n.Server, f.h, off, ChunkSize, dst)
	})
}

// gather reads a whole file one ChunkSize READ at a time from offset 0 to
// EOF, adding each READ's cost to total. The READs append into one buffer
// presized from the size hint, so each chunk is read in place (ReadInto) and
// the file's bytes are allocated once; a stale hint costs a regrow, never a
// READ. With no hint the first chunk is the READ reply's own bytes, which
// the caller owns (DESIGN §10's borrow rule), and later ones append to it.
func gather(total simnet.Cost, hint int64, read func(off int64, dst []byte) ([]byte, bool, simnet.Cost, error)) ([]byte, simnet.Cost, error) {
	var buf []byte
	if hint > 0 && hint <= wire.MaxOpaque {
		buf = make([]byte, 0, hint)
	}
	for {
		data, eof, c, err := read(int64(len(buf)), buf)
		total = simnet.Seq(total, c)
		if err != nil {
			return nil, total, err
		}
		buf = data
		if eof {
			return buf, total, nil
		}
	}
}

// Stat implements FS.
func (n *NFSFS) Stat(p string) (simnet.Cost, error) {
	p = localfs.CleanPath(p)
	f, total, err := n.handle(p)
	if err != nil {
		return total, err
	}
	attr, c, err := n.C.Getattr(n.Server, f.h)
	if err == nil {
		n.fhs.remember(p, f.h, attr.Size)
	}
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
