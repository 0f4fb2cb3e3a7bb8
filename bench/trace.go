package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// The traced pass records spans from outside the program: the harness wraps
// the three boundaries every operation crosses — the client surface
// (meter.begin/end), the transport (Call and every registered handler) and
// the contributed store — and times the calls into them. Nothing under
// internal/ is instrumented.

// Layers are the repo's packages as seen at those boundaries.
type layer uint8

const (
	layerClient  layer = iota // a core.Mount / mab.FS call: core's client side
	layerSimnet               // one transport Call (frames are already []byte)
	layerNFS                  // nfs.Server handler
	layerPastry               // pastry service handler
	layerKosha                // core's kosha service handler (apply, mirror, ...)
	layerOther                // any other registered service
	layerLocalfs              // one call into the contributed store
	numLayers
)

var layerNames = [numLayers]string{"client", "simnet", "nfs", "pastry", "kosha", "other", "localfs"}

// span is one timed call. Start/End are nanoseconds since the tracer was
// created; Trace is the id of the client operation that caused it; Name
// indexes tracer.names. A span holds no pointer, so the garbage collector
// never scans the hundreds of thousands a pass keeps.
type span struct {
	ID, Parent, Trace int32
	Layer             layer
	Name              uint16
	Start, End        int64
	Bytes             int64 // simnet: request+response bytes; localfs: bytes written
}

// tracer keeps every span of a pass in memory. The op path is synchronous
// (no goroutine is started under internal/ on simnet), so one span stack
// gives every span its parent; spans are only recorded while a client
// operation is open, which keeps set-up and stabilisation traffic out.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int32
	trace  int32
	names  []string
	nameID map[string]uint16
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<19), nameID: map[string]uint16{}}
}

// intern returns the id of a span name.
func (t *tracer) intern(name string) uint16 {
	id, ok := t.nameID[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	return id
}

func (t *tracer) open() bool { return t != nil && len(t.stack) > 0 }

// push opens a span under the current top of stack and returns its index.
func (t *tracer) push(layer layer, name uint16) int32 {
	id := int32(len(t.spans)) + 1
	parent := int32(0)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.trace = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// pop closes the span push returned.
func (t *tracer) pop(id int32, bytes int64) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Bytes = bytes
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (children may overlap; the union is subtracted).
// Spans must be in start order with parents before children, which push
// guarantees.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	coveredTo := make([]int64, len(spans)) // per parent: end of the covered prefix
	idx := make(map[int32]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
		self[i] = s.End - s.Start
		coveredTo[i] = s.Start
	}
	for _, s := range spans {
		p, ok := idx[s.Parent]
		if !ok {
			continue
		}
		from, to := s.Start, s.End
		if from < coveredTo[p] {
			from = coveredTo[p]
		}
		if to > spans[p].End {
			to = spans[p].End
		}
		if to > from {
			self[p] -= to - from
			coveredTo[p] = to
		}
	}
	return self
}

// writeSpans dumps the pass as one JSON array per line under a header that
// names the columns.
func writeSpans(path string, spans []span, names []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, `{"columns":["id","parent","trace","layer","name","start_ns","end_ns","bytes"],"spans":[`)
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%q,%q,%d,%d,%d]%s\n", s.ID, s.Parent, s.Trace, layerNames[s.Layer], names[s.Name], s.Start, s.End, s.Bytes, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- transport wrapper ---

// tracedNet is a simnet.CtxTransport that times every Call (layer simnet)
// and every handler it delivers to (layer = the service).
type tracedNet struct {
	*simnet.Network
	t *tracer
}

func serviceLayer(service string) layer {
	switch service {
	case nfs.Service:
		return layerNFS
	case pastry.Service:
		return layerPastry
	case core.KoshaService:
		return layerKosha
	}
	return layerOther
}

func (n *tracedNet) Call(from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	return n.CallCtx(obs.TraceContext{}, from, to, service, req)
}

func (n *tracedNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	if !n.t.open() {
		return n.Network.CallCtx(ctx, from, to, service, req)
	}
	id := n.t.push(layerSimnet, n.t.intern(service))
	resp, cost, err := n.Network.CallCtx(ctx, from, to, service, req)
	n.t.pop(id, int64(len(req)+len(resp)))
	return resp, cost, err
}

func (n *tracedNet) Register(addr simnet.Addr, service string, h simnet.Handler) {
	n.RegisterCtx(addr, service, func(_ obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return h(from, req)
	})
}

func (n *tracedNet) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	layer, name := serviceLayer(service), n.t.intern(service)
	n.Network.RegisterCtx(addr, service, func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		if !n.t.open() {
			return h(ctx, from, req)
		}
		id := n.t.push(layer, name)
		resp, cost, err := h(ctx, from, req)
		n.t.pop(id, 0)
		return resp, cost, err
	})
}

// --- store wrapper ---

// tracedFS times every call core, nfs and repl make into a node's store.
// The capacity accessors pass through the embedded interface untimed.
type tracedFS struct {
	localfs.FileSystem
	t *tracer
}

// OnMutation keeps the wrapped store's localfs.MutationNotifier visible, so
// the merkle cache above it still memoises.
func (f *tracedFS) OnMutation(fn func(path string)) {
	if n, ok := f.FileSystem.(localfs.MutationNotifier); ok {
		n.OnMutation(fn)
	}
}

func (f *tracedFS) in(name string) int32 {
	if !f.t.open() {
		return 0
	}
	return f.t.push(layerLocalfs, f.t.intern(name))
}

func (f *tracedFS) out(id int32, bytes int) {
	if id != 0 {
		f.t.pop(id, int64(bytes))
	}
}

func (f *tracedFS) Getattr(ino uint64) (localfs.Attr, simnet.Cost, error) {
	defer f.out(f.in("Getattr"), 0)
	return f.FileSystem.Getattr(ino)
}

func (f *tracedFS) Setattr(ino uint64, sa localfs.SetAttr) (localfs.Attr, simnet.Cost, error) {
	defer f.out(f.in("Setattr"), 0)
	return f.FileSystem.Setattr(ino, sa)
}

func (f *tracedFS) Lookup(dir uint64, name string) (localfs.Attr, simnet.Cost, error) {
	defer f.out(f.in("Lookup"), 0)
	return f.FileSystem.Lookup(dir, name)
}

func (f *tracedFS) Create(dir uint64, name string, mode uint32, excl bool) (localfs.Attr, simnet.Cost, error) {
	defer f.out(f.in("Create"), 0)
	return f.FileSystem.Create(dir, name, mode, excl)
}

func (f *tracedFS) Mkdir(dir uint64, name string, mode uint32) (localfs.Attr, simnet.Cost, error) {
	defer f.out(f.in("Mkdir"), 0)
	return f.FileSystem.Mkdir(dir, name, mode)
}

func (f *tracedFS) Symlink(dir uint64, name, target string) (localfs.Attr, simnet.Cost, error) {
	defer f.out(f.in("Symlink"), 0)
	return f.FileSystem.Symlink(dir, name, target)
}

func (f *tracedFS) Readlink(ino uint64) (string, simnet.Cost, error) {
	defer f.out(f.in("Readlink"), 0)
	return f.FileSystem.Readlink(ino)
}

func (f *tracedFS) Read(ino uint64, off int64, count int) ([]byte, bool, simnet.Cost, error) {
	defer f.out(f.in("Read"), 0)
	return f.FileSystem.Read(ino, off, count)
}

func (f *tracedFS) Write(ino uint64, off int64, data []byte) (int, simnet.Cost, error) {
	defer f.out(f.in("Write"), len(data))
	return f.FileSystem.Write(ino, off, data)
}

func (f *tracedFS) Remove(dir uint64, name string) (simnet.Cost, error) {
	defer f.out(f.in("Remove"), 0)
	return f.FileSystem.Remove(dir, name)
}

func (f *tracedFS) Rmdir(dir uint64, name string) (simnet.Cost, error) {
	defer f.out(f.in("Rmdir"), 0)
	return f.FileSystem.Rmdir(dir, name)
}

func (f *tracedFS) Rename(sd uint64, sn string, dd uint64, dn string) (simnet.Cost, error) {
	defer f.out(f.in("Rename"), 0)
	return f.FileSystem.Rename(sd, sn, dd, dn)
}

func (f *tracedFS) Readdir(ino uint64) ([]localfs.DirEntry, simnet.Cost, error) {
	defer f.out(f.in("Readdir"), 0)
	return f.FileSystem.Readdir(ino)
}

func (f *tracedFS) LookupPath(p string) (localfs.Attr, error) {
	defer f.out(f.in("LookupPath"), 0)
	return f.FileSystem.LookupPath(p)
}

func (f *tracedFS) MkdirAll(p string) (localfs.Attr, error) {
	defer f.out(f.in("MkdirAll"), 0)
	return f.FileSystem.MkdirAll(p)
}

func (f *tracedFS) RemoveAll(p string) error {
	defer f.out(f.in("RemoveAll"), 0)
	return f.FileSystem.RemoveAll(p)
}

func (f *tracedFS) Walk(p string, fn localfs.WalkFunc) error {
	defer f.out(f.in("Walk"), 0)
	return f.FileSystem.Walk(p, fn)
}

func (f *tracedFS) ReadFile(p string) ([]byte, error) {
	defer f.out(f.in("ReadFile"), 0)
	return f.FileSystem.ReadFile(p)
}

func (f *tracedFS) WriteFile(p string, data []byte) error {
	defer f.out(f.in("WriteFile"), len(data))
	return f.FileSystem.WriteFile(p, data)
}

// --- cluster build ---

// newCluster builds, joins and stabilises an n-node simnet cluster. Untraced
// it is cluster.New; traced it is the same loop (same addresses, same nodeId
// sequence, same per-node seeds) with the transport and every store wrapped,
// which cluster.New has no hook for.
func newCluster(n int, seed uint64, cfg core.Config, t *tracer) (*cluster.Cluster, error) {
	if t == nil {
		return cluster.New(cluster.Options{Nodes: n, Seed: seed, Config: cfg})
	}
	net := simnet.New(simnet.LAN100)
	tnet := &tracedNet{Network: net, t: t}
	c := &cluster.Cluster{Net: net}
	state := seed
	for i := 0; i < n; i++ {
		addr := simnet.Addr(fmt.Sprintf("node%02d", i))
		nodeID := id.Rand128(&state)
		ncfg := cfg
		ncfg.Seed = binary.BigEndian.Uint64(nodeID[:8])
		store := &tracedFS{FileSystem: localfs.New(cfg.Capacity, simnet.Disk7200), t: t}
		nd := core.NewNodeWithStore(addr, nodeID, tnet, ncfg, store)
		var boot simnet.Addr
		if i > 0 {
			boot = c.Nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			return nil, fmt.Errorf("join %s: %w", addr, err)
		}
		c.Nodes = append(c.Nodes, nd)
	}
	c.Stabilize()
	return c, nil
}
