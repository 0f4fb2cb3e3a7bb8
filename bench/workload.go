package main

import (
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/mab"
	"repro/internal/nfs"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// bed is one system under test with a workload's initial state loaded:
// either a Kosha cluster or the plain-NFS baseline.
type bed struct {
	c      *cluster.Cluster // nil on the baseline
	net    *simnet.Network
	w, r   fsClient // writer mount, and a mount on another node for read-back
	reader int      // index of the node b.r is mounted on
	model  *model
	mabRes mab.Result // mab only: the last round's per-phase simulated time
	state  any        // workload-private
}

// remount starts fresh client sessions: new mounts on the same two nodes of
// a Kosha bed, with the handles of dirs resolved again. Nothing is timed or
// counted here. The baseline's clients hold no per-session state and stay.
func (b *bed) remount(dirs []string) error {
	if b.c == nil {
		return nil
	}
	w, r := newKoshaClient(b.c.Mount(0)), newKoshaClient(b.c.Mount(b.reader))
	for _, d := range dirs {
		if _, err := w.dir(d); err != nil {
			return err
		}
	}
	b.w, b.r = w, r
	return nil
}

// stored sums the bytes every node's store holds.
func (b *bed) stored() int64 {
	var n int64
	for _, nd := range b.c.Nodes {
		n += nd.Store().Used()
	}
	return n
}

// workload is one of the benchmark's three op streams. Every round is the
// same fixed amount of work from the same kind of state; seed picks the op
// order and the payload bytes.
type workload interface {
	name() string
	// fixedRounds is R: the rounds whose simulated, count and allocation
	// totals are reported, and that therefore always run.
	fixedRounds() int
	// fresh reports whether every round builds its own bed (mab).
	fresh() bool
	// setup builds the bed for round i (i is ignored unless fresh) on Kosha,
	// or on the plain-NFS baseline when baseline is set.
	setup(i int, t *tracer, baseline bool) (*bed, error)
	// prepare readies b for round i outside every clock and counter. The
	// long-lived beds get fresh client mounts here: a round is one client
	// session, so per-mount state cannot make later rounds differ from
	// earlier ones (Mount.WriteFile, for one, never forgets the directory
	// handle its MkdirAll returns).
	prepare(b *bed, i int) error
	// round runs round i on b through m and returns the simulated time that
	// is the numerator (or, on the baseline, the denominator) of
	// sim_vs_nfs_ratio.
	round(b *bed, i int, m *meter) simnet.Cost
	// verify reads everything the model says exists back through b.r.
	verify(b *bed, m *meter)
}

// pinned holds every wall-clock-driven knob still: the metadata TTLs are an
// hour (or the caches are off), ring-walk reuse and op tracing are off, so
// simulated and count metrics are a pure function of the seed.
func pinned(c core.Config) core.Config {
	c.TraceBufSize = -1
	c.RingCacheTTL = -1
	if !c.NoMetadataCache {
		c.AttrCacheTTL = time.Hour
		c.NameCacheTTL = time.Hour
	}
	return c
}

func newBaselineBed(seed uint64) *bed {
	net := simnet.New(simnet.LAN100)
	srv := nfs.NewServer(localfs.New(0, simnet.Disk7200), 1)
	srv.Attach(net, "server")
	net.AddNode("client")
	cl := newNFSClient(nfs.NewClient(net, "client"), "server", srv.Root())
	return &bed{net: net, w: cl, r: newNFSClient(nfs.NewClient(net, "client2"), "server", srv.Root()), model: newModel(seed)}
}

func newKoshaBed(n int, idSeed, seed uint64, cfg core.Config, t *tracer, reader int) (*bed, error) {
	c, err := newCluster(n, idSeed, pinned(cfg), t)
	if err != nil {
		return nil, err
	}
	return &bed{c: c, net: c.Net, w: newKoshaClient(c.Mount(0)), r: newKoshaClient(c.Mount(reader)), reader: reader, model: newModel(seed)}, nil
}

// ---------------------------------------------------------------- mab ---

// mabWorkload is the paper's Modified Andrew Benchmark in the Table 1
// configuration: 8 nodes, L=1, K=1, 35 GB per node, warm metadata caches,
// a fresh cluster per round with nodeId seed seed+7919·i exactly as
// experiments.RunTable1 varies them.
type mabWorkload struct {
	seed  uint64
	work  *mab.Workload // mab.Generate(cfg, seed): the tree and file sizes
	nodes int
}

func (w *mabWorkload) name() string     { return "mab" }
func (w *mabWorkload) fixedRounds() int { return 5 }
func (w *mabWorkload) fresh() bool      { return true }

func (w *mabWorkload) setup(i int, t *tracer, baseline bool) (*bed, error) {
	if baseline {
		b := &bed{model: newModel(w.seed)}
		b.state = mab.NewBaseline(simnet.LAN100, simnet.Disk7200)
		return b, nil
	}
	c, err := newCluster(w.nodes, w.seed+uint64(i)*7919, pinned(core.Config{
		DistributionLevel: 1, Replicas: 1, Capacity: 35 << 30,
	}), t)
	if err != nil {
		return nil, err
	}
	b := &bed{c: c, net: c.Net, model: newModel(w.seed)}
	b.state = mab.NewKoshaFS(c.Mount(0))
	return b, nil
}

// meteredMAB is the mab.FS the benchmark hands mab.Run: it times each call,
// and keeps a checksum of every acknowledged write that every read is
// compared with (mab.Run generates its own payloads).
type meteredMAB struct {
	fs   mab.FS
	m    *meter
	sums map[string]fileState // key = crc32, size = length
}

func sumOf(data []byte) fileState {
	return fileState{key: uint64(crc32.ChecksumIEEE(data)), size: len(data)}
}

func (f *meteredMAB) MkdirAll(p string) (simnet.Cost, error) {
	t := f.m.begin("MkdirAll")
	c, err := f.fs.MkdirAll(p)
	f.m.end(t, clMkdir, c, 0, 0, err)
	return c, err
}

func (f *meteredMAB) WriteFile(p string, data []byte) (simnet.Cost, error) {
	t := f.m.begin("WriteFile")
	c, err := f.fs.WriteFile(p, data)
	f.m.end(t, clWrite, c, 0, len(data), err)
	if err == nil {
		f.sums[p] = sumOf(data)
	}
	return c, err
}

func (f *meteredMAB) ReadFile(p string) ([]byte, simnet.Cost, error) {
	t := f.m.begin("ReadFile")
	data, c, err := f.fs.ReadFile(p)
	f.m.end(t, clRead, c, len(data), 0, err)
	if err == nil {
		f.check(p, data)
	}
	return data, c, err
}

func (f *meteredMAB) check(p string, data []byte) {
	var err error
	if want, ok := f.sums[p]; !ok || want != sumOf(data) {
		err = fmt.Errorf("mab read %s: bytes differ from the acknowledged write", p)
	}
	f.m.verify(err)
}

func (f *meteredMAB) Stat(p string) (simnet.Cost, error) {
	t := f.m.begin("Stat")
	c, err := f.fs.Stat(p)
	f.m.end(t, clStat, c, 0, 0, err)
	return c, err
}

func (w *mabWorkload) prepare(*bed, int) error { return nil }

func (w *mabWorkload) round(b *bed, _ int, m *meter) simnet.Cost {
	fs := &meteredMAB{fs: b.state.(mab.FS), m: m, sums: map[string]fileState{}}
	res, err := mab.Run(fs, w.work)
	if err != nil {
		m.fail(err)
	}
	b.model.files = fs.sums
	b.mabRes = res
	return res.Total()
}

func (w *mabWorkload) verify(b *bed, m *meter) {
	fs := mab.NewKoshaFS(b.c.Mount(w.nodes / 2))
	ck := &meteredMAB{m: m, sums: b.model.files}
	for _, p := range sortedKeys(b.model.files) {
		data, _, err := fs.ReadFile(p)
		if err != nil {
			m.fail(fmt.Errorf("read-back %s: %w", p, err))
			continue
		}
		ck.check(p, data)
	}
}

// --------------------------------------------------------------- meta ---

// metaWorkload is cold small operations: 32 nodes, L=2, K=2, no client
// metadata cache, a long-lived cluster preloaded with the Purdue-trace tree.
// A round is `blocks` blocks of an exact 100-slot mix (101 calls: the rename
// slot goes there and back).
type metaWorkload struct {
	seed   uint64
	nodes  int
	tree   trace.FSConfig
	blocks int
}

// metaTreeSeed fixes the tree shape (and, with metaIDSeed, the placement) so
// count metrics do not move with --seed.
const (
	metaTreeSeed = 2004
	metaIDSeed   = 130
	metaMaxFile  = 4 << 10
)

func (w *metaWorkload) name() string     { return "meta" }
func (w *metaWorkload) fixedRounds() int { return 5 }
func (w *metaWorkload) fresh() bool      { return false }

type metaState struct {
	files    []string // every preloaded file
	statable []string // files whose path has 4-6 components
	dirs     []string // every directory (readdir targets)
	deep     []string // directories at depth >= 2: children are below the distribution level
	version  map[string]uint32
	buf      []byte
}

func (w *metaWorkload) setup(_ int, t *tracer, baseline bool) (*bed, error) {
	var b *bed
	if baseline {
		b = newBaselineBed(w.seed)
	} else {
		var err error
		b, err = newKoshaBed(w.nodes, metaIDSeed, w.seed, core.Config{
			DistributionLevel: 2, Replicas: 2, NoMetadataCache: true,
		}, t, w.nodes/2)
		if err != nil {
			return nil, err
		}
	}
	st := &metaState{version: map[string]uint32{}, buf: make([]byte, metaMaxFile)}
	for _, f := range trace.GenFS(w.tree, metaTreeSeed).Files {
		dir, _ := path.Dir(f.Path), path.Base(f.Path)
		if err := b.w.MkdirAll(dir); err != nil {
			return nil, err
		}
		size := int(f.Size)
		if size > metaMaxFile {
			size = metaMaxFile
		}
		key := b.model.wrote(f.Path, 0, size)
		fill(st.buf[:size], key, 0)
		if _, err := b.w.WriteFile(f.Path, st.buf[:size]); err != nil {
			return nil, fmt.Errorf("preload %s: %w", f.Path, err)
		}
		st.files = append(st.files, f.Path)
		if n := len(core.SplitVirtual(f.Path)); n >= 4 && n <= 6 {
			st.statable = append(st.statable, f.Path)
		}
	}
	for _, d := range sortedKeys(b.model.dirs) {
		if d == "/" {
			continue
		}
		st.dirs = append(st.dirs, d)
		if len(core.SplitVirtual(d)) >= 2 {
			st.deep = append(st.deep, d)
		}
	}
	if len(st.statable) == 0 || len(st.deep) == 0 {
		return nil, fmt.Errorf("meta: tree too small (%d statable files, %d deep dirs)", len(st.statable), len(st.deep))
	}
	b.state = st
	return b, nil
}

// The mix per 100 slots.
const (
	slStat = iota
	slRead
	slOverwrite
	slReaddir
	slReaddirRoot
	slCreate
	slRemove
	slMkdir
	slRmdir
	slRename
)

var metaMix = []struct{ slot, n int }{
	{slStat, 40}, {slRead, 15}, {slOverwrite, 15}, {slReaddir, 12}, {slReaddirRoot, 3},
	{slCreate, 5}, {slRemove, 5}, {slMkdir, 2}, {slRmdir, 2}, {slRename, 1},
}

type metaSlot struct{ kind, k int } // k pairs create/remove and mkdir/rmdir

// metaBlock returns one shuffled block of the mix in which every remove
// comes after its create and every rmdir after its mkdir.
func metaBlock(r *rng) []metaSlot {
	var slots []metaSlot
	for _, mx := range metaMix {
		for k := 0; k < mx.n; k++ {
			slots = append(slots, metaSlot{mx.slot, k})
		}
	}
	for i := len(slots) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
	swapAfter := func(first, second int) {
		pos := map[int]int{}
		for i, s := range slots {
			if s.kind == first {
				pos[s.k] = i
			}
		}
		for i, s := range slots {
			if s.kind == second && i < pos[s.k] {
				j := pos[s.k]
				slots[i], slots[j] = slots[j], slots[i]
			}
		}
	}
	swapAfter(slCreate, slRemove)
	swapAfter(slMkdir, slRmdir)
	return slots
}

func (w *metaWorkload) prepare(b *bed, _ int) error { return b.remount(b.state.(*metaState).dirs) }

func (w *metaWorkload) round(b *bed, i int, m *meter) simnet.Cost {
	st := b.state.(*metaState)
	r := &rng{s: mix64(w.seed ^ uint64(i)*0x51ed27)}
	cl, md := b.w, b.model
	before := m.cur.cost
	for blk := 0; blk < w.blocks; blk++ {
		// Where this block's create/remove and mkdir/rmdir pairs live.
		var made [5]string
		var madeDir [2]string
		for _, s := range metaBlock(r) {
			switch s.kind {
			case slStat:
				p := st.statable[r.intn(len(st.statable))]
				t := m.begin("LookupPath")
				size, isDir, c, err := cl.Stat(p)
				m.end(t, clStat, c, 0, 0, err)
				if err == nil {
					var verr error
					if isDir || int(size) != md.files[p].size {
						verr = fmt.Errorf("stat %s: size %d dir=%v, want %d", p, size, isDir, md.files[p].size)
					}
					m.verify(verr)
				}
			case slRead:
				p := st.files[r.intn(len(st.files))]
				t := m.begin("ReadFile")
				data, c, err := cl.ReadFile(p)
				m.end(t, clRead, c, len(data), 0, err)
				if err == nil {
					m.verify(md.checkFile(p, data))
				}
			case slOverwrite:
				p := st.files[r.intn(len(st.files))]
				st.version[p]++
				size := md.files[p].size
				key := contentKey(md.seed, p, st.version[p])
				fill(st.buf[:size], key, 0)
				t := m.begin("WriteFile")
				c, err := cl.WriteFile(p, st.buf[:size])
				m.end(t, clWrite, c, 0, size, err)
				if err == nil {
					md.files[p] = fileState{key: key, size: size}
				}
			case slReaddir, slReaddirRoot:
				d := "/"
				if s.kind == slReaddir {
					d = st.dirs[r.intn(len(st.dirs))]
				}
				t := m.begin("Readdir")
				ents, c, err := cl.Readdir(d)
				m.end(t, clReaddir, c, 0, 0, err)
				if err == nil {
					m.verify(md.checkListing(d, ents))
				}
			case slCreate:
				d := st.deep[r.intn(len(st.deep))]
				name := fmt.Sprintf("bn%d.%d", blk, s.k)
				t := m.begin("Create")
				h, c, err := cl.Create(d, name)
				m.end(t, clMkdir, c, 0, 0, err)
				if err == nil {
					cl.Release(h)
					md.setFile(path.Join(d, name), fileState{})
					made[s.k] = path.Join(d, name)
				}
			case slRemove:
				if made[s.k] == "" {
					continue
				}
				d, name := path.Dir(made[s.k]), path.Base(made[s.k])
				t := m.begin("Remove")
				c, err := cl.Remove(d, name)
				m.end(t, clRemove, c, 0, 0, err)
				if err == nil {
					md.rmFile(made[s.k])
				}
			case slMkdir:
				d := st.deep[r.intn(len(st.deep))]
				name := fmt.Sprintf("bd%d.%d", blk, s.k)
				t := m.begin("Mkdir")
				c, err := cl.Mkdir(d, name)
				m.end(t, clMkdir, c, 0, 0, err)
				if err == nil {
					md.addDir(path.Join(d, name))
					madeDir[s.k] = path.Join(d, name)
				}
			case slRmdir:
				if madeDir[s.k] == "" {
					continue
				}
				d, name := path.Dir(madeDir[s.k]), path.Base(madeDir[s.k])
				t := m.begin("Rmdir")
				c, err := cl.Rmdir(d, name)
				m.end(t, clRemove, c, 0, 0, err)
				if err == nil {
					md.rmDir(madeDir[s.k])
				}
			case slRename:
				// There and back: the file's bytes stay those of its path at
				// write time, and the population is unchanged after the slot.
				p := st.statable[r.intn(len(st.statable))]
				d, name := path.Dir(p), path.Base(p)
				fs := md.files[p]
				for _, mv := range [2][2]string{{name, name + ".mv"}, {name + ".mv", name}} {
					t := m.begin("Rename")
					c, err := cl.Rename(d, mv[0], mv[1])
					m.end(t, clRename, c, 0, 0, err)
					if err == nil {
						md.rmFile(path.Join(d, mv[0]))
						md.setFile(path.Join(d, mv[1]), fs)
					}
				}
			}
		}
	}
	return m.cur.cost - before
}

func (w *metaWorkload) verify(b *bed, m *meter) { verifyModel(b, m) }

// verifyModel reads every file and lists every directory of the model
// through the bed's second mount.
func verifyModel(b *bed, m *meter) {
	for _, p := range sortedKeys(b.model.files) {
		data, _, err := b.r.ReadFile(p)
		if err != nil {
			m.fail(fmt.Errorf("read-back %s: %w", p, err))
			continue
		}
		m.verify(b.model.checkFile(p, data))
	}
	for _, d := range sortedKeys(b.model.dirs) {
		ents, _, err := b.r.Readdir(d)
		if err != nil {
			m.fail(fmt.Errorf("list-back %s: %w", d, err))
			continue
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		m.verify(b.model.checkListing(d, ents))
	}
}

// ------------------------------------------------------------- stream ---

// streamWorkload is bulk data both ways: 8 nodes, K=2, a 4-chunk readahead
// window and a 1 MiB write-back buffer. A round writes `files` files of
// `fileBytes` in 32 KiB calls and closes them, re-opens them through a mount
// on another node, reads them sequentially in 32 KiB calls, pokes `pokes`
// random 64 KiB reads at them, and removes them.
type streamWorkload struct {
	seed      uint64
	nodes     int
	files     int
	fileBytes int
	pokes     int
}

const (
	streamIDSeed = 64
	streamChunk  = 32 << 10
	streamPoke   = 64 << 10
	streamDir    = "/stream"
)

func (w *streamWorkload) name() string     { return "stream" }
func (w *streamWorkload) fixedRounds() int { return 5 }
func (w *streamWorkload) fresh() bool      { return false }

func (w *streamWorkload) setup(_ int, t *tracer, baseline bool) (*bed, error) {
	var b *bed
	if baseline {
		b = newBaselineBed(w.seed)
	} else {
		var err error
		b, err = newKoshaBed(w.nodes, streamIDSeed, w.seed, core.Config{
			Replicas: 2, ReadaheadChunks: 4, WriteBackBytes: 1 << 20,
		}, t, w.nodes/2)
		if err != nil {
			return nil, err
		}
	}
	if err := b.w.MkdirAll(streamDir); err != nil {
		return nil, err
	}
	// One file outlives every round, so the final read-back through the
	// other mount has bytes to judge.
	buf := make([]byte, streamPoke)
	key := b.model.wrote(streamDir+"/keep", 0, len(buf))
	fill(buf, key, 0)
	if _, err := b.w.WriteFile(streamDir+"/keep", buf); err != nil {
		return nil, err
	}
	b.state = buf
	return b, nil
}

func (w *streamWorkload) prepare(b *bed, _ int) error { return b.remount([]string{streamDir}) }

func (w *streamWorkload) round(b *bed, i int, m *meter) simnet.Cost {
	buf := b.state.([]byte)
	r := &rng{s: mix64(w.seed ^ uint64(i)*0x2545f5)}
	before := m.cur.cost
	names := make([]string, w.files)
	keys := make([]uint64, w.files)
	for f := range names {
		names[f] = fmt.Sprintf("f%d", f)
		p := path.Join(streamDir, names[f])
		keys[f] = contentKey(w.seed, p, uint32(i)+1)
		t := m.begin("Create")
		h, c, err := b.w.Create(streamDir, names[f])
		m.end(t, clMkdir, c, 0, 0, err)
		if err != nil {
			continue
		}
		for off := 0; off < w.fileBytes; off += streamChunk {
			fill(buf[:streamChunk], keys[f], int64(off))
			t := m.begin("Write")
			c, err := b.w.Write(h, int64(off), buf[:streamChunk])
			m.end(t, clWrite, c, 0, streamChunk, err)
		}
		t = m.begin("Close")
		c, err = b.w.Close(h)
		m.end(t, clWrite, c, 0, 0, err)
		if err == nil {
			b.model.setFile(p, fileState{key: keys[f], size: w.fileBytes})
		}
	}
	// Read back through the mount on another node.
	hs := make([]handle, w.files)
	for f, name := range names {
		p := path.Join(streamDir, name)
		t := m.begin("LookupPath")
		h, size, c, err := b.r.Open(p)
		m.end(t, clStat, c, 0, 0, err)
		if err != nil {
			continue
		}
		hs[f] = h
		var verr error
		if int(size) != w.fileBytes {
			verr = fmt.Errorf("open %s: size %d, want %d", p, size, w.fileBytes)
		}
		m.verify(verr)
		for off := 0; off < w.fileBytes; off += streamChunk {
			t := m.begin("Read")
			data, c, err := b.r.Read(h, int64(off), streamChunk)
			m.end(t, clRead, c, len(data), 0, err)
			if err == nil {
				m.verify(checkRange(p, data, keys[f], int64(off), streamChunk))
			}
		}
	}
	for k := 0; k < w.pokes; k++ {
		f := k % w.files
		off := int64(r.intn(w.fileBytes/streamPoke)) * streamPoke
		t := m.begin("Read")
		data, c, err := b.r.Read(hs[f], off, streamPoke)
		m.end(t, clRead, c, len(data), 0, err)
		if err == nil {
			m.verify(checkRange(names[f], data, keys[f], off, streamPoke))
		}
	}
	for f, name := range names {
		b.r.Release(hs[f])
		t := m.begin("Remove")
		c, err := b.w.Remove(streamDir, name)
		m.end(t, clRemove, c, 0, 0, err)
		if err == nil {
			b.model.rmFile(path.Join(streamDir, name))
		}
	}
	return m.cur.cost - before
}

func checkRange(p string, data []byte, key uint64, off int64, want int) error {
	if len(data) != want {
		return fmt.Errorf("read %s@%d: %d bytes, want %d", p, off, len(data), want)
	}
	if !check(data, key, off) {
		return fmt.Errorf("read %s@%d: content mismatch", p, off)
	}
	return nil
}

func (w *streamWorkload) verify(b *bed, m *meter) { verifyModel(b, m) }

// newWorkload returns the named workload at full or quick size.
func newWorkload(name string, seed uint64, quick bool) (workload, error) {
	switch name {
	case "mab":
		cfg := mab.Paper51MB()
		if quick {
			cfg = mab.Tiny()
		}
		return &mabWorkload{seed: seed, work: mab.Generate(cfg, seed), nodes: 8}, nil
	case "meta":
		w := &metaWorkload{seed: seed, nodes: 32, tree: trace.SmallFSConfig(), blocks: 20}
		if quick {
			w.tree = trace.FSConfig{Users: 4, Files: 120, TotalBytes: 256 << 10, MaxDepth: 6}
			w.blocks = 1
		}
		return w, nil
	case "stream":
		w := &streamWorkload{seed: seed, nodes: 8, files: 2, fileBytes: 32 << 20, pokes: 64}
		if quick {
			w.fileBytes, w.pokes = 1<<20, 8
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want mab, meta or stream)", name)
}
