package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diskfs"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/pastry"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// The ledger times direct calls into each layer's public functions,
// testing.Benchmark-style, and covers the layers and sizes no workload
// reaches: loopback TCP, the on-disk store, 100- and 1000-node overlays, the
// chunker, the digest tree, replica repair, maintenance and op tracing. None
// of it is bounded; it is where a later PR looks for the layer to change and
// reads the price of one call there.

// sample is one ledger measurement: per-iteration time, allocations, bytes.
type sample struct{ ns, allocs, bytes float64 }

// measure runs f(n) with growing n until one call fills the budget, and
// reports that call per iteration.
func measure(budget time.Duration, f func(n int)) sample {
	var m0, m1 runtime.MemStats
	for n := 1; ; {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		f(n)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		if d >= budget || n >= 1<<30 {
			return sample{float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n),
				float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)}
		}
		next := n * 2
		if d > 0 {
			if want := int(1.2 * float64(n) * float64(budget) / float64(d)); want > next {
				next = want
			}
		}
		if next > 100*n {
			next = 100 * n
		}
		n = next
	}
}

var ledgerSink int

func ledger(out map[string]metric, o options) error {
	budget, scale := 150*time.Millisecond, 1
	if o.quick {
		budget, scale = time.Millisecond, 16
	}
	for _, part := range []func(map[string]metric, time.Duration, int) error{
		ledgerWire, ledgerSimnet, ledgerTCP, ledgerNFS, ledgerPastry, ledgerCore, ledgerRepl,
	} {
		if err := part(out, budget, scale); err != nil {
			return err
		}
	}
	return ledgerStore(out, budget, scale, o.outDir)
}

func ledgerWire(out map[string]metric, budget time.Duration, _ int) error {
	// A LOOKUP request as nfs.Client frames it: proc, xid, handle, name.
	encode := func() *wire.Encoder {
		e := wire.NewEncoder(256)
		e.PutUint32(3)
		e.PutUint64(12345)
		e.PutUint64(1)
		e.PutUint64(42)
		e.PutString("src042.c")
		return e
	}
	s := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			ledgerSink += encode().Len()
		}
	})
	out["wire.encode_lookup_ns"] = metric{s.ns, "ns"}
	frame := encode().Bytes()
	s = measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			d := wire.NewDecoder(frame)
			ledgerSink += int(d.Uint32()) + int(d.Uint64()) + int(d.Uint64()) + int(d.Uint64()) + len(d.String())
		}
	})
	out["wire.decode_lookup_ns"] = metric{s.ns, "ns"}
	out["wire.decode_lookup_B"] = metric{s.bytes, "B"}
	buf := make([]byte, 32<<10)
	s = measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			e := wire.NewEncoder(256)
			e.PutOpaque(buf)
			ledgerSink += len(wire.NewDecoder(e.Bytes()).Opaque())
		}
	})
	out["wire.opaque32k_B"] = metric{s.bytes, "B"}
	return nil
}

func echo(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) { return req, 0, nil }

func ledgerSimnet(out map[string]metric, budget time.Duration, _ int) error {
	net := simnet.New(simnet.LAN100)
	net.Register("b", "echo", echo)
	req := make([]byte, 64)
	var err error
	s := measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, _, err = net.Call("a", "b", "echo", req)
		}
	})
	out["simnet.call_ns"] = metric{s.ns, "ns"}
	return err
}

// ledgerTCP measures loopback round trips. A sandbox without loopback
// sockets reports zeros rather than failing the run: TCP is not on any
// workload's path.
func ledgerTCP(out map[string]metric, budget time.Duration, _ int) error {
	for _, k := range []string{"tcpnet.rtt_us.c1", "tcpnet.rtt_us.c2", "tcpnet.rtt32k_us.c1"} {
		out[k] = metric{0, "us"}
	}
	out["tcpnet.call_allocs"] = metric{0, "count"}
	srv, err := tcpnet.Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: ledger: no loopback TCP, tcpnet.* reported as 0:", err)
		return nil
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", echo)
	cli := tcpnet.Dialer("client", simnet.LAN100)
	defer cli.Close()
	var mu sync.Mutex
	var callErr error
	calls := func(req []byte, n int) {
		for i := 0; i < n; i++ {
			if _, _, err := cli.Call("client", srv.Addr(), "echo", req); err != nil {
				mu.Lock()
				callErr = err
				mu.Unlock()
				return
			}
		}
	}
	small, big := make([]byte, 64), make([]byte, 32<<10)
	s := measure(budget, func(n int) { calls(small, n) })
	out["tcpnet.rtt_us.c1"] = metric{s.ns / 1e3, "us"}
	out["tcpnet.call_allocs"] = metric{s.allocs, "count"}
	// Two callers share the per-peer connection: each sees the other's round
	// trip queued in front of its own.
	s = measure(budget, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calls(small, n)
			}()
		}
		wg.Wait()
	})
	out["tcpnet.rtt_us.c2"] = metric{s.ns / 1e3, "us"}
	s = measure(budget, func(n int) { calls(big, n) })
	out["tcpnet.rtt32k_us.c1"] = metric{s.ns / 1e3, "us"}
	return callErr
}

func ledgerNFS(out map[string]metric, budget time.Duration, _ int) error {
	net := simnet.New(simnet.LAN100)
	store := localfs.New(0, simnet.Disk7200)
	srv := nfs.NewServer(store, 1)
	srv.Attach(net, "server")
	c := nfs.NewClient(net, "client")
	buf := make([]byte, 32<<10)
	fh, _, _, err := c.Create("server", srv.Root(), "f", 0o644, false)
	if err != nil {
		return err
	}
	if _, _, err = c.Write("server", fh, 0, make([]byte, 2<<20)); err != nil {
		return err
	}
	s := measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, _, _, err = c.Lookup("server", srv.Root(), "f")
		}
	})
	out["nfs.lookup_ns"] = metric{s.ns, "ns"}
	out["nfs.lookup_allocs"] = metric{s.allocs, "count"}
	s = measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, _, _, err = c.Read("server", fh, int64(i%64)*(32<<10), 32<<10)
		}
	})
	out["nfs.read32k_B"] = metric{s.bytes, "B"}
	s = measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, _, err = c.Write("server", fh, int64(i%64)*(32<<10), buf)
		}
	})
	out["nfs.write32k_B"] = metric{s.bytes, "B"}
	return err
}

// overlay builds an n-node pastry-only overlay and reports the mean wall
// time of one join.
func overlay(n int, seed uint64) (*simnet.Network, []*pastry.Node, float64, error) {
	net := simnet.New(simnet.LAN100)
	nodes := make([]*pastry.Node, n)
	t0 := time.Now()
	for i := range nodes {
		nodes[i] = pastry.NewNode(id.Rand128(&seed), simnet.Addr(fmt.Sprintf("p%04d", i)), net, pastry.DefaultLeafSize)
		nodes[i].Attach()
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Info().Addr
		}
		if _, err := nodes[i].Bootstrap(boot); err != nil {
			return nil, nil, 0, fmt.Errorf("pastry join %d/%d: %w", i, n, err)
		}
	}
	joinMS := time.Since(t0).Seconds() * 1e3 / float64(n)
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			nd.Stabilize()
		}
	}
	return net, nodes, joinMS, nil
}

func ledgerPastry(out map[string]metric, budget time.Duration, scale int) error {
	for _, size := range []int{100, 1000} {
		net, nodes, joinMS, err := overlay(size/scale, 11)
		if err != nil {
			return err
		}
		r := rng{s: uint64(size)}
		hops, routes := 0, 400
		for i := 0; i < routes; i++ {
			res, err := nodes[r.intn(len(nodes))].Route(id.HashKey(fmt.Sprint("key", i)))
			if err != nil {
				return err
			}
			hops += res.Hops
		}
		out[fmt.Sprintf("pastry.route_hops.n%d", size)] = metric{float64(hops) / float64(routes), "count"}
		if size == 100 {
			out["pastry.join_ms.n100"] = metric{joinMS, "ms"}
			before := net.Stats().Messages
			ring, _ := nodes[0].EnumerateRing()
			if len(ring) < len(nodes)-1 {
				return fmt.Errorf("pastry: ring walk saw %d of %d nodes", len(ring), len(nodes))
			}
			out["pastry.enumerate_ring_rpcs.n100"] = metric{float64(net.Stats().Messages - before), "count"}
			continue
		}
		key := id.HashKey("ledger")
		s := measure(budget, func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = nodes[i%len(nodes)].Route(key)
			}
		})
		out["pastry.route_ns.n1000"] = metric{s.ns, "ns"}
		if err != nil {
			return err
		}
	}
	return nil
}

// ledgerFile is the 4-component path the core lookups resolve.
const ledgerFile = "/a/b/c/file.txt"

// lookups returns n resolve-and-forget calls on m as a measure body.
func lookups(m *core.Mount, errp *error) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			vh, _, _, err := m.LookupPath(ledgerFile)
			if err != nil {
				*errp = err
				return
			}
			m.Forget(vh)
		}
	}
}

func ledgerCore(out map[string]metric, budget time.Duration, scale int) error {
	// Warm (metadata caches on), cold (off) and traced (op tracing on) arms of
	// the same 4-component lookup on the same 8-node, L=2 cluster shape.
	arms := []struct {
		cfg    core.Config
		prefix string
	}{
		{pinned(core.Config{DistributionLevel: 2}), "core.lookup_warm"},
		{pinned(core.Config{DistributionLevel: 2, NoMetadataCache: true}), "core.lookup_cold"},
		{core.Config{DistributionLevel: 2, AttrCacheTTL: time.Hour, NameCacheTTL: time.Hour, RingCacheTTL: -1}, "obs.lookup_traced"},
	}
	for _, arm := range arms {
		c, err := cluster.New(cluster.Options{Nodes: 8, Seed: 5, Config: arm.cfg})
		if err != nil {
			return err
		}
		m := c.Mount(0)
		if _, err := m.WriteFile(ledgerFile, []byte("x")); err != nil {
			return err
		}
		s := measure(budget, lookups(m, &err))
		if err != nil {
			return err
		}
		out[arm.prefix+"_ns"] = metric{s.ns, "ns"}
		if arm.prefix != "obs.lookup_traced" {
			out[arm.prefix+"_allocs"] = metric{s.allocs, "count"}
		}
		if arm.prefix == "core.lookup_warm" {
			if err := ledgerCoreWarm(out, c, m, budget, scale); err != nil {
				return err
			}
		}
	}
	// Root listing on a 100-node ring: the O(N) walk, as a message count.
	c, err := cluster.New(cluster.Options{Nodes: 100 / scale, Seed: 9, Config: pinned(core.Config{})})
	if err != nil {
		return err
	}
	m := c.Mount(0)
	for u := 0; u < 12; u++ {
		if _, _, err := m.MkdirAll(fmt.Sprintf("/u%03d", u)); err != nil {
			return err
		}
	}
	before := c.Net.Stats().Messages
	ents, _, err := m.Readdir(m.Root())
	if err != nil || len(ents) != 12 {
		return fmt.Errorf("ledger root listing: %d entries, err %v", len(ents), err)
	}
	out["core.readdir_root_rpcs.n100"] = metric{float64(c.Net.Stats().Messages - before), "count"}
	return nil
}

// ledgerCoreWarm is the rest of the warm arm: two concurrent callers and
// 32 KiB data calls on the same mount m, and what a fresh mount on c keeps per
// WriteFile.
func ledgerCoreWarm(out map[string]metric, c *cluster.Cluster, m *core.Mount, budget time.Duration, scale int) error {
	var gerr [2]error
	s := measure(budget, func(n int) {
		var wg sync.WaitGroup
		for g := range gerr {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lookups(m, &gerr[g])(n)
			}()
		}
		wg.Wait()
	})
	for _, err := range gerr {
		if err != nil {
			return err
		}
	}
	out["core.lookup_warm_ns.c2"] = metric{s.ns, "ns"}
	// 32 KiB data calls, write-through and stop-and-wait: the copy
	// amplification of one call, with no buffering to hide it.
	buf := make([]byte, 32<<10)
	dir, _, err := m.MkdirAll("/bench")
	if err != nil {
		return err
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		return err
	}
	s = measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, _, err = m.Write(fvh, int64(i%64)*(32<<10), buf)
		}
	})
	if err != nil {
		return err
	}
	out["core.write32k_B"] = metric{s.bytes, "B"}
	s = measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, _, _, err = m.Read(fvh, int64(i%64)*(32<<10), 32<<10)
		}
	})
	if err != nil {
		return err
	}
	out["core.read32k_B"] = metric{s.bytes, "B"}
	// What a mount keeps per WriteFile: the file is overwritten in place, so
	// the stores do not grow and every heap object still live after a
	// collection is state the mount (or its node) never lets go. The workloads
	// remount before every round and cannot see this; a client that stays
	// mounted does. A fresh mount, because the handle table of m has been
	// through millions of inserts and deletes and sheds buckets as it grows.
	kept := c.Mount(0)
	writes := 2048 / scale
	live := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle lets go of what sync.Pool held through the first
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapObjects)
	}
	before := live()
	for i := 0; i < writes && err == nil; i++ {
		_, err = kept.WriteFile("/bench/kept", buf[:4<<10])
	}
	if err != nil {
		return err
	}
	out["core.writefile_retained_objs"] = metric{(live() - before) / float64(writes), "count"}
	runtime.KeepAlive(kept)
	return nil
}

// noise fills n bytes that no chunk of which repeats.
func noise(n int, seed uint64) []byte {
	b := make([]byte, n)
	fill(b, seed, 0)
	return b
}

// staleReplica builds a cluster holding one blob under /job, then applies a
// 16-byte edit at the primary while the node that would take over (or, for
// K=1, the replica) is partitioned away, leaving that copy one chunk stale.
func staleReplica(nodes, replicas, blob int) (c *cluster.Cluster, primary *core.Node, pi int, err error) {
	cfg := pinned(core.Config{Replicas: replicas, Capacity: 35 << 30, NoAutoSync: true})
	if c, err = cluster.New(cluster.Options{Nodes: nodes, Seed: 29, Config: cfg}); err != nil {
		return
	}
	data := noise(blob, 7)
	if _, err = c.Mount(0).WriteFile("/job/blob.bin", data); err != nil {
		return
	}
	c.Stabilize()
	pl, _, err := c.Nodes[0].ResolvePath("/job")
	if err != nil {
		return
	}
	for i, nd := range c.Nodes {
		if nd.Addr() == pl.Node {
			primary, pi = nd, i
		}
	}
	cands := primary.Overlay().ReplicaCandidates(replicas)
	if len(cands) < replicas {
		err = fmt.Errorf("ledger: %d replica candidates, want %d", len(cands), replicas)
		return
	}
	ids := make([]id.ID, len(cands))
	for i, cd := range cands {
		ids[i] = cd.ID
	}
	best, _ := id.Closest(core.Key("job"), ids)
	stale := cands[0].Addr
	for _, cd := range cands {
		if cd.ID == best {
			stale = cd.Addr
		}
	}
	c.Net.SetPartition(func(a, b simnet.Addr) bool {
		return (a == primary.Addr() && b == stale) || (a == stale && b == primary.Addr())
	})
	copy(data[blob/2:], "EDITED-SIXTEEN-B")
	_, err = primary.NewMount().WriteFile("/job/blob.bin", data)
	c.Net.SetPartition(nil)
	for round := 0; round < 3; round++ {
		for _, nd := range c.Nodes {
			nd.Overlay().Stabilize()
		}
	}
	return
}

func ledgerRepl(out map[string]metric, budget time.Duration, scale int) error {
	blob := (4 << 20) / scale
	// Delta push: a 16-byte edit in the blob, resynced to the stale replica.
	c, primary, _, err := staleReplica(4, 1, blob)
	if err != nil {
		return err
	}
	c.Net.ResetStats()
	t0 := time.Now()
	primary.SyncReplicas()
	out["repl.delta_edit_ms"] = metric{time.Since(t0).Seconds() * 1e3, "ms"}
	out["repl.delta_edit_bytes"] = metric{float64(c.Net.ServiceStats(core.KoshaService).Bytes), "B"}
	// Converged now: a sync that has nothing to ship.
	s := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			primary.SyncReplicas()
		}
	})
	out["repl.sync_noop_us"] = metric{s.ns / 1e3, "us"}
	// Maintenance: one scrub tick on every node of a converged cluster.
	mc, err := cluster.New(cluster.Options{Nodes: 4, Seed: 31, Config: pinned(core.Config{MaintScrub: true})})
	if err != nil {
		return err
	}
	for f := 0; f < 100/scale+1; f++ {
		if _, err := mc.Mount(0).WriteFile(fmt.Sprintf("/scrub/f%03d", f), noise(4<<10, uint64(f))); err != nil {
			return err
		}
	}
	mc.Stabilize()
	s = measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			mc.Nodes[i%len(mc.Nodes)].Maint().Tick()
		}
	})
	out["maint.scrub_tick_ms"] = metric{s.ns / 1e6, "ms"}
	// Promote repair: the primary dies and the survivors reconverge, the stale
	// successor by pulling what it lacks or a fresh holder by pushing it,
	// whichever the stabilisation order reaches first; both are counted.
	c, _, pi, err := staleReplica(5, 2, blob)
	if err != nil {
		return err
	}
	moved := func() (n uint64) {
		for _, nd := range c.Nodes {
			n += nd.Obs().Counter("repl.fetch.bytes").Load() + nd.Obs().Counter("repl.sync.bytes").Load()
		}
		return n
	}
	before := moved()
	c.Fail(pi)
	c.Stabilize()
	out["repl.promote_repair_bytes"] = metric{float64(moved() - before), "B"}
	return nil
}

// ledgerStore covers the storage-side layers: the on-disk store (in a temp
// dir under outDir, removed before returning), the chunker and the digest tree.
func ledgerStore(out map[string]metric, budget time.Duration, scale int, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "diskfs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dfs, err := diskfs.Open(dir, 0, simnet.Disk7200)
	if err != nil {
		return err
	}
	creates := 256 / scale
	t0 := time.Now()
	var attr localfs.Attr
	for i := 0; i < creates && err == nil; i++ {
		attr, _, err = dfs.Create(localfs.RootIno, fmt.Sprintf("f%04d", i), 0o644, true)
	}
	if err != nil {
		return err
	}
	out["diskfs.create_us"] = metric{float64(time.Since(t0).Microseconds()) / float64(creates), "us"}
	buf := noise(32<<10, 3)
	t0 = time.Now()
	for i := 0; i < creates && err == nil; i++ {
		_, _, err = dfs.Write(attr.Ino, int64(i%64)*(32<<10), buf)
	}
	if err != nil {
		return err
	}
	out["diskfs.write32k_us"] = metric{float64(time.Since(t0).Microseconds()) / float64(creates), "us"}

	blob := noise((4<<20)/scale, 5)
	s := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			ledgerSink += len(cas.Split(blob))
		}
	})
	out["cas.split_mb_s"] = metric{float64(len(blob)) / 1e6 / (s.ns / 1e9), "MB/s"}

	store := localfs.New(0, simnet.Disk7200)
	for f := 0; f < 100; f++ {
		if err := store.WriteFile(fmt.Sprintf("/t/d%02d/f%03d", f%10, f), noise(4<<10, uint64(f))); err != nil {
			return err
		}
	}
	s = measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, err = merkle.NewCache(store).DigestOf("/t")
		}
	})
	out["merkle.digest_cold_ms"] = metric{s.ns / 1e6, "ms"}
	cache := merkle.NewCache(store)
	s = measure(budget, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			if err = store.WriteFile("/t/d03/f003", noise(4<<10, uint64(i)+1000)); err == nil {
				_, err = cache.DigestOf("/t")
			}
		}
	})
	out["merkle.digest_after_edit_us"] = metric{s.ns / 1e3, "us"}
	return err
}
