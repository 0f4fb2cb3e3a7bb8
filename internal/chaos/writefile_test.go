package chaos

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

const wfReplicas = 2

// wfBed is an 8-node, K=2 cluster (L=2 and the client caches off unless cfg
// says otherwise) with one file in place at /u/proj/src/a.go, written
// through the bed's client: a mount on a node that is neither the primary of
// that file's directory nor one of its replica holders, so every message the
// client sends crosses the network and crashing the primary leaves the client
// standing.
type wfBed struct {
	t       *testing.T
	c       *cluster.Cluster
	model   *Oracle
	m       *core.Mount
	client  int // the node m is mounted on
	primary int // the node holding /u/proj/src (at L=2, all of /u/proj)
}

func newWFBed(t *testing.T, cfg core.Config) *wfBed {
	t.Helper()
	if cfg.DistributionLevel == 0 {
		cfg.DistributionLevel = 2
	}
	if cfg.NameCacheTTL == 0 {
		cfg.AttrCacheTTL, cfg.NameCacheTTL = -1, -1
	}
	cfg.Replicas = wfReplicas
	c, err := cluster.New(cluster.Options{Nodes: 8, Seed: 1901, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// The first file goes in through the last node: a resolver hears only of
	// the renames made through its own node, and the low-numbered nodes are
	// the ones other and ReplicaConvergence resolve through afterwards.
	b := &wfBed{t: t, c: c, model: NewOracle(), m: c.Mount(len(c.Nodes) - 1)}
	b.write("/u/proj/src/a.go", []byte("package src"))
	c.Stabilize()
	place, _, err := c.Nodes[len(c.Nodes)-1].ResolvePath("/u/proj/src")
	if err != nil {
		t.Fatal(err)
	}
	busy := map[simnet.Addr]bool{place.Node: true}
	b.primary = b.index(place.Node)
	for _, rc := range c.Nodes[b.primary].Overlay().ReplicaCandidates(wfReplicas) {
		busy[rc.Addr] = true
	}
	for i, nd := range c.Nodes {
		if !busy[nd.Addr()] {
			b.client, b.m = i, c.Mount(i)
			break
		}
	}
	// Warm the client node's resolver, as any earlier operation would have.
	if _, _, _, err := b.m.LookupPath("/u/proj/src"); err != nil {
		t.Fatal(err)
	}
	return b
}

func (b *wfBed) index(addr simnet.Addr) int {
	for i, nd := range b.c.Nodes {
		if nd.Addr() == addr {
			return i
		}
	}
	b.t.Fatalf("%s is not in the cluster", addr)
	return -1
}

// other is a mount on a live node that is neither the client's nor the
// primary's.
func (b *wfBed) other() *core.Mount { return b.others(1)[0] }

// others is n such mounts, each on a node of its own.
func (b *wfBed) others(n int) []*core.Mount {
	var out []*core.Mount
	for i := range b.c.Nodes {
		if i != b.client && i != b.primary && !b.c.Net.IsDown(b.c.Nodes[i].Addr()) && len(out) < n {
			out = append(out, b.c.Mount(i))
		}
	}
	if len(out) < n {
		b.t.Fatalf("%d live nodes besides the client and the primary, want %d", len(out), n)
	}
	return out
}

func (b *wfBed) write(p string, data []byte) {
	b.t.Helper()
	if _, err := b.m.WriteFile(p, data); err != nil {
		b.t.Fatalf("write %s: %v", p, err)
	}
	b.model.WriteFile(p, data)
}

// reboot brings a crashed node back, purged and under a fresh id, once the
// overlay has noticed it was gone: a reboot outlasts failure detection.
func (b *wfBed) reboot(i int) {
	b.t.Helper()
	b.c.Stabilize()
	if err := b.c.Revive(i); err != nil {
		b.t.Fatal(err)
	}
}

// settle stabilizes and holds the steady-state invariants: everything the
// model says exists, and nothing else, reads back through another node, and
// every file sits on its primary and its K replica holders.
func (b *wfBed) settle() { b.t.Helper(); b.settleThrough(b.other()) }

// settleThrough is settle reading through a mount of the caller's choosing.
func (b *wfBed) settleThrough(third *core.Mount) {
	b.t.Helper()
	b.c.Stabilize()
	if err := b.model.Check(third); err != nil {
		b.t.Fatalf("oracle: %v", err)
	}
	if err := ReplicaConvergence(b.c, b.model, wfReplicas); err != nil {
		b.t.Fatalf("replica convergence: %v", err)
	}
}

// koshaFromClient counts the kosha-service messages the client's node sends
// while fn runs: WriteFile's applies, since the client holds no replica.
func (b *wfBed) koshaFromClient(fn func()) int {
	var sent atomic.Int64
	client := b.c.Nodes[b.client].Addr()
	b.c.Net.SetFaults(func(from, _ simnet.Addr, service string) simnet.LinkFault {
		if from == client && service == core.KoshaService {
			sent.Add(1)
		}
		return simnet.LinkFault{}
	})
	fn()
	b.c.Net.SetFaults(nil)
	return int(sent.Load())
}

func noise(n int, seed uint64) []byte {
	out := make([]byte, n)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte(seed >> 33)
	}
	return out
}

// TestWriteFileFallbacks walks WriteFile off its one-apply path in every way
// it can leave it: what the fast path cannot do goes through MkdirAll and
// the same apply again, and what it must refuse is refused before anything is
// created. Every row ends on a settled cluster that matches the model.
func TestWriteFileFallbacks(t *testing.T) {
	const batch = 64 << 10
	for _, tc := range []struct {
		name      string
		level     int // 0 means 2
		writeBack int
		run       func(b *wfBed)
	}{
		{name: "fast path", run: func(b *wfBed) {
			if sent := b.koshaFromClient(func() { b.write("/u/proj/src/b.go", []byte("package src // b")) }); sent != 1 {
				b.t.Errorf("%d kosha messages from the client, want the one apply", sent)
			}
		}},
		{name: "parents missing below the distribution level", run: func(b *wfBed) {
			b.write("/u/proj/gen/out/x86/b.go", []byte("package x86"))
			b.model.MkdirAll("/u/proj/gen/out/x86")
		}},
		{name: "parents missing at and above the distribution level", run: func(b *wfBed) {
			b.write("/v/lib/deep/c.go", []byte("package deep"))
			b.write("/u/fresh/d.go", []byte("package fresh"))
		}},
		{name: "name is a directory", run: func(b *wfBed) {
			for _, p := range []string{"/u/proj/src", "/u/proj"} { // a plain directory, a special link
				if _, err := b.m.WriteFile(p, []byte("no")); !nfs.IsStatus(err, nfs.ErrIsDir) {
					b.t.Errorf("WriteFile over the directory %s: %v, want NFS3ERR_ISDIR", p, err)
				}
			}
		}},
		{name: "directly under the root", run: func(b *wfBed) {
			if _, err := b.m.WriteFile("/rootfile", []byte("no")); !errors.Is(err, core.ErrRootOnlyDirs) {
				b.t.Errorf("WriteFile under /: %v, want ErrRootOnlyDirs", err)
			}
		}},
		{name: "invalid name", run: func(b *wfBed) {
			// Refused before the missing parent is created for it.
			for _, name := range []string{"x" + core.ChainSep + "y", core.MigrationFlag, "x#0123abcd"} {
				if _, err := b.m.WriteFile("/u/proj/never/"+name, []byte("no")); err == nil {
					b.t.Errorf("WriteFile of the reserved name %q succeeded", name)
				}
			}
		}},
		{name: "resolver entry stale after a rename elsewhere", run: func(b *wfBed) {
			// Each link rename of a distributed directory (here at the leaf
			// level, L=2) moves its storage root, so the client's resolver now
			// names a root that is gone.
			m2 := b.other()
			u, _, _, err := m2.LookupPath("/u")
			if err != nil {
				b.t.Fatal(err)
			}
			for _, mv := range [][2]string{{"proj", "tmp"}, {"tmp", "proj"}} {
				if _, err := m2.Rename(u, mv[0], u, mv[1]); err != nil {
					b.t.Fatalf("rename %s -> %s: %v", mv[0], mv[1], err)
				}
			}
			sent := b.koshaFromClient(func() { b.write("/u/proj/src/e.go", []byte("package src // e")) })
			if sent != 2 {
				b.t.Errorf("%d kosha messages from the client, want 2: the apply that found the root gone and its one redrive", sent)
			}
		}},
		{name: "distributed ancestor renamed through this mount", level: 3, run: func(b *wfBed) {
			// /u/proj is above the leaf distributed level, so the rename copies:
			// /u/proj/src gets a fresh storage root under /u/tmp and its old one
			// is removed. The write must not land there: /u/proj is gone and is
			// made afresh. (TestStaleChainAfterAncestorRename renames through
			// another node, which leaves this one's resolver chain whole.)
			u, _, _, err := b.m.LookupPath("/u")
			if err != nil {
				b.t.Fatal(err)
			}
			if _, err := b.m.Rename(u, "proj", u, "tmp"); err != nil {
				b.t.Fatal(err)
			}
			b.model.Rename("/u/proj", "/u/tmp")
			b.write("/u/proj/src/g.go", []byte("package src // g"))
			b.model.MkdirAll("/u/proj/src")
			if got, _, err := b.m.ReadFile("/u/proj/src/g.go"); err != nil || string(got) != "package src // g" {
				b.t.Errorf("read back through the writing mount: %q err=%v", got, err)
			}
			if _, _, _, err := b.other().LookupPath("/u/tmp/src/g.go"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
				b.t.Errorf("the write landed under the renamed directory: err=%v, want NFS3ERR_NOENT", err)
			}
		}},
		{name: "primary unreachable", run: func(b *wfBed) {
			b.c.Fail(b.primary)
			data := []byte("written during the failure")
			b.write("/u/proj/src/f.go", data)
			if got, _, err := b.other().ReadFile("/u/proj/src/f.go"); err != nil || !bytes.Equal(got, data) {
				b.t.Fatalf("through another node, primary still down: %q err=%v", got, err)
			}
			if pl, _, err := b.c.Nodes[b.client].ResolvePath("/u/proj"); err != nil || pl.Node == b.c.Nodes[b.primary].Addr() {
				b.t.Fatalf("/u/proj still resolves to the dead primary: %+v err=%v", pl, err)
			}
			b.reboot(b.primary)
		}},
		{name: "write-back on, 2.5 batches", writeBack: batch, run: func(b *wfBed) {
			b.write("/u/proj/src/big.bin", noise(batch*5/2, 7))
			b.write("/u/proj/src/big.bin", noise(batch*5/2+3, 8)) // and again, over itself
			b.write("/u/proj/src/one.bin", noise(batch, 9))       // exactly one batch: no tail
		}},
		{name: "zero-length payload", run: func(b *wfBed) {
			b.write("/u/proj/src/empty", nil)
			b.write("/u/proj/src/a.go", nil) // truncates what was there
			if _, attr, _, err := b.other().LookupPath("/u/proj/src/a.go"); err != nil || attr.Size != 0 {
				b.t.Errorf("truncated file: %+v err=%v", attr, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newWFBed(t, core.Config{DistributionLevel: tc.level, WriteBackBytes: tc.writeBack})
			tc.run(b)
			b.settle()
		})
	}
}

// TestScenarioWriteFileCrash: WriteFile is one apply, so a primary that dies
// around it leaves the file whole or not at all. First the primary crashes
// right after it acknowledged a WriteFile; then, revived and settled, the
// holder of the next one crashes in the middle of its fan-out, one replica
// reached and one not. Through a mount on another node an acknowledged file
// is complete after failover, and in every store — primary namespace and
// replica area — the file is absent or complete, never present and empty,
// which is the state a create-then-write pair of applies could leave behind.
func TestScenarioWriteFileCrash(t *testing.T) {
	b := newWFBed(t, core.Config{})
	wholeOrAbsent := func(when, vpath string, want []byte) {
		t.Helper()
		pl, _, err := b.c.Nodes[b.client].ResolvePath("/u/proj/src")
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		phys := joinPhys(pl.PhysDir(), vpath[len("/u/proj/src/"):])
		for _, nd := range b.c.Nodes {
			for _, p := range []string{phys, core.RepPath(phys)} {
				if got, err := nd.Store().ReadFile(p); err == nil && !bytes.Equal(got, want) {
					t.Errorf("%s: %s holds %s with %d of %d bytes", when, nd.Addr(), p, len(got), len(want))
				}
			}
		}
	}
	complete := func(when, vpath string, want []byte) {
		t.Helper()
		if got, _, err := b.other().ReadFile(vpath); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s through another node: %d bytes err=%v, want %d", when, vpath, len(got), err, len(want))
		}
	}

	// Crash right after the acknowledgement.
	acked := noise(3000, 1)
	b.write("/u/proj/src/acked.bin", acked)
	b.c.Fail(b.primary)
	complete("primary crashed after the ack", "/u/proj/src/acked.bin", acked)
	wholeOrAbsent("primary crashed after the ack", "/u/proj/src/acked.bin", acked)
	b.reboot(b.primary)
	b.settle()

	// Crash in the middle of the fan-out: the first mirror lands, the node
	// dies, and nothing it sends afterwards arrives.
	pl, _, err := b.c.Nodes[b.client].ResolvePath("/u/proj")
	if err != nil {
		t.Fatal(err)
	}
	b.primary = b.index(pl.Node)
	if b.primary == b.client {
		t.Fatal("the client's node became the primary")
	}
	primary := pl.Node
	mirrors := 0 // touched only by the primary's handler, one message at a time
	b.c.Net.SetFaults(func(from, _ simnet.Addr, service string) simnet.LinkFault {
		if from != primary || service != core.KoshaService {
			return simnet.LinkFault{}
		}
		if mirrors++; mirrors == 1 {
			return simnet.LinkFault{}
		}
		b.c.Fail(b.primary)
		return simnet.LinkFault{Drop: true}
	})
	torn := noise(5000, 2)
	_, werr := b.m.WriteFile("/u/proj/src/torn.bin", torn)
	b.c.Net.SetFaults(nil)
	if mirrors < wfReplicas {
		t.Fatalf("the primary sent %d mirrors, the crash never happened", mirrors)
	}
	wholeOrAbsent("primary crashed mid fan-out", "/u/proj/src/torn.bin", torn)
	b.c.Stabilize()
	wholeOrAbsent("after failover", "/u/proj/src/torn.bin", torn)
	if werr == nil {
		b.model.WriteFile("/u/proj/src/torn.bin", torn)
		complete("acknowledged, primary crashed mid fan-out", "/u/proj/src/torn.bin", torn)
	}
	t.Logf("mid fan-out crash: WriteFile returned %v", werr)
	b.reboot(b.primary)
	b.settle()
}
