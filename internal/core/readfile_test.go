package core

import (
	"bytes"
	"fmt"
	"path"
	"reflect"
	"testing"
	"time"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestReadFileCostsWhatItReplaces is the cost rule for the reading walk, at
// the mount: ReadFile charges the store exactly what the LOOKUPPATH and READs
// it replaces did — each component's LOOKUP, then one READ per chunk from
// offset 0 — and on a warm resolver it makes one transport call per chunk
// read: a file of up to one chunk is the walk alone, a chunk and a byte the
// walk and one READ of the rest.
func TestReadFileCostsWhatItReplaces(t *testing.T) {
	n, ref, net := costRig(t)
	if _, err := n.Join(""); err != nil {
		t.Fatal(err)
	}
	const chunk = 1 << 20
	sizes := map[string]int{"small": 5, "chunk": chunk, "chunk+1": chunk + 1, "empty": 0}
	for name, size := range sizes {
		data := bytes.Repeat([]byte{byte(size)}, size)
		for _, fs := range []localfs.FileSystem{n.Store(), ref} {
			if err := fs.WriteFile("/a/b/c/"+name, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := n.NewMount()
	if _, _, _, err := m.LookupPath("/a/b/c"); err != nil { // warms the resolver
		t.Fatal(err)
	}
	for name, size := range sizes {
		t.Run(name, func(t *testing.T) {
			p := "/a/b/c/" + name
			ino, want, err := refWalk(ref, p)
			if err != nil {
				t.Fatal(err)
			}
			reads := uint64(0)
			for off, eof := int64(0), false; !eof; off += chunk {
				var c simnet.Cost
				if _, eof, c, err = ref.Read(ino, off, chunk); err != nil {
					t.Fatal(err)
				}
				want = simnet.Seq(want, c)
				reads++
			}
			calls := net.Stats().Messages
			var data []byte
			got := net.spent(func() { data, _, err = m.ReadFile(p) })
			calls = net.Stats().Messages - calls
			if err != nil || len(data) != size {
				t.Fatalf("read %d bytes err=%v, want %d", len(data), err, size)
			}
			if got != want {
				t.Errorf("ReadFile charged the store %v, the LOOKUPPATH and %d READs it replaces %v", got, reads, want)
			}
			if calls != reads {
				t.Errorf("%d transport calls, want %d", calls, reads)
			}
		})
	}
}

// afterNet runs a test's hook after each exchange it carries, once the reply
// is in, so the hook acts between two steps of an operation.
type afterNet struct {
	*simnet.Network
	after func(from simnet.Addr, service string, req []byte)
}

func (n *afterNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	resp, c, err := n.Network.CallCtx(ctx, from, to, service, req)
	if hook := n.after; hook != nil {
		hook(from, service, req)
	}
	return resp, c, err
}

// once runs fn after the next exchange from the given node to the given
// service whose request opens with word (the procedure number).
func (n *afterNet) once(from simnet.Addr, service string, word uint32, fn func()) {
	n.after = func(f simnet.Addr, s string, req []byte) {
		if f == from && s == service && wire.NewDecoder(req).Uint32() == word {
			n.after = nil
			fn()
		}
	}
}

// readFileAsBefore is ReadFile as it was while the READ was a message of its
// own: a LookupPath, then READs through the handle from offset 0 to EOF.
func readFileAsBefore(m *Mount, vpath string) ([]byte, simnet.Cost, error) {
	vh, attr, total, err := m.LookupPath(vpath)
	if err != nil {
		return nil, total, err
	}
	defer m.Forget(vh)
	var data []byte
	if attr.Size > 0 {
		data = make([]byte, 0, attr.Size)
	}
	for {
		d, eof, c, err := m.Read(vh, int64(len(data)), 1<<20)
		total = simnet.Seq(total, c)
		if err != nil {
			return nil, total, err
		}
		data = append(data, d...)
		if eof || len(d) == 0 {
			return data, total, nil
		}
	}
}

// TestReadFileAsBefore holds ReadFile to what it returned while the READ was
// a message of its own (readFileAsBefore): the same bytes or the same status
// in every case below, ReadSpread counting the same node, and one NFS RPC
// fewer exactly when there are bytes. On the mount's own node, where no
// message crosses the network, the cost is the same to the nanosecond; on
// any other it is one round trip less.
func TestReadFileAsBefore(t *testing.T) {
	net := &afterNet{Network: simnet.New(simnet.LAN100)}
	nodes := testClusterOn(t, net, 6, 87, Config{DistributionLevel: 2, Replicas: 1})
	m, writer := nodes[0].NewMount(), nodes[1].NewMount()
	const chunk = 1 << 20
	write := func(p string, data []byte) {
		t.Helper()
		if _, err := writer.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
	}
	// A home whose level-2 directory is stored on the mount's node, and one
	// whose is stored elsewhere.
	var local, remote string
	for i := 0; local == "" || remote == ""; i++ {
		if i == 64 {
			t.Fatal("no placement on and off node 0")
		}
		dir := fmt.Sprintf("/h%d/d%d", i, i)
		write(dir+"/f", []byte("x"))
		pl, _, err := nodes[0].ResolvePath(dir)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case pl.Node == nodes[0].Addr() && local == "":
			local = dir
		case pl.Node != nodes[0].Addr() && remote == "":
			remote = dir
		}
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), chunk/16+1)
	for _, p := range []string{"1", "2"} {
		write(remote+"/f"+p, []byte("remote bytes"))
		write(local+"/f"+p, []byte("local bytes"))
		write(path.Dir(remote)+"/g"+p, []byte("at the distributed depth"))
		write(remote+"/big"+p, big)
	}
	if _, _, err := writer.MkdirAll(remote + "/sub"); err != nil {
		t.Fatal(err)
	}
	dvh, _, _, err := writer.LookupPath(remote)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := writer.Symlink(dvh, "link", "f1"); err != nil {
		t.Fatal(err)
	}
	appended := []byte("appended between the walk and the next READ")

	for _, tc := range []struct {
		name     string
		now, was string       // the paths ReadFile and readFileAsBefore read
		arm      func(string) // readies the path just before the read
		want     []byte       // nil: the status both get must be st
		st       nfs.Status
		sameCost bool // the file is on the mount's node
	}{
		{name: "remote file", now: remote + "/f1", was: remote + "/f2", want: []byte("remote bytes")},
		{name: "local file", now: local + "/f1", was: local + "/f2", want: []byte("local bytes"), sameCost: true},
		{name: "file at the distributed depth", now: path.Dir(remote) + "/g1", was: path.Dir(remote) + "/g2", want: []byte("at the distributed depth")},
		{name: "directory", now: remote + "/sub", was: remote + "/sub", st: nfs.ErrIsDir},
		{name: "user symlink", now: remote + "/link", was: remote + "/link", st: nfs.ErrInval},
		{name: "missing", now: remote + "/nope", was: remote + "/nope", st: nfs.ErrNoEnt},
		{
			// Another mount appends once the walk has brought the first chunk.
			name: "concurrent append", now: remote + "/big1", was: remote + "/big2", want: append(append([]byte(nil), big...), appended...),
			arm: func(p string) {
				net.once(nodes[0].Addr(), nfs.Service, uint32(nfs.ProcLookupPath), func() {
					vh, _, _, err := writer.LookupPath(p)
					if err != nil {
						t.Fatal(err)
					}
					defer writer.Forget(vh)
					if _, _, err := writer.Write(vh, int64(len(big)), appended); err != nil {
						t.Fatal(err)
					}
				})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				data   []byte
				cost   simnet.Cost
				err    error
				rpcs   uint64
				spread map[simnet.Addr]int64
			}
			run := func(p string, read func(*Mount, string) ([]byte, simnet.Cost, error)) (o outcome) {
				if _, _, _, err := m.LookupPath(path.Dir(p)); err != nil { // warms the resolver
					t.Fatal(err)
				}
				if tc.arm != nil {
					tc.arm(p)
				}
				rpcs, spread := nodes[0].NFSStats().RPCs, m.ReadSpread()
				o.data, o.cost, o.err = read(m, p)
				o.rpcs = nodes[0].NFSStats().RPCs - rpcs
				o.spread = m.ReadSpread()
				for addr, n := range spread {
					if o.spread[addr] -= n; o.spread[addr] == 0 {
						delete(o.spread, addr)
					}
				}
				if net.after != nil {
					t.Fatal("the hook never ran")
				}
				return o
			}
			now, was := run(tc.now, (*Mount).ReadFile), run(tc.was, readFileAsBefore)
			if tc.want == nil {
				if !nfs.IsStatus(now.err, tc.st) || !nfs.IsStatus(was.err, tc.st) {
					t.Fatalf("ReadFile: %v, before: %v, want status %v from both", now.err, was.err, tc.st)
				}
			} else if now.err != nil || was.err != nil || !bytes.Equal(now.data, tc.want) || !bytes.Equal(was.data, tc.want) {
				t.Fatalf("ReadFile: %d bytes err=%v, before: %d bytes err=%v, want the %d bytes written",
					len(now.data), now.err, len(was.data), was.err, len(tc.want))
			}
			if !reflect.DeepEqual(now.spread, was.spread) {
				t.Errorf("ReadSpread counted %v, before %v", now.spread, was.spread)
			}
			if saved := was.rpcs - now.rpcs; tc.want != nil && saved != 1 || tc.want == nil && saved != 0 {
				t.Errorf("%d NFS RPCs, before %d", now.rpcs, was.rpcs)
			}
			if tc.sameCost && now.cost != was.cost {
				t.Errorf("on the mount's own node ReadFile cost %v, before %v", now.cost, was.cost)
			}
			if rtt := 2 * simnet.Cost(simnet.LAN100.Propagation); tc.name == "remote file" &&
				(was.cost-now.cost < rtt || was.cost-now.cost > rtt+simnet.Cost(10*time.Microsecond)) {
				t.Errorf("ReadFile cost %v, before %v: want one round trip (%v) and a few bytes less", now.cost, was.cost, rtt)
			}
		})
	}
}
