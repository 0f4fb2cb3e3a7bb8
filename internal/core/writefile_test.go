package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// costRig is a node over a store with a disk model of its own (so a charge
// that named simnet.Disk7200 instead of asking the store would show) and a
// twin store holding the same tree, on which a test replays the calls a
// compound replaces. The node's network adds up what its NFS server charges.
func costRig(t *testing.T) (*Node, localfs.FileSystem, *nfsDiskNet) {
	t.Helper()
	disk := simnet.DiskModel{PerOp: 3 * time.Millisecond, BytesPerSec: 10e6}
	build := func() localfs.FileSystem {
		fs := localfs.New(0, disk)
		if _, err := fs.MkdirAll("/a/b/c/d/e/f"); err != nil {
			t.Fatal(err)
		}
		dir, _ := fs.LookupPath("/a/b/c")
		for name, target := range map[string]string{"user": "d/e", "special": MakeLinkTarget("pn", "/store")} {
			if _, _, err := fs.Symlink(dir.Ino, name, target); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.WriteFile("/a/b/c/victim", []byte("bytes")); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	state := uint64(3)
	net := &nfsDiskNet{Network: simnet.New(simnet.LAN100)}
	n := NewNodeWithStore("k0", id.Rand128(&state), net, Config{}, build())
	return n, build(), net
}

// nfsDiskNet adds up the cost the NFS servers on it report for their
// requests: the disk side of the NFS traffic alone, with no network in it.
type nfsDiskNet struct {
	*simnet.Network
	mu   sync.Mutex
	disk simnet.Cost
}

func (n *nfsDiskNet) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	if service != nfs.Service {
		n.Network.RegisterCtx(addr, service, h)
		return
	}
	n.Network.RegisterCtx(addr, service, func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		resp, c, err := h(ctx, from, req)
		n.mu.Lock()
		n.disk += c
		n.mu.Unlock()
		return resp, c, err
	})
}

// spent reports what fn made the NFS servers charge.
func (n *nfsDiskNet) spent(fn func()) simnet.Cost {
	n.mu.Lock()
	before := n.disk
	n.mu.Unlock()
	fn()
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.disk - before
}

// refWalk replays on ref the LOOKUPs that reach dir from the export's root,
// up to the first that fails.
func refWalk(ref localfs.FileSystem, dir string) (uint64, simnet.Cost, error) {
	ino, total := localfs.RootIno, simnet.Cost(0)
	for _, name := range strings.Split(strings.Trim(dir, "/"), "/") {
		attr, c, err := ref.Lookup(ino, name)
		total = simnet.Seq(total, c)
		if err != nil {
			return 0, total, err
		}
		ino = attr.Ino
	}
	return ino, total, nil
}

// TestWriteFileCostsWhatItReplaces is the cost rule as a test: for the
// FSWriteFile compound the primary charges the LOOKUP of each parent
// component, the CREATE and the WRITE exactly as the store prices them, plus
// one resolveCost; for FSUnlink the LOOKUP of the victim, the READLINK of a
// symlink and the REMOVE, plus one resolveCost. The compounds save round
// trips and nothing else.
func TestWriteFileCostsWhatItReplaces(t *testing.T) {
	n, ref, _ := costRig(t)
	for _, tc := range []struct {
		name, dir string
		want      nfs.Status
	}{
		{name: "1-component parent", dir: "/a"},
		{name: "3-component parent", dir: "/a/b/c"},
		{name: "6-component parent", dir: "/a/b/c/d/e/f"},
		{name: "parent missing at the third component", dir: "/a/b/nope/d", want: nfs.ErrNoEnt},
		{name: "parent is a file", dir: "/a/b/c/victim", want: nfs.ErrNotDir},
	} {
		for _, pass := range []struct {
			verb string
			data []byte
		}{{"create", make([]byte, 3000)}, {"truncate", make([]byte, 100)}} {
			t.Run(tc.name+"/"+pass.verb, func(t *testing.T) {
				dirIno, want, err := refWalk(ref, tc.dir)
				if err == nil {
					var attr localfs.Attr
					var c simnet.Cost
					attr, c, err = ref.Create(dirIno, "f", 0o644, false)
					want = simnet.Seq(want, c)
					if err == nil {
						_, c, err = ref.Write(attr.Ino, 0, pass.data)
						want = simnet.Seq(want, c)
					}
				}
				attr, got, gerr := n.applyFSOp(FSOp{Kind: FSWriteFile, Path: tc.dir + "/f", Data: pass.data}, false)
				if nfs.ToStatus(gerr) != tc.want || nfs.ToStatus(err) != tc.want {
					t.Fatalf("compound: %v, the sequence it replaces: %v, want status %v", gerr, err, tc.want)
				}
				if got != simnet.Seq(resolveCost, want) {
					t.Errorf("compound charged %v, the sequence it replaces %v + resolveCost", got, want)
				}
				if gerr == nil && attr.Size != int64(len(pass.data)) {
					t.Errorf("reply says %d bytes, wrote %d", attr.Size, len(pass.data))
				}
			})
		}
	}
	for _, tc := range []struct {
		name   string
		link   bool // a symlink: the check reads its target
		status nfs.Status
	}{
		{name: "victim"},
		{name: "user", link: true},
		{name: "special", link: true, status: nfs.ErrIsDir},
		{name: "d", status: nfs.ErrIsDir},
		{name: "nope", status: nfs.ErrNoEnt},
	} {
		t.Run("unlink/"+tc.name, func(t *testing.T) {
			dirIno, _, err := refWalk(ref, "/a/b/c")
			if err != nil {
				t.Fatal(err)
			}
			attr, want, err := ref.Lookup(dirIno, tc.name)
			if tc.link {
				_, c, _ := ref.Readlink(attr.Ino)
				want = simnet.Seq(want, c)
			}
			if tc.status == nfs.OK {
				var c simnet.Cost
				c, err = ref.Remove(dirIno, tc.name)
				want = simnet.Seq(want, c)
			}
			if tc.status == nfs.ErrNoEnt != (err != nil) {
				t.Fatalf("reference sequence: %v", err)
			}
			_, got, gerr := n.applyFSOp(FSOp{Kind: FSUnlink, Path: "/a/b/c/" + tc.name}, false)
			if nfs.ToStatus(gerr) != tc.status {
				t.Fatalf("unlink: %v, want status %v", gerr, tc.status)
			}
			if got != simnet.Seq(resolveCost, want) {
				t.Errorf("unlink charged %v, the sequence it replaces %v + resolveCost", got, want)
			}
			if _, err := n.store.LookupPath("/a/b/c/" + tc.name); (err == nil) != (tc.status == nfs.ErrIsDir) {
				t.Errorf("after the unlink (status %v) the name resolves: %v", tc.status, err == nil)
			}
		})
	}
}

// TestWriteFileCarriesOneBatch: with write-back on, the compound carries one
// buffer's worth of the payload and the rest follows through the handle its
// reply returned, as the vectored flush an open file would send; no handle
// outlives the call.
func TestWriteFileCarriesOneBatch(t *testing.T) {
	const batch = 16 << 10
	rec := &recordingNet{Network: simnet.New(simnet.LAN100), reqs: map[string][][]byte{}}
	nodes := testClusterOn(t, rec, 3, 11, Config{WriteBackBytes: batch})
	m := nodes[0].NewMount()
	if _, _, err := m.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, batch*5/2)
	for i := range data {
		data[i] = byte(i * 7)
	}
	before, handles := len(rec.reqs[KoshaService]), m.vt.size()
	if _, err := m.WriteFile("/d/big", data); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, req := range rec.reqs[KoshaService][before:] {
		d := wire.NewDecoder(req)
		if d.Uint32() != kApply {
			continue
		}
		op := decodeApplyReq(d).Op
		got = append(got, fmt.Sprintf("%v:%d", op.Kind, len(op.Data)+nfs.SpansWireSize(op.Spans)))
	}
	tail := nfs.SpansWireSize([]nfs.WriteSpan{{Data: data[batch:]}})
	if want := []string{fmt.Sprintf("writefile:%d", batch), fmt.Sprintf("writev:%d", tail)}; !reflect.DeepEqual(got, want) {
		t.Errorf("applies sent %v, want %v", got, want)
	}
	if read, _, err := nodes[2].NewMount().ReadFile("/d/big"); err != nil || !bytes.Equal(read, data) {
		t.Errorf("through another node: %d bytes err=%v, want %d", len(read), err, len(data))
	}
	if n := m.vt.size(); n != handles {
		t.Errorf("handle table grew from %d to %d rows", handles, n)
	}
}
