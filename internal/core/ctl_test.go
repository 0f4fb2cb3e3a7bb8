package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/simnet"
)

func TestCtlRoundTrip(t *testing.T) {
	_, nodes := testCluster(t, 4, 81, Config{Replicas: 1})
	for _, nd := range nodes {
		nd.AttachCtl()
	}
	ctl := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nodes[2].Addr()}

	if _, err := ctl.WriteFile("/ops/readme.md", []byte("# kosha")); err != nil {
		t.Fatal(err)
	}
	data, _, err := ctl.ReadFile("/ops/readme.md")
	if err != nil || !bytes.Equal(data, []byte("# kosha")) {
		t.Fatalf("read %q err=%v", data, err)
	}
	ents, _, err := ctl.List("/ops")
	if err != nil || len(ents) != 1 || ents[0].Name != "readme.md" {
		t.Fatalf("list %v err=%v", ents, err)
	}
	st, _, err := ctl.Stat("/ops/readme.md")
	if err != nil || st.Type != localfs.TypeRegular || st.Size != 7 {
		t.Fatalf("stat %+v err=%v", st, err)
	}
	if _, err := ctl.MkdirAll("/ops/logs/2026"); err != nil {
		t.Fatal(err)
	}
	status, _, err := ctl.Status()
	if err != nil || status.NodeID == "" {
		t.Fatalf("status %+v err=%v", status, err)
	}
	peers, _, err := ctl.Peers()
	if err != nil || len(peers) != 3 {
		t.Fatalf("peers %v err=%v", peers, err)
	}
	if _, err := ctl.RemoveAll("/ops"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctl.Stat("/ops"); err == nil {
		t.Fatal("stat of removed tree should fail")
	}
	// Errors propagate as messages.
	if _, _, err := ctl.ReadFile("/never"); err == nil {
		t.Fatal("read of missing file should fail")
	}
	if _, _, err := ctl.List("/never"); err == nil {
		t.Fatal("list of missing dir should fail")
	}
}

// cmd/koshactl prints "koshactl: <err>"; the client library must not add the
// command's name a second time (errors used to read "koshactl: koshactl: ...").
func TestCtlErrorsCarryNoCommandPrefix(t *testing.T) {
	_, nodes := testCluster(t, 3, 82, Config{Replicas: 1})
	nodes[1].AttachCtl()
	ctl := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nodes[1].Addr()}
	if _, err := ctl.WriteFile("/ops/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, _, missing := ctl.ReadFile("/never")
	_, _, notDir := ctl.List("/ops/f")
	for _, err := range []error{missing, notDir} {
		if err == nil || strings.Contains(err.Error(), "koshactl") {
			t.Errorf("ctl error = %v, want a message without the command's name", err)
		}
	}
	if notDir != nil && !strings.Contains(notDir.Error(), "is not a directory") {
		t.Errorf("list of a file: %v", notDir)
	}
}

// leakStore is a contributed store carrying a pointer-free sentinel: the
// sentinel is reachable exactly as long as the node that holds the store is,
// and (having no pointers of its own) sits in no reference cycle, so a
// finalizer on it reports the node's collection reliably.
type leakStore struct {
	localfs.FileSystem
	sentinel *[64]byte
}

// servedCluster builds a cluster whose nodes have all answered a ctl file
// request (so each created its ctl mount), drops it, and returns a counter of
// the nodes collected so far.
func servedCluster(t *testing.T, n int) *atomic.Int32 {
	net := simnet.New(simnet.LAN100)
	var collected atomic.Int32
	state := uint64(61)
	var first simnet.Addr
	for i := 0; i < n; i++ {
		st := &leakStore{FileSystem: localfs.New(0, simnet.Disk7200), sentinel: new([64]byte)}
		runtime.SetFinalizer(st.sentinel, func(*[64]byte) { collected.Add(1) })
		nd := NewNodeWithStore(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, Config{}, st)
		if _, err := nd.Join(first); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = nd.Addr()
		}
		nd.AttachCtl()
		ctl := &CtlClient{Net: net, From: "cli", To: nd.Addr()}
		if _, _, err := ctl.List("/"); err != nil {
			t.Fatal(err)
		}
	}
	return &collected
}

// TestCtlMountDoesNotPinNode: a node that has served ctl requests is garbage
// once its cluster is dropped. (The ctl mount used to live in a package-level
// map keyed by *Node that nothing pruned, so every node that ever answered a
// ctl request stayed reachable for the life of the process.)
func TestCtlMountDoesNotPinNode(t *testing.T) {
	const n = 3
	collected := servedCluster(t, n)
	for i := 0; i < 50 && collected.Load() < n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Fatalf("%d of %d nodes collected after their cluster was dropped", got, n)
	}
}
