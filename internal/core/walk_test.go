package core

import (
	"testing"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// walkCluster is an 8-node, L=2, K=2 cluster with the client caches off, so
// every path operation resolves afresh, and one deep file written through
// mount 0. The network records the kosha requests it carries.
func walkCluster(t *testing.T) (*recordingNet, []*Node, *Mount) {
	t.Helper()
	rec := &recordingNet{Network: simnet.New(simnet.LAN100), reqs: map[string][][]byte{}}
	nodes := testClusterOn(t, rec, 8, 5, Config{DistributionLevel: 2, Replicas: 2, NoMetadataCache: true})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/u/proj/src/pkg/file.go", []byte("package pkg")); err != nil {
		t.Fatal(err)
	}
	return rec, nodes, m
}

// koshaCount reports how many requests of one kosha procedure were recorded.
func (r *recordingNet) koshaCount(proc uint32) (n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, req := range r.reqs[KoshaService] {
		if wire.NewDecoder(req).Uint32() == proc {
			n++
		}
	}
	return n
}

// nfsDelta runs fn and reports the NFS RPCs node issued meanwhile: all of
// them, the LOOKUPPATHs, and the per-component procedures LOOKUPPATH
// replaced (LOOKUP, GETATTR, READLINK).
func nfsDelta(n *Node, fn func()) (all, walks, legacy uint64) {
	old := func() uint64 {
		return n.NFSProcCount(nfs.ProcLookup) + n.NFSProcCount(nfs.ProcGetattr) + n.NFSProcCount(nfs.ProcReadlink)
	}
	a0, w0, l0 := n.NFSStats().RPCs, n.NFSProcCount(nfs.ProcLookupPath), old()
	fn()
	return n.NFSStats().RPCs - a0, n.NFSProcCount(nfs.ProcLookupPath) - w0, old() - l0
}

// TestPathOpsAreOneWalk pins the round trips of the uncached path operations
// once placement is resolved. A lookup and a MkdirAll of a directory that
// exists are one LOOKUPPATH each; a WriteFile into a directory that exists
// and a Remove send no NFS RPC at all, just one routed apply that the primary
// mirrors K times; none of them sends a LOOKUP, GETATTR or READLINK.
func TestPathOpsAreOneWalk(t *testing.T) {
	rec, nodes, m := walkCluster(t)
	n := nodes[0]
	const k = 2
	dir, _, _, err := m.LookupPath("/u/proj/src/pkg") // also warms the resolver
	if err != nil {
		t.Fatal(err)
	}
	check := func(op string, wantWalks uint64, wantApplies int, fn func()) {
		t.Helper()
		a0, m0 := rec.koshaCount(kApply), rec.koshaCount(kMirror)
		all, walks, legacy := nfsDelta(n, fn)
		if all != wantWalks || walks != wantWalks || legacy != 0 {
			t.Errorf("%s: %d NFS RPCs, %d LOOKUPPATH, %d LOOKUP/GETATTR/READLINK; want %d, all LOOKUPPATH",
				op, all, walks, legacy, wantWalks)
		}
		if applies, mirrors := rec.koshaCount(kApply)-a0, rec.koshaCount(kMirror)-m0; applies != wantApplies || mirrors != k*wantApplies {
			t.Errorf("%s: %d kApply and %d kMirror, want %d and %d", op, applies, mirrors, wantApplies, k*wantApplies)
		}
	}
	check("LookupPath of 5 components", 1, 0, func() {
		if _, attr, _, err := m.LookupPath("/u/proj/src/pkg/file.go"); err != nil || attr.Size != 11 {
			t.Fatalf("lookup: %+v err=%v", attr, err)
		}
	})
	check("MkdirAll of an existing directory", 1, 0, func() {
		if _, _, err := m.MkdirAll("/u/proj/src/pkg"); err != nil {
			t.Fatal(err)
		}
	})
	check("WriteFile of a new file in an existing directory", 0, 1, func() {
		if _, err := m.WriteFile("/u/proj/src/pkg/new.go", []byte("package pkg // new")); err != nil {
			t.Fatal(err)
		}
	})
	check("WriteFile over an existing file", 0, 1, func() {
		if _, err := m.WriteFile("/u/proj/src/pkg/new.go", []byte("package pkg")); err != nil {
			t.Fatal(err)
		}
	})
	if data, _, err := nodes[3].NewMount().ReadFile("/u/proj/src/pkg/new.go"); err != nil || string(data) != "package pkg" {
		t.Fatalf("through another node: %q err=%v", data, err)
	}
	// A file at a distributed depth is typed by the resolver's own probe of
	// its parent's directory, and that probe is the walk.
	if _, err := m.WriteFile("/u/notes.txt", []byte("at depth two")); err != nil {
		t.Fatal(err)
	}
	check("LookupPath of a file at a distributed depth", 1, 0, func() {
		if _, attr, _, err := m.LookupPath("/u/notes.txt"); err != nil || attr.Size != 12 {
			t.Fatalf("lookup: %+v err=%v", attr, err)
		}
	})
	if _, _, err := m.Symlink(dir, "alias", "file.go"); err != nil {
		t.Fatal(err)
	}
	check("Remove of a user symlink", 0, 1, func() {
		if _, err := m.Remove(dir, "alias"); err != nil {
			t.Fatal(err)
		}
	})
	check("Remove of a file", 0, 1, func() {
		if _, err := m.Remove(dir, "file.go"); err != nil {
			t.Fatal(err)
		}
	})
	if _, _, _, err := m.LookupPath("/u/proj/src/pkg/file.go"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("removed file still resolves: %v", err)
	}
	// A special link is a directory to Remove: the primary reads the target
	// before it removes anything, refuses, and mirrors nothing.
	proj, _, _, err := m.LookupPath("/u")
	if err != nil {
		t.Fatal(err)
	}
	a0, m0 := rec.koshaCount(kApply), rec.koshaCount(kMirror)
	if all, _, _ := nfsDelta(n, func() {
		if _, err := m.Remove(proj, "proj"); !nfs.IsStatus(err, nfs.ErrIsDir) {
			t.Fatalf("Remove of a special link: %v, want NFS3ERR_ISDIR", err)
		}
	}); all != 0 || rec.koshaCount(kApply)-a0 != 1 || rec.koshaCount(kMirror) != m0 {
		t.Errorf("Remove of a distributed directory's link: %d NFS RPCs, %d kApply, %d kMirror; want 0, 1, 0",
			all, rec.koshaCount(kApply)-a0, rec.koshaCount(kMirror)-m0)
	}
	if _, attr, _, err := nodes[3].NewMount().LookupPath("/u/proj/src/pkg"); err != nil || attr.Type != localfs.TypeDir {
		t.Fatalf("the refused link no longer resolves: %+v err=%v", attr, err)
	}
}

// TestMkdirAllCreatesOnlyWhatIsMissing: the failed walk names the deepest
// ancestor that exists, and creation starts below it, with no LOOKUP of the
// components above and none of the ones it is about to create.
func TestMkdirAllCreatesOnlyWhatIsMissing(t *testing.T) {
	_, nodes, m := walkCluster(t)
	if _, _, _, err := m.LookupPath("/u/proj/src"); err != nil { // warm the resolver
		t.Fatal(err)
	}
	var vh VH
	_, walks, legacy := nfsDelta(nodes[0], func() {
		var err error
		if vh, _, err = m.MkdirAll("/u/proj/src/gen/out/x86"); err != nil {
			t.Fatal(err)
		}
	})
	// The walk, and the same walk again after the holder is asked to promote
	// a copy it may hold unpromoted.
	if walks != 2 || legacy != 0 {
		t.Errorf("%d LOOKUPPATH and %d LOOKUP/GETATTR/READLINK to create three levels, want 2 and 0", walks, legacy)
	}
	de, err := m.entry(vh)
	if err != nil || de.vpath != "/u/proj/src/gen/out/x86" || de.kind != localfs.TypeDir {
		t.Fatalf("handle names %+v err=%v", de, err)
	}
	// Visible through another node, and usable as a parent.
	m2 := nodes[3].NewMount()
	if _, attr, _, err := m2.LookupPath("/u/proj/src/gen/out/x86"); err != nil || attr.Type != localfs.TypeDir {
		t.Fatalf("through another node: %+v err=%v", attr, err)
	}
	if _, _, _, err := m.Create(vh, "a.o", 0o644, true); err != nil {
		t.Fatal(err)
	}
	// A miss at a distributed level names no ancestor; the whole chain is
	// still created.
	if _, _, err := m.MkdirAll("/u/newproj/src"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m2.LookupPath("/u/newproj/src"); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWalkRefreshesStaleRootHandle: a store that was purged and
// re-incarnated answers the cached root handle with NFS3ERR_STALE after zero
// components; the handle is dropped, fetched again and the walk repeated,
// once.
func TestRemoteWalkRefreshesStaleRootHandle(t *testing.T) {
	_, nodes := testCluster(t, 2, 9, Config{})
	a, b := nodes[0], nodes[1]
	if err := b.Store().WriteFile("/x/y/z", []byte("zz")); err != nil {
		t.Fatal(err)
	}
	if _, attr, _, err := a.remoteLookupPath(obs.TraceContext{}, b.Addr(), "/x/y/z"); err != nil || attr.Size != 2 {
		t.Fatalf("first walk: %+v err=%v", attr, err)
	}
	cached, _, _ := a.rootHandle(obs.TraceContext{}, b.Addr())
	b.nsrv.Bump()
	if w, _, err := a.nfsc.Walk(b.Addr(), cached, "/x/y/z", 0); !nfs.IsStatus(err, nfs.ErrStale) || w.Resolved != 0 {
		t.Fatalf("walk from the stale handle: %+v err=%v, want NFS3ERR_STALE after 0 components", w, err)
	}
	_, walks, _ := nfsDelta(a, func() {
		if _, attr, _, err := a.remoteLookupPath(obs.TraceContext{}, b.Addr(), "/x/y/z"); err != nil || attr.Size != 2 {
			t.Fatalf("walk after re-incarnation: %+v err=%v", attr, err)
		}
	})
	if fresh, _, _ := a.rootHandle(obs.TraceContext{}, b.Addr()); walks != 2 || fresh == cached || fresh != b.nsrv.Root() {
		t.Errorf("%d walks, root handle %v (was %v), want one retry on the refreshed handle %v", walks, fresh, cached, b.nsrv.Root())
	}
}
