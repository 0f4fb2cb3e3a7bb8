package nfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/localfs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// rig wires one NFS server ("srv") and a client node ("cli") together.
func rig(t *testing.T, capacity int64) (*simnet.Network, *Server, Client) {
	t.Helper()
	net := simnet.New(simnet.LAN100)
	fs := localfs.New(capacity, simnet.Disk7200)
	srv := NewServer(fs, 1)
	srv.Attach(net, "srv")
	net.AddNode("cli")
	return net, srv, NewClient(net, "cli")
}

func TestNullPing(t *testing.T) {
	_, _, c := rig(t, 0)
	cost, err := c.Null("srv")
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestCreateWriteReadOverRPC(t *testing.T) {
	_, srv, c := rig(t, 0)
	root := srv.Root()

	dirH, dirA, _, err := c.Mkdir("srv", root, "docs", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if dirA.Type != localfs.TypeDir {
		t.Fatalf("mkdir attr = %+v", dirA)
	}
	fh, _, _, err := c.Create("srv", dirH, "report.txt", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("kosha "), 100)
	n, _, err := c.Write("srv", fh, 0, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write n=%d err=%v", n, err)
	}
	data, eof, _, err := c.Read("srv", fh, 0, len(payload)+10)
	if err != nil || !eof || !bytes.Equal(data, payload) {
		t.Fatalf("read len=%d eof=%v err=%v", len(data), eof, err)
	}
	// Attributes round trip.
	attr, _, err := c.Getattr("srv", fh)
	if err != nil || attr.Size != int64(len(payload)) {
		t.Fatalf("getattr %+v err=%v", attr, err)
	}
}

// TestAtMostOnceUnderDuplication drives mutating RPCs through a link that
// duplicates every exchange: the server must execute each request exactly
// once (replaying the recorded reply for the retransmission), so duplicated
// CREATE/REMOVE/MKDIR cannot corrupt state or flip their answers.
func TestAtMostOnceUnderDuplication(t *testing.T) {
	net, srv, c := rig(t, 0)
	net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		return simnet.LinkFault{Dup: true}
	})
	root := srv.Root()

	dirH, _, _, err := c.Mkdir("srv", root, "d", 0o755)
	if err != nil {
		t.Fatalf("mkdir under duplication: %v", err)
	}
	fh, _, _, err := c.Create("srv", dirH, "f", 0o644, true) // exclusive create
	if err != nil {
		t.Fatalf("exclusive create under duplication: %v", err)
	}
	if _, _, err := c.Write("srv", fh, 0, []byte("payload")); err != nil {
		t.Fatalf("write under duplication: %v", err)
	}
	if _, err := c.Remove("srv", dirH, "f"); err != nil {
		t.Fatalf("remove under duplication: %v", err)
	}
	// Every mutating RPC above was retransmitted once; each retransmission
	// must have been answered from the duplicate-request cache.
	if got, want := srv.Replays(), uint64(4); got != want {
		t.Fatalf("drc replays = %d, want %d", got, want)
	}
	// State reflects exactly-one execution of each op.
	if _, _, _, err := c.Lookup("srv", dirH, "f"); !IsStatus(err, ErrNoEnt) {
		t.Fatalf("f should be gone, lookup err = %v", err)
	}
	// Idempotent reads bypass the cache entirely.
	before := srv.Replays()
	if _, _, err := c.Getattr("srv", dirH); err != nil {
		t.Fatal(err)
	}
	if srv.Replays() != before {
		t.Fatal("read-only RPC hit the duplicate-request cache")
	}
}

// TestDRCDistinguishesClients checks the cache key includes the caller: two
// clients issuing the same xid must not collide.
func TestDRCDistinguishesClients(t *testing.T) {
	net, srv, c1 := rig(t, 0)
	net.AddNode("cli2")
	c2 := NewClient(net, "cli2")
	root := srv.Root()

	// Both clients start at xid 1; their first mutating RPCs share an xid.
	if _, _, _, err := c1.Mkdir("srv", root, "from-c1", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c2.Mkdir("srv", root, "from-c2", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c1.Lookup("srv", root, "from-c2"); err != nil {
		t.Fatalf("c2's mkdir was swallowed by c1's cache entry: %v", err)
	}
	if srv.Replays() != 0 {
		t.Fatalf("replays = %d, want 0 (distinct clients, distinct entries)", srv.Replays())
	}
}

func TestLookupAndLookupPath(t *testing.T) {
	_, srv, c := rig(t, 0)
	srv.FS().WriteFile("/a/b/c.txt", []byte("deep"))

	root := srv.Root()
	h, attr, _, err := c.Lookup("srv", root, "a")
	if err != nil || attr.Type != localfs.TypeDir {
		t.Fatalf("lookup a: %+v err=%v", attr, err)
	}
	_, _, _, err = c.Lookup("srv", h, "missing")
	if !IsStatus(err, ErrNoEnt) {
		t.Fatalf("lookup missing err = %v", err)
	}
	// An N-component path lookup is exactly one round trip.
	before := c.Stats()
	w, cost, err := c.Walk("srv", root, "/a/b/c.txt", 0)
	if err != nil || w.Attr.Size != 4 || w.Resolved != 3 {
		t.Fatalf("walk: %+v err=%v", w, err)
	}
	if d := c.Stats().Sub(before); d.RPCs != 1 || c.ProcCount(ProcLookupPath) != 1 {
		t.Fatalf("a 3-component walk issued %d RPCs (%d LOOKUPPATH), want exactly 1",
			d.RPCs, c.ProcCount(ProcLookupPath))
	}
	// It still pays the disk for every component: more than one LOOKUP's
	// worth, less than three round trips' worth.
	_, _, single, _ := c.Lookup("srv", root, "a")
	if cost <= single || cost >= 3*single {
		t.Fatalf("walk cost %v, want between one LOOKUP (%v) and three", cost, single)
	}
	data, _, _, err := c.Read("srv", w.FH, 0, 10)
	if err != nil || string(data) != "deep" {
		t.Fatalf("read after path lookup: %q err=%v", data, err)
	}
}

func TestSetattrTruncate(t *testing.T) {
	_, srv, c := rig(t, 0)
	srv.FS().WriteFile("/f", []byte("0123456789"))
	root := srv.Root()
	fh, _, _, _ := c.Lookup("srv", root, "f")
	sz := int64(3)
	attr, _, err := c.Setattr("srv", fh, localfs.SetAttr{Size: &sz})
	if err != nil || attr.Size != 3 {
		t.Fatalf("setattr: %+v err=%v", attr, err)
	}
	mode := uint32(0o600)
	attr, _, err = c.Setattr("srv", fh, localfs.SetAttr{Mode: &mode})
	if err != nil || attr.Mode != 0o600 || attr.Size != 3 {
		t.Fatalf("setattr mode: %+v err=%v", attr, err)
	}
}

func TestSymlinkReadlinkOverRPC(t *testing.T) {
	_, srv, c := rig(t, 0)
	root := srv.Root()
	lh, lattr, _, err := c.Symlink("srv", root, "sdirm", "sdirm#1a2b")
	if err != nil || lattr.Type != localfs.TypeSymlink {
		t.Fatalf("symlink: %+v err=%v", lattr, err)
	}
	target, _, err := c.Readlink("srv", lh)
	if err != nil || target != "sdirm#1a2b" {
		t.Fatalf("readlink = %q err=%v", target, err)
	}
}

func TestRemoveRmdirRename(t *testing.T) {
	_, srv, c := rig(t, 0)
	fs := srv.FS()
	fs.WriteFile("/d/f1", []byte("x"))
	fs.MkdirAll("/d/sub")
	root := srv.Root()
	dh, _, _, _ := c.Lookup("srv", root, "d")

	if _, err := c.Rmdir("srv", root, "d"); !IsStatus(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	if _, err := c.Rename("srv", dh, "f1", dh, "f2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Remove("srv", dh, "f2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rmdir("srv", dh, "sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rmdir("srv", root, "d"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Lookup("srv", root, "d"); !IsStatus(err, ErrNoEnt) {
		t.Fatalf("post-delete lookup err = %v", err)
	}
}

func TestReaddirPaging(t *testing.T) {
	_, srv, c := rig(t, 0)
	for i := 0; i < 25; i++ {
		srv.FS().WriteFile(fmt.Sprintf("/f%02d", i), []byte("x"))
	}
	root := srv.Root()

	// Page through with size 10: 10 + 10 + 5.
	var names []string
	var cookie uint64
	pages := 0
	for {
		ents, eof, next, _, err := c.Readdir("srv", root, cookie, 10)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, e := range ents {
			names = append(names, e.Name)
		}
		if eof {
			break
		}
		cookie = next
	}
	if pages != 3 || len(names) != 25 {
		t.Fatalf("pages=%d names=%d", pages, len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	// ReaddirAll agrees.
	all, _, err := c.ReaddirAll("srv", root, 7)
	if err != nil || len(all) != 25 {
		t.Fatalf("ReaddirAll n=%d err=%v", len(all), err)
	}
}

func TestReaddirPlusCarriesAttrsHandlesAndTargets(t *testing.T) {
	_, srv, c := rig(t, 0)
	fs := srv.FS()
	fs.WriteFile("/d/file", []byte("payload"))
	fs.MkdirAll("/d/sub")
	root := srv.Root()
	dh, _, _, err := c.Lookup("srv", root, "d")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Symlink("srv", dh, "ln", "target-path"); err != nil {
		t.Fatal(err)
	}

	ents, _, err := c.ReaddirPlusAll("srv", dh, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("entries = %d, want 3", len(ents))
	}
	byName := map[string]DirEntryPlus{}
	for _, e := range ents {
		byName[e.Name] = e
	}
	// Each entry's attributes and handle must match a separate GETATTR.
	for name, e := range byName {
		want, _, err := c.Getattr("srv", e.FH)
		if err != nil {
			t.Fatalf("getattr via READDIRPLUS handle of %s: %v", name, err)
		}
		if e.Attr != want {
			t.Fatalf("%s attrs: %+v vs GETATTR %+v", name, e.Attr, want)
		}
	}
	if f := byName["file"]; f.Attr.Size != 7 || f.Type != localfs.TypeRegular {
		t.Fatalf("file entry %+v", f)
	}
	if s := byName["sub"]; s.Attr.Type != localfs.TypeDir {
		t.Fatalf("sub entry %+v", s)
	}
	if l := byName["ln"]; l.SymTarget != "target-path" {
		t.Fatalf("symlink target = %q", l.SymTarget)
	}
	if byName["file"].SymTarget != "" {
		t.Fatalf("non-symlink carries target %q", byName["file"].SymTarget)
	}
}

func TestReaddirPlusPaging(t *testing.T) {
	_, srv, c := rig(t, 0)
	for i := 0; i < 25; i++ {
		srv.FS().WriteFile(fmt.Sprintf("/f%02d", i), []byte("x"))
	}
	root := srv.Root()
	var names []string
	var cookie uint64
	pages := 0
	for {
		ents, eof, next, _, err := c.ReaddirPlus("srv", root, cookie, 10)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, e := range ents {
			names = append(names, e.Name)
		}
		if eof {
			break
		}
		cookie = next
	}
	if pages != 3 || len(names) != 25 {
		t.Fatalf("pages=%d names=%d", pages, len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	all, _, err := c.ReaddirPlusAll("srv", root, 7)
	if err != nil || len(all) != 25 {
		t.Fatalf("ReaddirPlusAll n=%d err=%v", len(all), err)
	}
	// One READDIRPLUS page must cost less than READDIR + per-entry GETATTRs.
	_, _, _, plusCost, err := c.ReaddirPlus("srv", root, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	ents, _, _, readdirCost, err := c.Readdir("srv", root, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	sum := readdirCost
	for range ents {
		_, c1, _ := c.Getattr("srv", root)
		sum += c1
	}
	if plusCost >= sum {
		t.Fatalf("READDIRPLUS cost %v not below READDIR+N GETATTR %v", plusCost, sum)
	}
}

func TestClientStatsCountRPCsAndBytes(t *testing.T) {
	_, srv, c := rig(t, 0)
	root := srv.Root()
	if s := c.Stats(); s.RPCs != 0 || s.Bytes != 0 {
		t.Fatalf("fresh stats = %+v", s)
	}
	if _, _, err := c.Getattr("srv", root); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Lookup("srv", root, "nope"); !IsStatus(err, ErrNoEnt) {
		t.Fatal("expected NOENT")
	}
	s := c.Stats()
	if s.RPCs != 2 {
		t.Fatalf("rpcs = %d, want 2", s.RPCs)
	}
	if s.Bytes == 0 {
		t.Fatalf("bytes = 0")
	}
	if got := c.ProcCount(ProcGetattr); got != 1 {
		t.Fatalf("GETATTR count = %d", got)
	}
	if got := c.ProcCount(ProcLookup); got != 1 {
		t.Fatalf("LOOKUP count = %d", got)
	}
	before := s
	if _, _, err := c.Getattr("srv", root); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Sub(before); d.RPCs != 1 {
		t.Fatalf("delta = %+v", d)
	}
	c.ResetStats()
	if s := c.Stats(); s.RPCs != 0 || s.Bytes != 0 || c.ProcCount(ProcGetattr) != 0 {
		t.Fatalf("post-reset stats = %+v", s)
	}
}

func TestNetworkServiceStats(t *testing.T) {
	net, srv, c := rig(t, 0)
	if _, _, err := c.Getattr("srv", srv.Root()); err != nil {
		t.Fatal(err)
	}
	st := net.ServiceStats(Service)
	if st.Messages != 1 || st.Bytes == 0 {
		t.Fatalf("nfs service stats = %+v", st)
	}
	if other := net.ServiceStats("no-such-service"); other.Messages != 0 {
		t.Fatalf("unknown service stats = %+v", other)
	}
	net.ResetStats()
	if st := net.ServiceStats(Service); st.Messages != 0 {
		t.Fatalf("post-reset service stats = %+v", st)
	}
}

func TestFSStatAndQuota(t *testing.T) {
	_, srv, c := rig(t, 1000)
	root := srv.Root()
	fh, _, _, err := c.Create("srv", root, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Write("srv", fh, 0, make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	st, _, err := c.FSStat("srv", root)
	if err != nil || st.TotalBytes != 1000 || st.UsedBytes != 600 || st.Files != 1 {
		t.Fatalf("fsstat = %+v err=%v", st, err)
	}
	if _, _, err := c.Write("srv", fh, 600, make([]byte, 600)); !IsStatus(err, ErrNoSpc) {
		t.Fatalf("quota write err = %v", err)
	}
}

func TestStaleHandleAfterBump(t *testing.T) {
	_, srv, c := rig(t, 0)
	root := srv.Root()
	fh, _, _, err := c.Create("srv", root, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	srv.Bump() // server re-incarnated: all handles stale
	if _, _, err := c.Getattr("srv", fh); !IsStatus(err, ErrStale) {
		t.Fatalf("stale getattr err = %v", err)
	}
	if _, _, err := c.Getattr("srv", root); !IsStatus(err, ErrStale) {
		t.Fatalf("stale root err = %v", err)
	}
	// Fresh root works again.
	if _, _, err := c.Getattr("srv", srv.Root()); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveCreateStatus(t *testing.T) {
	_, srv, c := rig(t, 0)
	root := srv.Root()
	if _, _, _, err := c.Create("srv", root, "f", 0o644, true); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Create("srv", root, "f", 0o644, true); !IsStatus(err, ErrExist) {
		t.Fatalf("exclusive dup err = %v", err)
	}
}

func TestTransportFailureDistinctFromStatus(t *testing.T) {
	net, srv, c := rig(t, 0)
	root := srv.Root()
	net.SetDown("srv", true)
	_, _, err := c.Getattr("srv", root)
	if err == nil {
		t.Fatal("expected error")
	}
	if _, ok := StatusOf(err); ok {
		t.Fatalf("transport failure misreported as NFS status: %v", err)
	}
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMalformedRequestRejected(t *testing.T) {
	net, _, _ := rig(t, 0)
	// Hand-craft garbage requests straight at the service.
	resp, _, err := net.Call("cli", "srv", Service, []byte{})
	if err != nil {
		t.Fatal(err)
	}
	if Status(uint32(resp[0])<<24|uint32(resp[1])<<16|uint32(resp[2])<<8|uint32(resp[3])) != ErrInval {
		t.Fatalf("empty request resp = %v", resp)
	}
	// Truncated LOOKUP (proc only, no handle).
	resp, _, err = net.Call("cli", "srv", Service, []byte{0, 0, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp[3] == 0 {
		t.Fatalf("truncated lookup accepted: %v", resp)
	}
}

func TestRPCCostExceedsLocalDiskCost(t *testing.T) {
	_, srv, c := rig(t, 0)
	root := srv.Root()
	fh, _, _, _ := c.Create("srv", root, "f", 0o644, false)
	payload := make([]byte, 64<<10)
	_, rpcCost, err := c.Write("srv", fh, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	diskOnly := simnet.Disk7200.OpCost(len(payload))
	if rpcCost <= diskOnly {
		t.Fatalf("rpc cost %v should exceed disk-only %v", rpcCost, diskOnly)
	}
}

func TestErrorTypeHelpers(t *testing.T) {
	err := &Error{Proc: ProcLookup, Status: ErrNoEnt}
	if !IsStatus(err, ErrNoEnt) || IsStatus(err, ErrExist) {
		t.Fatal("IsStatus misbehaves")
	}
	st, ok := StatusOf(fmt.Errorf("wrapped: %w", err))
	if !ok || st != ErrNoEnt {
		t.Fatalf("StatusOf = %v %v", st, ok)
	}
	if got := err.Error(); got != "nfs: LOOKUP failed: NFS3ERR_NOENT" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestProcAndStatusStrings(t *testing.T) {
	if ProcWrite.String() != "WRITE" || ProcLookupPath.String() != "LOOKUPPATH" || Proc(99).String() != "PROC(99)" {
		t.Fatal("Proc.String broken")
	}
	if ErrNoSpc.String() != "NFS3ERR_NOSPC" || Status(999).String() != "NFS3ERR(999)" {
		t.Fatal("Status.String broken")
	}
}

func BenchmarkRPCWrite4K(b *testing.B) {
	net := simnet.New(simnet.LAN100)
	fs := localfs.New(0, simnet.Disk7200)
	srv := NewServer(fs, 1)
	srv.Attach(net, "srv")
	net.AddNode("cli")
	c := NewClient(net, "cli")
	fh, _, _, _ := c.Create("srv", srv.Root(), "bench", 0o644, false)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Write("srv", fh, int64(i%128)*4096, buf)
	}
}

func BenchmarkRPCLookup(b *testing.B) {
	net := simnet.New(simnet.LAN100)
	fs := localfs.New(0, simnet.Disk7200)
	fs.WriteFile("/dir/file", []byte("x"))
	srv := NewServer(fs, 1)
	srv.Attach(net, "srv")
	net.AddNode("cli")
	c := NewClient(net, "cli")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Walk("srv", srv.Root(), "/dir/file", 0)
	}
}

func TestAccessMask(t *testing.T) {
	_, srv, c := rig(t, 0)
	fs := srv.FS()
	fs.WriteFile("/rw.txt", []byte("x"))
	fs.MkdirAll("/dir")
	root := srv.Root()

	fh, _, _, _ := c.Lookup("srv", root, "rw.txt")
	got, attr, _, err := c.Access("srv", fh, AccessRead|AccessModify|AccessExecute)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != localfs.TypeRegular {
		t.Fatalf("attr = %+v", attr)
	}
	// 0644 file: read+modify granted, execute not.
	if got&AccessRead == 0 || got&AccessModify == 0 || got&AccessExecute != 0 {
		t.Fatalf("grant = %x", got)
	}
	// Read-only file refuses modify.
	mode := uint32(0o444)
	c.Setattr("srv", fh, localfs.SetAttr{Mode: &mode})
	got, _, _, err = c.Access("srv", fh, AccessRead|AccessModify)
	if err != nil || got != AccessRead {
		t.Fatalf("read-only grant = %x err=%v", got, err)
	}
	// Directory gets lookup.
	dh, _, _, _ := c.Lookup("srv", root, "dir")
	got, _, _, err = c.Access("srv", dh, AccessLookup|AccessRead)
	if err != nil || got&AccessLookup == 0 {
		t.Fatalf("dir grant = %x err=%v", got, err)
	}
}

func TestFSInfoLimits(t *testing.T) {
	_, srv, c := rig(t, 0)
	fi, _, err := c.FSInfo("srv", srv.Root())
	if err != nil {
		t.Fatal(err)
	}
	if fi.RTMax < fi.RTPref || fi.WTMax < fi.WTPref {
		t.Fatalf("incoherent limits: %+v", fi)
	}
	if fi.MaxFile != localfs.MaxFileSize {
		t.Fatalf("maxfile = %d", fi.MaxFile)
	}
	// Stale root rejected.
	srv.Bump()
	if _, _, err := c.FSInfo("srv", Handle{Gen: 1, Ino: 1}); !IsStatus(err, ErrStale) {
		t.Fatalf("stale fsinfo err = %v", err)
	}
}

// TestProtocolOracle drives a random operation sequence through the RPC
// stack and mirrors it directly onto a second localfs: the protocol layer
// must be a transparent pipe.
func TestProtocolOracle(t *testing.T) {
	net := simnet.New(simnet.LAN100)
	remote := localfs.New(0, simnet.Disk7200)
	srv := NewServer(remote, 1)
	srv.Attach(net, "srv")
	net.AddNode("cli")
	c := NewClient(net, "cli")
	direct := localfs.New(0, simnet.Disk7200)

	r := newRand(77)
	type ref struct {
		viaRPC Handle
		direct uint64
		isDir  bool
	}
	refs := []ref{{viaRPC: srv.Root(), direct: localfs.RootIno, isDir: true}}

	for step := 0; step < 400; step++ {
		p := refs[r.Intn(len(refs))]
		name := fmt.Sprintf("e%d", r.Intn(40))
		switch r.Intn(6) {
		case 0: // mkdir
			if !p.isDir {
				continue
			}
			h1, _, _, err1 := c.Mkdir("srv", p.viaRPC, name, 0o755)
			a2, _, err2 := direct.Mkdir(p.direct, name, 0o755)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d mkdir divergence: %v vs %v", step, err1, err2)
			}
			if err1 == nil {
				refs = append(refs, ref{viaRPC: h1, direct: a2.Ino, isDir: true})
			}
		case 1: // create
			if !p.isDir {
				continue
			}
			h1, _, _, err1 := c.Create("srv", p.viaRPC, name, 0o644, false)
			a2, _, err2 := direct.Create(p.direct, name, 0o644, false)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d create divergence: %v vs %v", step, err1, err2)
			}
			if err1 == nil {
				refs = append(refs, ref{viaRPC: h1, direct: a2.Ino})
			}
		case 2: // write
			if p.isDir {
				continue
			}
			data := make([]byte, r.Intn(500))
			r.Read(data)
			off := int64(r.Intn(200))
			_, _, err1 := c.Write("srv", p.viaRPC, off, data)
			_, _, err2 := direct.Write(p.direct, off, data)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d write divergence: %v vs %v", step, err1, err2)
			}
		case 3: // read + compare
			if p.isDir {
				continue
			}
			d1, eof1, _, err1 := c.Read("srv", p.viaRPC, 0, 1000)
			d2, eof2, _, err2 := direct.Read(p.direct, 0, 1000)
			if (err1 == nil) != (err2 == nil) || eof1 != eof2 || !bytes.Equal(d1, d2) {
				t.Fatalf("step %d read divergence: %v/%v %v/%v", step, err1, err2, eof1, eof2)
			}
		case 4: // getattr compare
			a1, _, err1 := c.Getattr("srv", p.viaRPC)
			a2, _, err2 := direct.Getattr(p.direct)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d getattr divergence: %v vs %v", step, err1, err2)
			}
			if err1 == nil && (a1.Size != a2.Size || a1.Type != a2.Type) {
				t.Fatalf("step %d attr divergence: %+v vs %+v", step, a1, a2)
			}
		case 5: // readdir compare
			if !p.isDir {
				continue
			}
			e1, _, err1 := c.ReaddirAll("srv", p.viaRPC, 7)
			e2, _, err2 := direct.Readdir(p.direct)
			if (err1 == nil) != (err2 == nil) || len(e1) != len(e2) {
				t.Fatalf("step %d readdir divergence: %d vs %d (%v/%v)", step, len(e1), len(e2), err1, err2)
			}
			for i := range e1 {
				if e1[i].Name != e2[i].Name || e1[i].Type != e2[i].Type {
					t.Fatalf("step %d entry %d: %+v vs %+v", step, i, e1[i], e2[i])
				}
			}
		}
	}
}

func newRand(seed int64) *mrand { return &mrand{state: uint64(seed)} }

// mrand is a tiny deterministic generator so this test does not perturb
// other tests' use of math/rand.
type mrand struct{ state uint64 }

func (m *mrand) next() uint64 {
	m.state += 0x9e3779b97f4a7c15
	z := m.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *mrand) Intn(n int) int { return int(m.next() % uint64(n)) }

func (m *mrand) Read(p []byte) {
	for i := range p {
		p[i] = byte(m.next())
	}
}

// scribble overwrites a buffer its owner is done with.
func scribble(p []byte) {
	for i := range p {
		p[i] = 0xA5
	}
}

// TestBorrowedBuffersDoNotAlias holds the server to the ownership rule:
// WRITE borrows its data from the request only until the store has copied
// it, the duplicate-request cache replays from its own record, and a READ
// reply is the client's to scribble on.
func TestBorrowedBuffersDoNotAlias(t *testing.T) {
	_, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 3<<20+123) // several store extents
	newRand(7).Read(payload)
	write := func(xid uint64) []byte {
		e := wire.NewEncoder(0)
		e.PutUint32(uint32(ProcWrite))
		e.PutUint64(xid)
		putHandle(e, fh)
		e.PutInt64(0)
		e.PutOpaque(payload)
		return e.Bytes()
	}
	stored := func(when string) {
		t.Helper()
		got, err := srv.FS().ReadFile("/f")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: store holds %d bytes (err=%v) that differ from what was written", when, len(got), err)
		}
	}

	req := write(1 << 40)
	reply, _, err := srv.Handle("cli", req)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), reply...)
	scribble(req)
	stored("after scribbling over the WRITE request")

	// A retransmission is answered from the cache, byte for byte, without
	// touching the store. (The cached reply is the buffer the first caller
	// got; that is safe because mutating replies carry no data a client
	// borrows.)
	replay, _, err := srv.Handle("cli", write(1<<40))
	if err != nil || !bytes.Equal(replay, first) || srv.Replays() != 1 {
		t.Fatalf("replay = %x (err=%v, %d replays), want %x from the cache", replay, err, srv.Replays(), first)
	}

	// What READ, READSTREAM and a reading LOOKUPPATH hand the client is the
	// client's own: scribbling over it reaches neither the store nor the next
	// reader.
	data, _, _, err := c.Read("srv", fh, 1<<20-7, 64<<10)
	if err != nil || !bytes.Equal(data, payload[1<<20-7:][:64<<10]) {
		t.Fatalf("read: %d bytes err=%v", len(data), err)
	}
	scribble(data[:cap(data)])
	walk, _, err := c.Walk("srv", srv.Root(), "/f", 64<<10)
	if err != nil || walk.EOF || !bytes.Equal(walk.Data, payload[:64<<10]) {
		t.Fatalf("reading walk: %d bytes eof=%v err=%v", len(walk.Data), walk.EOF, err)
	}
	scribble(walk.Data[:cap(walk.Data)])
	window, _, _, err := c.ReadStream("srv", fh, 0, 32<<10, 1<<10)
	if err != nil || !bytes.Equal(window, payload) {
		t.Fatalf("readstream: %d bytes err=%v", len(window), err)
	}
	scribble(window[:cap(window)])
	stored("after scribbling over READ replies")
	again, _, _, err := c.Read("srv", fh, 1<<20-7, 64<<10)
	if err != nil || !bytes.Equal(again, payload[1<<20-7:][:64<<10]) {
		t.Fatal("a second reader saw the first reader's scribbles")
	}

	// LOOKUPPATH copies each name out of the request before the store sees
	// it, and a name the store keeps (MKDIR's) is a copy too: scribbling over
	// either request changes neither the reply in hand nor the namespace.
	mk := wire.NewEncoder(0)
	mk.PutUint32(uint32(ProcMkdir))
	mk.PutUint64(1<<40 + 2)
	putHandle(mk, srv.Root())
	mk.PutString("docs")
	mk.PutUint32(0o755)
	if _, _, err := srv.Handle("cli", mk.Bytes()); err != nil {
		t.Fatal(err)
	}
	scribble(mk.Bytes())
	if err := srv.FS().WriteFile("/docs/notes/todo.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	lp := wire.NewEncoder(0)
	lp.PutUint32(uint32(ProcLookupPath))
	lp.PutUint64(1<<40 + 3)
	putHandle(lp, srv.Root())
	putPath(lp, "/docs/notes/todo.txt")
	walked, _, err := srv.Handle("cli", lp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	held := append([]byte(nil), walked...)
	scribble(lp.Bytes())
	if !bytes.Equal(walked, held) {
		t.Fatal("the LOOKUPPATH reply aliases its request")
	}
	if w, _, err := c.Walk("srv", srv.Root(), "docs/notes/todo.txt", 0); err != nil || w.Resolved != 3 || w.Attr.Size != 1 {
		t.Fatalf("walk after scribbling: %+v err=%v", w, err)
	}
}
