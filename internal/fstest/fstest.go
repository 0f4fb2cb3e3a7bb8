// Package fstest is a conformance battery for localfs.FileSystem
// implementations: the in-memory store and the on-disk store must behave
// identically through the interface, since koshad treats them
// interchangeably.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/localfs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Factory builds a fresh, empty file system with the given capacity on the
// simnet.Disk7200 disk model, which the cost checks charge against.
type Factory func(t *testing.T, capacity int64) localfs.FileSystem

// Run executes the conformance battery against the factory.
func Run(t *testing.T, factory Factory) {
	t.Run("CreateWriteRead", func(t *testing.T) { testCreateWriteRead(t, factory) })
	t.Run("LookupAndErrors", func(t *testing.T) { testLookupAndErrors(t, factory) })
	t.Run("Quota", func(t *testing.T) { testQuota(t, factory) })
	t.Run("Truncate", func(t *testing.T) { testTruncate(t, factory) })
	t.Run("RemoveRmdir", func(t *testing.T) { testRemoveRmdir(t, factory) })
	t.Run("RemoveUnless", func(t *testing.T) { testRemoveUnless(t, factory) })
	t.Run("Rename", func(t *testing.T) { testRename(t, factory) })
	t.Run("HandleStableAcrossRename", func(t *testing.T) { testHandleStable(t, factory) })
	t.Run("ReaddirSorted", func(t *testing.T) { testReaddirSorted(t, factory) })
	t.Run("Symlink", func(t *testing.T) { testSymlink(t, factory) })
	t.Run("PathHelpers", func(t *testing.T) { testPathHelpers(t, factory) })
	t.Run("Walk", func(t *testing.T) { testWalk(t, factory) })
	t.Run("RemoveAllAccounting", func(t *testing.T) { testRemoveAllAccounting(t, factory) })
	t.Run("Statfs", func(t *testing.T) { testStatfs(t, factory) })
	t.Run("BadNames", func(t *testing.T) { testBadNames(t, factory) })
	t.Run("NamesStayInTheirDirectory", func(t *testing.T) { testNamesStayInTheirDirectory(t, factory) })
	t.Run("NamesAreBorrowed", func(t *testing.T) { testNamesAreBorrowed(t, factory) })
	t.Run("ExtentBoundaries", func(t *testing.T) { testExtentBoundaries(t, factory) })
	t.Run("AppendRead", func(t *testing.T) { testAppendRead(t, factory) })
	t.Run("WindowRead", func(t *testing.T) { testWindowRead(t, factory) })
	t.Run("MerkleDigestStability", func(t *testing.T) { testMerkleDigest(t, factory) })
	t.Run("ChunkManifestStability", func(t *testing.T) { testChunkManifestStability(t, factory) })
}

func testCreateWriteRead(t *testing.T, factory Factory) {
	f := factory(t, 0)
	d, _, err := f.Mkdir(localfs.RootIno, "home", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := f.Create(d.Ino, "x.txt", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := f.Write(a.Ino, 0, []byte("hello world")); err != nil || n != 11 {
		t.Fatalf("write n=%d err=%v", n, err)
	}
	data, eof, _, err := f.Read(a.Ino, 0, 100)
	if err != nil || !eof || string(data) != "hello world" {
		t.Fatalf("read %q eof=%v err=%v", data, eof, err)
	}
	data, eof, _, _ = f.Read(a.Ino, 6, 5)
	if string(data) != "world" || !eof {
		t.Fatalf("partial %q", data)
	}
	data, eof, _, err = f.Read(a.Ino, 50, 5)
	if err != nil || !eof || len(data) != 0 {
		t.Fatalf("past-eof read: %q err=%v", data, err)
	}
	got, _, err := f.Getattr(a.Ino)
	if err != nil || got.Size != 11 || got.Type != localfs.TypeRegular {
		t.Fatalf("getattr %+v err=%v", got, err)
	}
	if f.NumFiles() != 1 {
		t.Fatalf("files = %d", f.NumFiles())
	}
	// Sparse extension.
	if _, _, err := f.Write(a.Ino, 20, []byte("zz")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := f.Getattr(a.Ino); got.Size != 22 {
		t.Fatalf("size after sparse write = %d", got.Size)
	}
}

func testLookupAndErrors(t *testing.T, factory Factory) {
	f := factory(t, 0)
	if err := f.WriteFile("/a/b.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	a, _, err := f.Lookup(localfs.RootIno, "a")
	if err != nil || a.Type != localfs.TypeDir {
		t.Fatalf("lookup a: %+v err=%v", a, err)
	}
	b, _, err := f.Lookup(a.Ino, "b.txt")
	if err != nil || b.Type != localfs.TypeRegular {
		t.Fatalf("lookup b: %+v err=%v", b, err)
	}
	if _, _, err := f.Lookup(a.Ino, "missing"); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatalf("missing err = %v", err)
	}
	if _, _, err := f.Lookup(b.Ino, "child"); !errors.Is(err, localfs.ErrNotDir) {
		t.Fatalf("lookup in file err = %v", err)
	}
	if _, _, err := f.Getattr(999999); !errors.Is(err, localfs.ErrStale) {
		t.Fatalf("stale err = %v", err)
	}
	if _, _, err := f.Create(b.Ino, "x", 0o644, false); err == nil {
		t.Fatal("create in file should fail")
	}
	// Exclusive create collision.
	if _, _, err := f.Create(a.Ino, "b.txt", 0o644, true); !errors.Is(err, localfs.ErrExist) {
		t.Fatalf("exclusive err = %v", err)
	}
}

func testQuota(t *testing.T, factory Factory) {
	f := factory(t, 100)
	a, _, err := f.Create(localfs.RootIno, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Write(a.Ino, 0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Write(a.Ino, 100, []byte{1}); !errors.Is(err, localfs.ErrNoSpace) {
		t.Fatalf("over-quota err = %v", err)
	}
	if f.Used() != 100 {
		t.Fatalf("used = %d", f.Used())
	}
	if u := f.Utilization(); u != 1.0 {
		t.Fatalf("utilization = %v", u)
	}
	if _, err := f.Remove(localfs.RootIno, "f"); err != nil {
		t.Fatal(err)
	}
	if f.Used() != 0 || f.NumFiles() != 0 {
		t.Fatalf("after remove used=%d files=%d", f.Used(), f.NumFiles())
	}
}

func testTruncate(t *testing.T, factory Factory) {
	f := factory(t, 0)
	a, _, _ := f.Create(localfs.RootIno, "t", 0o644, false)
	f.Write(a.Ino, 0, []byte("0123456789"))
	sz := int64(4)
	got, _, err := f.Setattr(a.Ino, localfs.SetAttr{Size: &sz})
	if err != nil || got.Size != 4 {
		t.Fatalf("truncate: %+v err=%v", got, err)
	}
	if f.Used() != 4 {
		t.Fatalf("used = %d", f.Used())
	}
	sz = 8
	f.Setattr(a.Ino, localfs.SetAttr{Size: &sz})
	data, _, _, _ := f.Read(a.Ino, 0, 100)
	if !bytes.Equal(data, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("data = %v", data)
	}
	sz = -1
	if _, _, err := f.Setattr(a.Ino, localfs.SetAttr{Size: &sz}); !errors.Is(err, localfs.ErrTooBig) {
		t.Fatalf("negative size err = %v", err)
	}
	d, _, _ := f.Mkdir(localfs.RootIno, "d", 0o755)
	sz = 0
	if _, _, err := f.Setattr(d.Ino, localfs.SetAttr{Size: &sz}); !errors.Is(err, localfs.ErrIsDir) {
		t.Fatalf("dir truncate err = %v", err)
	}
	mode := uint32(0o600)
	if got, _, err := f.Setattr(a.Ino, localfs.SetAttr{Mode: &mode}); err != nil || got.Mode != 0o600 {
		t.Fatalf("chmod: %+v err=%v", got, err)
	}
}

func testRemoveRmdir(t *testing.T, factory Factory) {
	f := factory(t, 0)
	d, _, _ := f.Mkdir(localfs.RootIno, "d", 0o755)
	f.Create(d.Ino, "f", 0o644, false)
	if _, err := f.Rmdir(localfs.RootIno, "d"); !errors.Is(err, localfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	if _, err := f.Remove(localfs.RootIno, "d"); !errors.Is(err, localfs.ErrIsDir) {
		t.Fatalf("remove dir err = %v", err)
	}
	if _, err := f.Rmdir(d.Ino, "f"); !errors.Is(err, localfs.ErrNotDir) {
		t.Fatalf("rmdir file err = %v", err)
	}
	if _, err := f.Remove(d.Ino, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Rmdir(localfs.RootIno, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Remove(localfs.RootIno, "ghost"); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatalf("remove missing err = %v", err)
	}
}

// testRemoveUnless: the veto sees what sits at the name — its type and a
// symlink's target — and decides alone whether it goes. A call with a veto
// charges the Lookup, a symlink's Readlink and, once past the veto, the
// Remove; a call without one is Remove.
func testRemoveUnless(t *testing.T, factory Factory) {
	f := factory(t, 0)
	d, _, _ := f.Mkdir(localfs.RootIno, "d", 0o755)
	f.Mkdir(d.Ino, "sub", 0o755)
	f.Create(d.Ino, "file", 0o644, false)
	f.Symlink(d.Ino, "keep", "marked:target")
	f.Symlink(d.Ino, "link", "plain/target")
	_, op, _ := f.Lookup(d.Ino, "file") // the store's price for one metadata op

	veto := errors.New("vetoed")
	var saw []string
	refuseMarked := func(victim localfs.Attr, target string) error {
		saw = append(saw, victim.Type.String()+":"+target)
		if strings.HasPrefix(target, "marked:") {
			return veto
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		ops  simnet.Cost // metadata ops charged
		want error       // and then the name stays
	}{
		{"keep", 2, veto}, // lookup + readlink
		{"link", 3, nil},  // + remove
		{"file", 2, nil},
		{"sub", 2, localfs.ErrIsDir}, // past the veto, Remove's own rule holds
		{"ghost", 1, localfs.ErrNoEnt},
		{"keep", 1, nil}, // no veto: Remove, at Remove's price
	} {
		refuse := refuseMarked
		if tc.ops == 1 {
			refuse = nil
		}
		cost, err := f.RemoveUnless(d.Ino, tc.name, refuse)
		if !errors.Is(err, tc.want) || cost != tc.ops*op {
			t.Errorf("RemoveUnless(%s) = %v, %v; want %d ops of %v and %v", tc.name, cost, err, tc.ops, op, tc.want)
		}
		if _, _, lerr := f.Lookup(d.Ino, tc.name); (lerr == nil) != (err != nil && tc.name != "ghost") {
			t.Errorf("after RemoveUnless(%s) = %v the name resolves: %v", tc.name, err, lerr == nil)
		}
	}
	if want := "symlink:marked:target symlink:plain/target file: dir:"; strings.Join(saw, " ") != want {
		t.Errorf("the veto saw %q, want %q", saw, want)
	}
}

func testRename(t *testing.T, factory Factory) {
	f := factory(t, 0)
	d1, _, _ := f.Mkdir(localfs.RootIno, "d1", 0o755)
	d2, _, _ := f.Mkdir(localfs.RootIno, "d2", 0o755)
	a, _, _ := f.Create(d1.Ino, "f", 0o644, false)
	f.Write(a.Ino, 0, []byte("payload"))

	if _, err := f.Rename(d1.Ino, "f", d2.Ino, "g"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Lookup(d1.Ino, "f"); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatal("source still present")
	}
	g, _, err := f.Lookup(d2.Ino, "g")
	if err != nil || g.Size != 7 {
		t.Fatalf("dest: %+v err=%v", g, err)
	}
	// Overwrite existing file; accounting follows.
	h, _, _ := f.Create(d2.Ino, "h", 0o644, false)
	f.Write(h.Ino, 0, []byte("xx"))
	used := f.Used()
	if _, err := f.Rename(d2.Ino, "g", d2.Ino, "h"); err != nil {
		t.Fatal(err)
	}
	if got := f.Used(); got != used-2 {
		t.Fatalf("used after overwrite: %d, want %d", got, used-2)
	}
	if f.NumFiles() != 1 {
		t.Fatalf("files = %d", f.NumFiles())
	}
	// Dir over non-empty dir refused.
	s1, _, _ := f.Mkdir(localfs.RootIno, "s1", 0o755)
	s2, _, _ := f.Mkdir(localfs.RootIno, "s2", 0o755)
	f.Create(s2.Ino, "inner", 0o644, false)
	if _, err := f.Rename(localfs.RootIno, "s1", localfs.RootIno, "s2"); !errors.Is(err, localfs.ErrNotEmpty) {
		t.Fatalf("rename over non-empty err = %v", err)
	}
	// Into own subtree refused.
	sub, _, _ := f.Mkdir(s1.Ino, "sub", 0o755)
	if _, err := f.Rename(localfs.RootIno, "s1", sub.Ino, "evil"); !errors.Is(err, localfs.ErrInval) {
		t.Fatalf("own-subtree err = %v", err)
	}
	if _, err := f.Rename(localfs.RootIno, "missing", localfs.RootIno, "x"); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatalf("missing source err = %v", err)
	}
}

func testHandleStable(t *testing.T, factory Factory) {
	f := factory(t, 0)
	d1, _, _ := f.Mkdir(localfs.RootIno, "d1", 0o755)
	d2, _, _ := f.Mkdir(localfs.RootIno, "d2", 0o755)
	a, _, _ := f.Create(d1.Ino, "f", 0o644, false)
	f.Write(a.Ino, 0, []byte("stay"))
	if _, err := f.Rename(d1.Ino, "f", d2.Ino, "moved"); err != nil {
		t.Fatal(err)
	}
	// The old handle still reads the moved file, as on a real NFS server.
	data, _, _, err := f.Read(a.Ino, 0, 10)
	if err != nil || string(data) != "stay" {
		t.Fatalf("read via old handle: %q err=%v", data, err)
	}
	// Directory rename keeps descendants' handles valid too.
	if _, err := f.Rename(localfs.RootIno, "d2", localfs.RootIno, "d3"); err != nil {
		t.Fatal(err)
	}
	if data, _, _, err := f.Read(a.Ino, 0, 10); err != nil || string(data) != "stay" {
		t.Fatalf("read after dir rename: %q err=%v", data, err)
	}
}

func testReaddirSorted(t *testing.T, factory Factory) {
	f := factory(t, 0)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		f.Create(localfs.RootIno, n, 0o644, false)
	}
	f.Mkdir(localfs.RootIno, "bdir", 0o755)
	f.Symlink(localfs.RootIno, "slink", "target")
	ents, _, err := f.Readdir(localfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	types := map[string]localfs.FileType{}
	for _, e := range ents {
		names = append(names, e.Name)
		types[e.Name] = e.Type
	}
	if strings.Join(names, ",") != "alpha,bdir,mid,slink,zeta" {
		t.Fatalf("names = %v", names)
	}
	if types["bdir"] != localfs.TypeDir || types["slink"] != localfs.TypeSymlink || types["mid"] != localfs.TypeRegular {
		t.Fatalf("types = %v", types)
	}
	// Readdir of a file fails.
	a, _, _ := f.Lookup(localfs.RootIno, "mid")
	if _, _, err := f.Readdir(a.Ino); !errors.Is(err, localfs.ErrNotDir) {
		t.Fatalf("readdir file err = %v", err)
	}
}

func testSymlink(t *testing.T, factory Factory) {
	f := factory(t, 0)
	a, _, err := f.Symlink(localfs.RootIno, "lnk", "dir#12345678")
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != localfs.TypeSymlink {
		t.Fatalf("attr = %+v", a)
	}
	target, _, err := f.Readlink(a.Ino)
	if err != nil || target != "dir#12345678" {
		t.Fatalf("readlink = %q err=%v", target, err)
	}
	b, _, _ := f.Create(localfs.RootIno, "f", 0o644, false)
	if _, _, err := f.Readlink(b.Ino); !errors.Is(err, localfs.ErrInval) {
		t.Fatalf("readlink file err = %v", err)
	}
	if _, _, err := f.Symlink(localfs.RootIno, "lnk", "again"); !errors.Is(err, localfs.ErrExist) {
		t.Fatalf("dup symlink err = %v", err)
	}
	// Symlink size counts against quota.
	g := factory(t, 5)
	if _, _, err := g.Symlink(localfs.RootIno, "l", "123456"); !errors.Is(err, localfs.ErrNoSpace) {
		t.Fatalf("symlink quota err = %v", err)
	}
}

// lent returns s as a view of a buffer of its own (wire.View), as a handler
// lends a store a name it decoded from a request frame, and a func that
// overwrites the buffer with wire.Poison, as the caller's next request does.
func lent(s string) (string, func()) {
	b := []byte(s)
	return wire.View(b), func() {
		for i := range b {
			b[i] = wire.Poison
		}
	}
}

// testNamesAreBorrowed: every name, path and link target a store takes is
// borrowed for the call (localfs.FileSystem), so a store that made an entry
// or bound an inode from one must have kept a copy. Each argument here is a
// view of a buffer overwritten once the call returns; the tree then lists
// the exact names, a link reads its exact target, and a handle bound by a
// path lookup still resolves.
func testNamesAreBorrowed(t *testing.T, factory Factory) {
	f := factory(t, 0)
	call := func(what string, args []string, fn func(args []string) error) {
		t.Helper()
		views := make([]string, len(args))
		var scribbles []func()
		for i, a := range args {
			var scribble func()
			views[i], scribble = lent(a)
			scribbles = append(scribbles, scribble)
		}
		if err := fn(views); err != nil {
			t.Fatalf("%s%q: %v", what, args, err)
		}
		for _, scribble := range scribbles {
			scribble()
		}
	}
	var dir, lookedUp localfs.Attr
	call("Mkdir", []string{"dir"}, func(a []string) (err error) {
		dir, _, err = f.Mkdir(localfs.RootIno, a[0], 0o755)
		return err
	})
	call("Create", []string{"file"}, func(a []string) error {
		_, _, err := f.Create(dir.Ino, a[0], 0o644, false)
		return err
	})
	call("Create", []string{"gone"}, func(a []string) error {
		_, _, err := f.Create(dir.Ino, a[0], 0o644, false)
		return err
	})
	call("Symlink", []string{"link", "/a/target"}, func(a []string) error {
		_, _, err := f.Symlink(dir.Ino, a[0], a[1])
		return err
	})
	call("Rename", []string{"gone", "moved"}, func(a []string) error {
		_, err := f.Rename(dir.Ino, a[0], dir.Ino, a[1])
		return err
	})
	call("MkdirAll", []string{"/deep/er"}, func(a []string) error {
		_, err := f.MkdirAll(a[0])
		return err
	})
	call("WriteFile", []string{"/deep/er/whole"}, func(a []string) error {
		return f.WriteFile(a[0], []byte("whole"))
	})
	call("LookupPath", []string{"/deep/er/whole"}, func(a []string) (err error) {
		lookedUp, err = f.LookupPath(a[0])
		return err
	})

	want := map[string]localfs.FileType{
		"/dir": localfs.TypeDir, "/dir/file": localfs.TypeRegular, "/dir/link": localfs.TypeSymlink,
		"/dir/moved": localfs.TypeRegular, "/deep": localfs.TypeDir, "/deep/er": localfs.TypeDir,
		"/deep/er/whole": localfs.TypeRegular,
	}
	got := map[string]localfs.FileType{}
	var list func(p string, ino uint64)
	list = func(p string, ino uint64) {
		ents, _, err := f.Readdir(ino)
		if err != nil {
			t.Fatalf("Readdir(%s): %v", p, err)
		}
		for _, e := range ents {
			child := strings.TrimSuffix(p, "/") + "/" + e.Name
			got[child] = e.Type
			if e.Type == localfs.TypeDir {
				list(child, e.Ino)
			}
		}
	}
	list("/", localfs.RootIno)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the tree lists %v, want %v", got, want)
	}
	for p := range want {
		if _, err := f.LookupPath(p); err != nil {
			t.Errorf("LookupPath(%s): %v", p, err)
		}
	}
	if a, err := f.LookupPath("/dir/link"); err != nil {
		t.Error(err)
	} else if target, _, err := f.Readlink(a.Ino); err != nil || target != "/a/target" {
		t.Errorf("the link reads %q, %v; want %q", target, err, "/a/target")
	}
	if a, _, err := f.Getattr(lookedUp.Ino); err != nil || a.Type != localfs.TypeRegular || a.Size != 5 {
		t.Errorf("the handle LookupPath bound reads %+v, %v; want the 5-byte file", a, err)
	}
}

func testPathHelpers(t *testing.T, factory Factory) {
	f := factory(t, 0)
	if _, err := f.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MkdirAll("/a/b/c"); err != nil {
		t.Fatal("MkdirAll not idempotent:", err)
	}
	a, err := f.LookupPath("/a/b/c")
	if err != nil || a.Type != localfs.TypeDir {
		t.Fatalf("LookupPath: %+v err=%v", a, err)
	}
	if err := f.WriteFile("/a/b/c/f.txt", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadFile("/a/b/c/f.txt")
	if err != nil || string(data) != "xyz" {
		t.Fatalf("ReadFile %q err=%v", data, err)
	}
	// Overwrite shrinks accounting correctly.
	if err := f.WriteFile("/a/b/c/f.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if f.Used() != 1 {
		t.Fatalf("used = %d", f.Used())
	}
	if _, err := f.MkdirAll("/a/b/c/f.txt/sub"); !errors.Is(err, localfs.ErrNotDir) {
		t.Fatalf("MkdirAll through file err = %v", err)
	}
	if _, err := f.LookupPath("/a/zz"); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatalf("missing LookupPath err = %v", err)
	}
	r, err := f.LookupPath("/")
	if err != nil || r.Type != localfs.TypeDir {
		t.Fatalf("root: %+v err=%v", r, err)
	}
}

func testWalk(t *testing.T, factory Factory) {
	f := factory(t, 0)
	f.WriteFile("/a/z", []byte("z"))
	f.WriteFile("/a/b/x", []byte("x"))
	f.Symlink(localfs.RootIno, "top", "t")
	var visited []string
	err := f.Walk("/", func(p string, a localfs.Attr, target string) error {
		visited = append(visited, p+":"+a.Type.String())
		if a.Type == localfs.TypeSymlink && target != "t" {
			t.Errorf("symlink target = %q", target)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "/:dir /a:dir /a/b:dir /a/b/x:file /a/z:file /top:symlink"
	if strings.Join(visited, " ") != want {
		t.Fatalf("walk = %v", visited)
	}
	visited = nil
	f.Walk("/a/b", func(p string, _ localfs.Attr, _ string) error {
		visited = append(visited, p)
		return nil
	})
	if strings.Join(visited, " ") != "/a/b /a/b/x" {
		t.Fatalf("subtree walk = %v", visited)
	}
	sentinel := errors.New("stop")
	if err := f.Walk("/", func(string, localfs.Attr, string) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("walk err = %v", err)
	}
	if err := f.Walk("/missing", func(string, localfs.Attr, string) error { return nil }); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatalf("walk missing err = %v", err)
	}
}

func testRemoveAllAccounting(t *testing.T, factory Factory) {
	f := factory(t, 0)
	f.WriteFile("/a/b/f1", []byte("11111"))
	f.WriteFile("/a/b/c/f2", []byte("22222"))
	f.WriteFile("/a/keep", []byte("k"))
	if err := f.RemoveAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LookupPath("/a/b"); !errors.Is(err, localfs.ErrNoEnt) {
		t.Fatal("subtree still present")
	}
	if _, err := f.LookupPath("/a/keep"); err != nil {
		t.Fatal("sibling lost")
	}
	if f.Used() != 1 || f.NumFiles() != 1 {
		t.Fatalf("used=%d files=%d", f.Used(), f.NumFiles())
	}
	if err := f.RemoveAll("/no/such"); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	if f.Used() != 0 || f.NumFiles() != 0 {
		t.Fatalf("after purge used=%d files=%d", f.Used(), f.NumFiles())
	}
	ents, _, _ := f.Readdir(localfs.RootIno)
	if len(ents) != 0 {
		t.Fatalf("root not empty: %v", ents)
	}
}

func testStatfs(t *testing.T, factory Factory) {
	f := factory(t, 1000)
	f.WriteFile("/f", make([]byte, 123))
	st, _, err := f.Statfs()
	if err != nil || st.TotalBytes != 1000 || st.UsedBytes != 123 || st.Files != 1 {
		t.Fatalf("statfs = %+v err=%v", st, err)
	}
}

func testBadNames(t *testing.T, factory Factory) {
	f := factory(t, 0)
	for _, bad := range []string{"", ".", "..", "a/b", strings.Repeat("x", 300)} {
		if _, _, err := f.Mkdir(localfs.RootIno, bad, 0o755); !errors.Is(err, localfs.ErrInval) {
			t.Errorf("Mkdir(%q) err = %v", bad, err)
		}
		if _, _, err := f.Create(localfs.RootIno, bad, 0o644, false); err == nil {
			t.Errorf("Create(%q) accepted", bad)
		}
	}
}

// testNamesStayInTheirDirectory: a name handed to a lookup, a removal or a
// rename's source is one component of the directory it is looked up in, so a
// name no entry can have — empty, ".", "..", one holding a '/', or too long —
// names nothing. Each call answers ErrNoEnt and the tree is as it was, even
// where the name, joined onto its directory as a path, would reach an entry:
// the directory itself, its parent, a child, or the replica area beside it.
func testNamesStayInTheirDirectory(t *testing.T, factory Factory) {
	f := factory(t, 0)
	for _, p := range []string{"/x", "/.rep/h/f", "/a/c"} {
		if err := f.WriteFile(p, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/a/b", "/.rep/h/empty"} {
		if _, err := f.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := f.LookupPath("/a")
	if err != nil {
		t.Fatal(err)
	}
	tree := func() string {
		var b strings.Builder
		f.Walk("/", func(p string, a localfs.Attr, _ string) error {
			fmt.Fprintf(&b, "%s:%s:%d ", p, a.Type, a.Size)
			return nil
		})
		return b.String()
	}
	before := tree()
	names := []string{"", ".", "..", "b/", "b/..", "../x", "c/", "../.rep/h/f", "../.rep/h/empty",
		strings.Repeat("x", localfs.MaxNameLen+1)}
	for _, name := range names {
		calls := []struct {
			op  string
			err error
		}{
			{"Lookup", func() error { _, _, err := f.Lookup(dir.Ino, name); return err }()},
			{"LookupName", func() error { _, _, err := f.LookupName(dir.Ino, []byte(name)); return err }()},
			{"Remove", func() error { _, err := f.Remove(dir.Ino, name); return err }()},
			{"Rmdir", func() error { _, err := f.Rmdir(dir.Ino, name); return err }()},
			{"Rename", func() error { _, err := f.Rename(dir.Ino, name, dir.Ino, "moved"); return err }()},
		}
		for _, c := range calls {
			if !errors.Is(c.err, localfs.ErrNoEnt) {
				t.Errorf("%s(/a, %q) err = %v, want ErrNoEnt", c.op, name, c.err)
			}
		}
		if after := tree(); after != before {
			t.Fatalf("calls with name %q changed the tree:\n before %s\n after  %s", name, before, after)
		}
	}
}

// extent is the in-memory store's extent size (localfs stores file data in
// 1 MiB pieces); every case below crosses multiples of it. The on-disk store
// has no such seam and must agree byte for byte.
const extent = 1 << 20

// pattern fills n bytes that differ at every offset modulo a prime, so a
// byte landing in the wrong extent or at the wrong offset shows.
func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i%251) ^ salt
	}
	return p
}

// checkFile compares the stored file with the model: attributes, capacity
// accounting, a whole-file read, and odd-sized reads that straddle every
// extent boundary.
func checkFile(t *testing.T, f localfs.FileSystem, ino uint64, p string, want []byte) {
	t.Helper()
	if a, _, err := f.Getattr(ino); err != nil || a.Size != int64(len(want)) {
		t.Fatalf("size = %d err=%v, want %d", a.Size, err, len(want))
	}
	if f.Used() != int64(len(want)) {
		t.Fatalf("used = %d, want %d", f.Used(), len(want))
	}
	got, err := f.ReadFile(p)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadFile: %d bytes err=%v, want %d bytes equal to the model", len(got), err, len(want))
	}
	const step = 333_337
	for off := 0; off < len(want); off += step {
		data, eof, _, err := f.Read(ino, int64(off), step)
		end := min(off+step, len(want))
		if err != nil || !bytes.Equal(data, want[off:end]) || eof != (end == len(want)) {
			t.Fatalf("Read(%d, %d): %d bytes eof=%v err=%v", off, step, len(data), eof, err)
		}
	}
	for b := extent; b < len(want); b += extent {
		data, _, _, err := f.Read(ino, int64(b-3), 7)
		if err != nil || !bytes.Equal(data, want[b-3:min(b+4, len(want))]) {
			t.Fatalf("read across the boundary at %d: %v err=%v", b, data, err)
		}
	}
}

func testExtentBoundaries(t *testing.T, factory Factory) {
	f := factory(t, 0)
	a, _, err := f.Create(localfs.RootIno, "big", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	write := func(model []byte, off int, data []byte) []byte {
		t.Helper()
		if n, _, err := f.Write(a.Ino, int64(off), data); err != nil || n != len(data) {
			t.Fatalf("write %d bytes at %d: n=%d err=%v", len(data), off, n, err)
		}
		if end := off + len(data); end > len(model) {
			model = append(model, make([]byte, end-len(model))...)
		}
		copy(model[off:], data)
		return model
	}
	resize := func(model []byte, size int) []byte {
		t.Helper()
		sz := int64(size)
		if _, _, err := f.Setattr(a.Ino, localfs.SetAttr{Size: &sz}); err != nil {
			t.Fatalf("resize to %d: %v", size, err)
		}
		if size <= len(model) {
			return model[:size:size]
		}
		return append(model, make([]byte, size-len(model))...)
	}

	// Appends whose pieces straddle the boundaries.
	var model []byte
	const piece = 700_001
	for i := 0; i < 5; i++ {
		model = write(model, len(model), pattern(piece, byte(i)))
	}
	checkFile(t, f, a.Ino, "/big", model)

	// Overwrite in place across two boundaries: the size stays put.
	model = write(model, extent-5, pattern(extent+12, 0x5A))
	checkFile(t, f, a.Ino, "/big", model)

	// A sparse write past EOF leaves a hole that reads as zeros.
	model = write(model, len(model)+extent+extent/2, pattern(10, 0x33))
	checkFile(t, f, a.Ino, "/big", model)

	// Shrink into the middle of an extent, then extend: the bytes that were
	// cut off must not come back.
	model = resize(model, extent+10)
	checkFile(t, f, a.Ino, "/big", model)
	model = resize(model, 2*extent+extent/2)
	checkFile(t, f, a.Ino, "/big", model)
	// Shrink to exactly a boundary, write at it, shrink to a few bytes, grow
	// within the first extent, and empty the file.
	model = resize(model, extent)
	model = write(model, extent, pattern(3, 0x77))
	checkFile(t, f, a.Ino, "/big", model)
	model = resize(model, 3)
	model = resize(model, 4096)
	checkFile(t, f, a.Ino, "/big", model)
	model = resize(model, 0)
	checkFile(t, f, a.Ino, "/big", model)

	// A truncating create of a multi-extent file releases all of it.
	model = write(model, 0, pattern(2*extent+1, 0x11))
	checkFile(t, f, a.Ino, "/big", model)
	if b, _, err := f.Create(localfs.RootIno, "big", 0o644, false); err != nil || b.Ino != a.Ino || b.Size != 0 {
		t.Fatalf("truncating create: %+v err=%v", b, err)
	}
	checkFile(t, f, a.Ino, "/big", nil)

	// Silent bit-rot (stores that can inject it) lands on exactly the byte
	// named, also beyond the first extent and for a negative offset.
	c, ok := f.(localfs.Corrupter)
	if !ok {
		return
	}
	model = write(nil, 0, pattern(3*extent+100, 0x42))
	for _, off := range []int64{2*extent + 17, -5, int64(len(model)) + extent} {
		if err := c.CorruptFile("/big", off); err != nil {
			t.Fatal(err)
		}
		i := off % int64(len(model))
		if i < 0 {
			i += int64(len(model))
		}
		model[i] ^= 0xFF
		checkFile(t, f, a.Ino, "/big", model)
	}
}

// testAppendRead: AppendRead is Read into the caller's buffer. It appends
// after a prefix and leaves the prefix as it was, hands an error back with
// the buffer untouched, agrees with Read on bytes and eof at every piece
// boundary of a file grown 32 + 32 + 6 KiB at a time, and appends nothing at
// or past the end.
func testAppendRead(t *testing.T, factory Factory) {
	f := factory(t, 0)
	a, _, err := f.Create(localfs.RootIno, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	for i, n := range []int{32 << 10, 32 << 10, 6 << 10} {
		chunk := pattern(n, byte(i))
		if _, _, err := f.Write(a.Ino, int64(len(model)), chunk); err != nil {
			t.Fatal(err)
		}
		model = append(model, chunk...)
	}
	d, _, _ := f.Mkdir(localfs.RootIno, "d", 0o755)
	l, _, _ := f.Symlink(localfs.RootIno, "l", "f")

	prefix := []byte("prefix")
	same := func(got []byte) bool {
		return len(got) == len(prefix) && cap(got) == cap(prefix) && &got[0] == &prefix[0]
	}
	for _, c := range []struct {
		name string
		ino  uint64
		off  int64
		want error
	}{
		{"a directory", d.Ino, 0, localfs.ErrIsDir},
		{"a symlink", l.Ino, 0, localfs.ErrInval},
		{"a stale handle", 999999, 0, localfs.ErrStale},
		{"a negative offset", a.Ino, -1, localfs.ErrInval},
	} {
		got, eof, _, err := f.AppendRead(prefix, c.ino, c.off, 10)
		if !errors.Is(err, c.want) || eof || !same(got) {
			t.Errorf("AppendRead of %s: %d bytes eof=%v err=%v, want dst back unchanged and %v", c.name, len(got), eof, err, c.want)
		}
	}

	size := len(model)
	for _, b := range []int{32 << 10, 64 << 10, size} {
		for _, off := range []int{0, b - 1, b, b + 1} {
			for _, end := range []int{b - 1, b, b + 1} {
				if off > size || end < off {
					continue
				}
				want, weof, wcost, werr := f.Read(a.Ino, int64(off), end-off)
				got, eof, cost, err := f.AppendRead(prefix, a.Ino, int64(off), end-off)
				if err != nil || werr != nil || eof != weof || cost != wcost {
					t.Fatalf("AppendRead(%d, %d): eof=%v cost=%v err=%v; Read: eof=%v cost=%v err=%v",
						off, end-off, eof, cost, err, weof, wcost, werr)
				}
				if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) ||
					!bytes.Equal(want, model[min(off, size):min(end, size)]) {
					t.Fatalf("AppendRead(%d, %d) appended %d bytes that differ from Read's %d or the model", off, end-off, len(got)-len(prefix), len(want))
				}
			}
		}
	}
	for _, off := range []int64{int64(size), int64(size) + 1} {
		if got, eof, _, err := f.AppendRead(prefix, a.Ino, off, 10); err != nil || !eof || !same(got) {
			t.Errorf("AppendRead at %d of a %d-byte file: %d bytes eof=%v err=%v, want nothing appended and eof", off, size, len(got), eof, err)
		}
	}
}

// testWindowRead: a read is charged one disk operation per started
// localfs.ReadUnit, and a read of several units is the unit-by-unit
// sequence it replaces done as one copy. From offsets at and around the unit
// boundaries of a file of two units and a tail, for counts that end short of
// a boundary, on it and past it, it appends the bytes the sequence would,
// reports its eof and charges its cost, into a buffer grown once to the
// word-rounded size. The cost is OpCost(n) for n <= ReadUnit bytes,
// k × OpCost(ReadUnit) + OpCost(r) for k units and r > 0 bytes more, and
// OpCost(0) at or past EOF, on the simnet.Disk7200 model both stores are
// built with. The largest count a request can name, 2^32-1, sizes the
// buffer by the file.
func testWindowRead(t *testing.T, factory Factory) {
	f := factory(t, 0)
	a, _, err := f.Create(localfs.RootIno, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	const unit = localfs.ReadUnit
	const size = 2*unit + 1000
	model := pattern(size, 3)
	if _, _, err := f.Write(a.Ino, 0, model); err != nil {
		t.Fatal(err)
	}
	disk := simnet.Disk7200
	// sequence is the reference: the read unit by unit, stopping at the
	// first short unit, at EOF or when count is read.
	sequence := func(off int64, count int) ([]byte, bool, simnet.Cost) {
		var out []byte
		var eof bool
		var cost simnet.Cost
		for left := count; ; {
			d, e, c, err := f.Read(a.Ino, off, min(left, unit))
			if err != nil {
				t.Fatalf("Read(%d, %d): %v", off, min(left, unit), err)
			}
			out, eof, cost = append(out, d...), e, simnet.Seq(cost, c)
			off, left = off+int64(len(d)), left-len(d)
			if e || len(d) < unit || left == 0 {
				return out, eof, cost
			}
		}
	}
	prefix := []byte("prefix")
	check := func(off int64, count int) {
		t.Helper()
		want, weof, wcost := sequence(off, count)
		got, eof, cost, err := f.AppendRead(prefix, a.Ino, off, count)
		if err != nil || eof != weof || cost != wcost {
			t.Fatalf("AppendRead(%d, %d): eof=%v cost=%v err=%v; unit by unit: eof=%v cost=%v",
				off, count, eof, cost, err, weof, wcost)
		}
		n := len(want)
		rule := disk.OpCost(n)
		if n > unit {
			rule = simnet.Cost(n/unit) * disk.OpCost(unit)
			if n%unit > 0 {
				rule += disk.OpCost(n % unit)
			}
		}
		if cost != rule {
			t.Fatalf("AppendRead(%d, %d) of %d bytes cost %v, want %v", off, count, n, cost, rule)
		}
		if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) ||
			!bytes.Equal(want, model[min(off, size):min(off+int64(n), size)]) {
			t.Fatalf("AppendRead(%d, %d) appended %d bytes that differ from the sequence's %d or the model",
				off, count, len(got)-len(prefix), n)
		}
		if n > 0 && cap(got) > (len(got)+7)&^7 {
			t.Fatalf("AppendRead(%d, %d) grew the buffer to %d for %d bytes", off, count, cap(got), len(got))
		}
	}
	for _, off := range []int64{0, 1, unit - 1, unit, unit + 1, 2*unit - 1, 2 * unit, size - 1, size, size + 1} {
		for _, count := range []int{0, 1, 1000, unit - 1, unit, unit + 1, 2*unit - 1, 2 * unit, 2*unit + 7, 3 * unit, 1<<32 - 1} {
			check(off, count)
		}
	}
	if got, eof, _, err := f.AppendRead(prefix, a.Ino, 0, -1); !errors.Is(err, localfs.ErrInval) || eof || len(got) != len(prefix) {
		t.Errorf("AppendRead(0, -1): %d bytes eof=%v err=%v, want dst back and ErrInval", len(got), eof, err)
	}
}
