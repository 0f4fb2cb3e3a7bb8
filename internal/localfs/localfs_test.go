package localfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

func newFS(capacity int64) *FS {
	return New(capacity, simnet.Disk7200)
}

func mustMkdir(t *testing.T, f *FS, dir uint64, name string) Attr {
	t.Helper()
	a, _, err := f.Mkdir(dir, name, 0o755)
	if err != nil {
		t.Fatalf("Mkdir(%q): %v", name, err)
	}
	return a
}

func mustCreate(t *testing.T, f *FS, dir uint64, name string) Attr {
	t.Helper()
	a, _, err := f.Create(dir, name, 0o644, false)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	return a
}

func TestCreateLookupReadWrite(t *testing.T) {
	f := newFS(0)
	d := mustMkdir(t, f, RootIno, "home")
	a := mustCreate(t, f, d.Ino, "hello.txt")

	n, _, err := f.Write(a.Ino, 0, []byte("hello world"))
	if err != nil || n != 11 {
		t.Fatalf("Write: n=%d err=%v", n, err)
	}
	got, _, err := f.Lookup(d.Ino, "hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 11 || got.Type != TypeRegular {
		t.Fatalf("attr = %+v", got)
	}
	data, eof, _, err := f.Read(a.Ino, 0, 100)
	if err != nil || !eof || string(data) != "hello world" {
		t.Fatalf("Read: %q eof=%v err=%v", data, eof, err)
	}
	// Partial read.
	data, eof, _, _ = f.Read(a.Ino, 6, 5)
	if string(data) != "world" || !eof {
		t.Fatalf("partial read %q eof=%v", data, eof)
	}
	data, eof, _, _ = f.Read(a.Ino, 0, 5)
	if string(data) != "hello" || eof {
		t.Fatalf("prefix read %q eof=%v", data, eof)
	}
	// Read past EOF.
	data, eof, _, err = f.Read(a.Ino, 100, 5)
	if err != nil || !eof || len(data) != 0 {
		t.Fatalf("past-eof read %q eof=%v err=%v", data, eof, err)
	}
}

func TestWriteAtOffsetExtends(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "sparse")
	if _, _, err := f.Write(a.Ino, 5, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	data, _, _, _ := f.Read(a.Ino, 0, 10)
	want := []byte{0, 0, 0, 0, 0, 'x', 'y'}
	if !bytes.Equal(data, want) {
		t.Fatalf("data = %v", data)
	}
	if f.Used() != 7 {
		t.Fatalf("used = %d", f.Used())
	}
	// Overwrite does not change usage.
	f.Write(a.Ino, 0, []byte("ab"))
	if f.Used() != 7 {
		t.Fatalf("used after overwrite = %d", f.Used())
	}
}

func TestQuotaEnforced(t *testing.T) {
	f := newFS(100)
	a := mustCreate(t, f, RootIno, "big")
	if _, _, err := f.Write(a.Ino, 0, make([]byte, 100)); err != nil {
		t.Fatalf("write at capacity: %v", err)
	}
	if _, _, err := f.Write(a.Ino, 100, []byte{1}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity write err = %v", err)
	}
	// Freeing space allows new writes.
	if _, err := f.Remove(RootIno, "big"); err != nil {
		t.Fatal(err)
	}
	if f.Used() != 0 {
		t.Fatalf("used after remove = %d", f.Used())
	}
	b := mustCreate(t, f, RootIno, "b")
	if _, _, err := f.Write(b.Ino, 0, make([]byte, 60)); err != nil {
		t.Fatalf("write after free: %v", err)
	}
	if got := f.Utilization(); got != 0.6 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestTruncateViaSetattr(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "t")
	f.Write(a.Ino, 0, []byte("0123456789"))
	sz := int64(4)
	attr, _, err := f.Setattr(a.Ino, SetAttr{Size: &sz})
	if err != nil || attr.Size != 4 {
		t.Fatalf("truncate: %+v err=%v", attr, err)
	}
	if f.Used() != 4 {
		t.Fatalf("used = %d", f.Used())
	}
	// Extend with zeros.
	sz = 8
	f.Setattr(a.Ino, SetAttr{Size: &sz})
	data, _, _, _ := f.Read(a.Ino, 0, 100)
	if !bytes.Equal(data, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("data = %v", data)
	}
	// Negative size rejected.
	sz = -1
	if _, _, err := f.Setattr(a.Ino, SetAttr{Size: &sz}); !errors.Is(err, ErrTooBig) {
		t.Fatalf("negative size err = %v", err)
	}
	// Truncating a directory rejected.
	d := mustMkdir(t, f, RootIno, "d")
	sz = 0
	if _, _, err := f.Setattr(d.Ino, SetAttr{Size: &sz}); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir truncate err = %v", err)
	}
}

func TestSetattrModeOwner(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "x")
	mode, uid, gid := uint32(0o600), uint32(1001), uint32(100)
	attr, _, err := f.Setattr(a.Ino, SetAttr{Mode: &mode, UID: &uid, GID: &gid})
	if err != nil {
		t.Fatal(err)
	}
	if attr.Mode != 0o600 || attr.UID != 1001 || attr.GID != 100 {
		t.Fatalf("attr = %+v", attr)
	}
}

func TestMkdirErrors(t *testing.T) {
	f := newFS(0)
	mustMkdir(t, f, RootIno, "d")
	if _, _, err := f.Mkdir(RootIno, "d", 0o755); !errors.Is(err, ErrExist) {
		t.Fatalf("dup mkdir err = %v", err)
	}
	if _, _, err := f.Mkdir(999, "x", 0o755); !errors.Is(err, ErrStale) {
		t.Fatalf("stale parent err = %v", err)
	}
	a := mustCreate(t, f, RootIno, "f")
	if _, _, err := f.Mkdir(a.Ino, "x", 0o755); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mkdir in file err = %v", err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", strings.Repeat("x", 300)} {
		if _, _, err := f.Mkdir(RootIno, bad, 0o755); !errors.Is(err, ErrInval) {
			t.Errorf("Mkdir(%q) err = %v", bad, err)
		}
	}
}

func TestCreateExclusive(t *testing.T) {
	f := newFS(0)
	mustCreate(t, f, RootIno, "f")
	if _, _, err := f.Create(RootIno, "f", 0o644, true); !errors.Is(err, ErrExist) {
		t.Fatalf("exclusive create err = %v", err)
	}
	// Unchecked create truncates.
	a := mustCreate(t, f, RootIno, "g")
	f.Write(a.Ino, 0, []byte("data"))
	got, _, err := f.Create(RootIno, "g", 0o644, false)
	if err != nil || got.Size != 0 {
		t.Fatalf("unchecked create: %+v err=%v", got, err)
	}
	if f.Used() != 0 {
		t.Fatalf("used after truncate = %d", f.Used())
	}
	// Unchecked create over a directory fails.
	mustMkdir(t, f, RootIno, "d")
	if _, _, err := f.Create(RootIno, "d", 0o644, false); !errors.Is(err, ErrIsDir) {
		t.Fatalf("create over dir err = %v", err)
	}
}

func TestRemoveAndRmdir(t *testing.T) {
	f := newFS(0)
	d := mustMkdir(t, f, RootIno, "d")
	mustCreate(t, f, d.Ino, "f")
	if _, err := f.Rmdir(RootIno, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	if _, err := f.Remove(RootIno, "d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("remove dir err = %v", err)
	}
	if _, err := f.Rmdir(d.Ino, "f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("rmdir file err = %v", err)
	}
	if _, err := f.Remove(d.Ino, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Rmdir(RootIno, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Remove(RootIno, "ghost"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("remove missing err = %v", err)
	}
	// Stale handles after removal.
	if _, _, err := f.Getattr(d.Ino); !errors.Is(err, ErrStale) {
		t.Fatalf("getattr removed dir err = %v", err)
	}
}

func TestRename(t *testing.T) {
	f := newFS(0)
	d1 := mustMkdir(t, f, RootIno, "d1")
	d2 := mustMkdir(t, f, RootIno, "d2")
	a := mustCreate(t, f, d1.Ino, "f")
	f.Write(a.Ino, 0, []byte("payload"))

	if _, err := f.Rename(d1.Ino, "f", d2.Ino, "g"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Lookup(d1.Ino, "f"); !errors.Is(err, ErrNoEnt) {
		t.Fatal("source still present after rename")
	}
	got, _, err := f.Lookup(d2.Ino, "g")
	if err != nil || got.Ino != a.Ino || got.Size != 7 {
		t.Fatalf("dest lookup: %+v err=%v", got, err)
	}

	// Overwrite an existing file.
	mustCreate(t, f, d2.Ino, "h")
	if _, err := f.Rename(d2.Ino, "g", d2.Ino, "h"); err != nil {
		t.Fatal(err)
	}
	// Rename dir over non-empty dir fails.
	s1 := mustMkdir(t, f, RootIno, "s1")
	s2 := mustMkdir(t, f, RootIno, "s2")
	mustCreate(t, f, s2.Ino, "inner")
	if _, err := f.Rename(RootIno, "s1", RootIno, "s2"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rename over non-empty dir err = %v", err)
	}
	// Rename dir into its own subtree fails.
	sub := mustMkdir(t, f, s1.Ino, "sub")
	if _, err := f.Rename(RootIno, "s1", sub.Ino, "evil"); !errors.Is(err, ErrInval) {
		t.Fatalf("rename into own subtree err = %v", err)
	}
	// Rename missing source.
	if _, err := f.Rename(RootIno, "nope", RootIno, "x"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("rename missing err = %v", err)
	}
	_ = s2
}

func TestReaddirSorted(t *testing.T) {
	f := newFS(0)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		mustCreate(t, f, RootIno, n)
	}
	mustMkdir(t, f, RootIno, "bdir")
	f.Symlink(RootIno, "slink", "target")
	ents, _, err := f.Readdir(RootIno)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	want := []string{"alpha", "bdir", "mid", "slink", "zeta"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("names = %v", names)
	}
	for _, e := range ents {
		switch e.Name {
		case "bdir":
			if e.Type != TypeDir {
				t.Errorf("bdir type = %v", e.Type)
			}
		case "slink":
			if e.Type != TypeSymlink {
				t.Errorf("slink type = %v", e.Type)
			}
		default:
			if e.Type != TypeRegular {
				t.Errorf("%s type = %v", e.Name, e.Type)
			}
		}
	}
}

func TestSymlinkReadlink(t *testing.T) {
	f := newFS(0)
	a, _, err := f.Symlink(RootIno, "lnk", "dir#salt42")
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != TypeSymlink || a.Size != int64(len("dir#salt42")) {
		t.Fatalf("attr = %+v", a)
	}
	target, _, err := f.Readlink(a.Ino)
	if err != nil || target != "dir#salt42" {
		t.Fatalf("readlink = %q err=%v", target, err)
	}
	// Readlink on a file fails.
	b := mustCreate(t, f, RootIno, "f")
	if _, _, err := f.Readlink(b.Ino); !errors.Is(err, ErrInval) {
		t.Fatalf("readlink on file err = %v", err)
	}
	// Symlink target counts against quota.
	g := New(5, simnet.Disk7200)
	if _, _, err := g.Symlink(RootIno, "l", "123456"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("symlink over quota err = %v", err)
	}
}

func TestPathHelpers(t *testing.T) {
	f := newFS(0)
	if _, err := f.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	attr, err := f.LookupPath("/a/b/c")
	if err != nil || attr.Type != TypeDir {
		t.Fatalf("LookupPath: %+v err=%v", attr, err)
	}
	// MkdirAll is idempotent.
	if _, err := f.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/a/b/c/file.txt", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadFile("/a/b/c/file.txt")
	if err != nil || string(data) != "xyz" {
		t.Fatalf("ReadFile = %q err=%v", data, err)
	}
	// MkdirAll through a file fails.
	if _, err := f.MkdirAll("/a/b/c/file.txt/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("MkdirAll through file err = %v", err)
	}
	if _, err := f.LookupPath("/a/zz"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("LookupPath missing err = %v", err)
	}
	// Root lookup.
	r, err := f.LookupPath("/")
	if err != nil || r.Ino != RootIno {
		t.Fatalf("root lookup: %+v err=%v", r, err)
	}
}

func TestRemoveAllSubtree(t *testing.T) {
	f := newFS(0)
	f.WriteFile("/a/b/f1", []byte("11111"))
	f.WriteFile("/a/b/c/f2", []byte("22222"))
	f.WriteFile("/a/keep", []byte("k"))
	if err := f.RemoveAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LookupPath("/a/b"); !errors.Is(err, ErrNoEnt) {
		t.Fatal("subtree still present")
	}
	if _, err := f.LookupPath("/a/keep"); err != nil {
		t.Fatal("sibling lost")
	}
	if f.Used() != 1 || f.NumFiles() != 1 {
		t.Fatalf("used=%d files=%d", f.Used(), f.NumFiles())
	}
	// Missing target is fine.
	if err := f.RemoveAll("/no/such"); err != nil {
		t.Fatal(err)
	}
	// Purge the whole store.
	if err := f.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	if f.Used() != 0 || f.NumFiles() != 0 {
		t.Fatalf("after purge used=%d files=%d", f.Used(), f.NumFiles())
	}
	ents, _, _ := f.Readdir(RootIno)
	if len(ents) != 0 {
		t.Fatalf("root not empty: %v", ents)
	}
}

func TestWalkOrderAndContent(t *testing.T) {
	f := newFS(0)
	f.WriteFile("/a/z", []byte("z"))
	f.WriteFile("/a/b/x", []byte("x"))
	f.Symlink(RootIno, "top", "t")
	var visited []string
	err := f.Walk("/", func(p string, attr Attr, target string) error {
		visited = append(visited, fmt.Sprintf("%s:%s", p, attr.Type))
		if attr.Type == TypeSymlink && target != "t" {
			t.Errorf("symlink target = %q", target)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/:dir", "/a:dir", "/a/b:dir", "/a/b/x:file", "/a/z:file", "/top:symlink"}
	if strings.Join(visited, " ") != strings.Join(want, " ") {
		t.Fatalf("walk order = %v", visited)
	}
	// Walk of a subtree.
	visited = nil
	f.Walk("/a/b", func(p string, attr Attr, _ string) error {
		visited = append(visited, p)
		return nil
	})
	if strings.Join(visited, " ") != "/a/b /a/b/x" {
		t.Fatalf("subtree walk = %v", visited)
	}
	// Propagates callback errors.
	sentinel := errors.New("stop")
	if err := f.Walk("/", func(string, Attr, string) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("walk error = %v", err)
	}
}

func TestStatfs(t *testing.T) {
	f := newFS(1000)
	f.WriteFile("/f", make([]byte, 123))
	st, _, err := f.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalBytes != 1000 || st.UsedBytes != 123 || st.Files != 1 {
		t.Fatalf("statfs = %+v", st)
	}
}

func TestClockInjection(t *testing.T) {
	fake := time.Date(2004, 11, 6, 0, 0, 0, 0, time.UTC)
	f := New(0, simnet.Disk7200, WithClock(func() time.Time { return fake }))
	a := mustCreate(t, f, RootIno, "f")
	if !a.Mtime.Equal(fake) || !a.Ctime.Equal(fake) {
		t.Fatalf("times = %+v", a)
	}
}

func TestReadWriteInvalidArgs(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "f")
	if _, _, _, err := f.Read(a.Ino, -1, 10); !errors.Is(err, ErrInval) {
		t.Fatalf("negative offset read err = %v", err)
	}
	if _, _, err := f.Write(a.Ino, -1, []byte("x")); !errors.Is(err, ErrInval) {
		t.Fatalf("negative offset write err = %v", err)
	}
	d := mustMkdir(t, f, RootIno, "d")
	if _, _, _, err := f.Read(d.Ino, 0, 1); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read dir err = %v", err)
	}
	if _, _, err := f.Write(d.Ino, 0, []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("write dir err = %v", err)
	}
	l, _, _ := f.Symlink(RootIno, "l", "t")
	if _, _, _, err := f.Read(l.Ino, 0, 1); !errors.Is(err, ErrInval) {
		t.Fatalf("read symlink err = %v", err)
	}
}

// Property: used bytes always equals the sum of all file and symlink sizes.
func TestPropUsageAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := newFS(0)
	type fileRef struct {
		dir  uint64
		name string
		ino  uint64
	}
	var files []fileRef
	dirs := []uint64{RootIno}

	verify := func() {
		var want int64
		f.Walk("/", func(p string, a Attr, _ string) error {
			if a.Type != TypeDir {
				want += a.Size
			}
			return nil
		})
		if got := f.Used(); got != want {
			t.Fatalf("used = %d, walk sum = %d", got, want)
		}
	}

	for step := 0; step < 500; step++ {
		switch r.Intn(5) {
		case 0: // mkdir
			d := dirs[r.Intn(len(dirs))]
			a, _, err := f.Mkdir(d, fmt.Sprintf("d%d", step), 0o755)
			if err == nil {
				dirs = append(dirs, a.Ino)
			}
		case 1: // create
			d := dirs[r.Intn(len(dirs))]
			name := fmt.Sprintf("f%d", step)
			a, _, err := f.Create(d, name, 0o644, false)
			if err == nil {
				files = append(files, fileRef{d, name, a.Ino})
			}
		case 2: // write
			if len(files) > 0 {
				fr := files[r.Intn(len(files))]
				f.Write(fr.ino, int64(r.Intn(2000)), make([]byte, r.Intn(4000)))
			}
		case 3: // truncate
			if len(files) > 0 {
				fr := files[r.Intn(len(files))]
				sz := int64(r.Intn(1000))
				f.Setattr(fr.ino, SetAttr{Size: &sz})
			}
		case 4: // remove
			if len(files) > 1 {
				i := r.Intn(len(files))
				fr := files[i]
				if _, err := f.Remove(fr.dir, fr.name); err == nil {
					files = append(files[:i], files[i+1:]...)
				}
			}
		}
		if step%50 == 0 {
			verify()
		}
	}
	verify()
}

func BenchmarkWrite4K(b *testing.B) {
	f := newFS(0)
	a, _, _ := f.Create(RootIno, "bench", 0o644, false)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Write(a.Ino, int64(i%256)*4096, buf)
	}
}

func BenchmarkLookup(b *testing.B) {
	f := newFS(0)
	for i := 0; i < 100; i++ {
		f.Create(RootIno, fmt.Sprintf("f%02d", i), 0o644, false)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Lookup(RootIno, "f50")
	}
}

// TestPropNlinkMatchesRecount: a directory's link count is kept as entries
// come and go, not counted at every attrOf; after every step of a random
// sequence of mkdir, rmdir, rename, RemoveAll, MkdirAll and create, every
// directory's count equals a recount of its subdirectories.
func TestPropNlinkMatchesRecount(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	f := newFS(0)
	paths := func() (dirs, all []string) {
		f.Walk("/", func(p string, a Attr, _ string) error {
			all = append(all, p)
			if a.Type == TypeDir {
				dirs = append(dirs, p)
			}
			return nil
		})
		return dirs, all
	}
	pick := func(ps []string) string { return ps[r.Intn(len(ps))] }
	ino := func(p string) uint64 {
		a, err := f.LookupPath(p)
		if err != nil {
			t.Fatalf("LookupPath(%q): %v", p, err)
		}
		return a.Ino
	}
	for step := 0; step < 2000; step++ {
		dirs, all := paths()
		name := fmt.Sprintf("n%d", r.Intn(40))
		switch r.Intn(7) {
		case 0, 1:
			f.Mkdir(ino(pick(dirs)), name, 0o755)
		case 2:
			f.Create(ino(pick(dirs)), name, 0o644, false)
		case 3:
			if p := pick(all); p != "/" {
				f.Rmdir(ino(path.Dir(p)), path.Base(p))
			}
		case 4:
			if p := pick(all); p != "/" {
				f.Rename(ino(path.Dir(p)), path.Base(p), ino(pick(dirs)), name)
			}
		case 5:
			if p := pick(all); r.Intn(4) == 0 {
				f.RemoveAll(p)
			}
		case 6:
			f.MkdirAll(path.Join(pick(dirs), name, fmt.Sprintf("m%d", r.Intn(3))))
		}
		f.mu.RLock()
		for _, in := range f.inodes {
			want := uint32(1)
			if in.typ == TypeDir {
				want = 2
				for _, c := range in.children {
					if c.typ == TypeDir {
						want++
					}
				}
			}
			if got := f.attrOf(in).Nlink; got != want {
				f.mu.RUnlock()
				t.Fatalf("step %d: inode %d (%s) has nlink %d, recount %d", step, in.ino, in.name, got, want)
			}
		}
		f.mu.RUnlock()
	}
}
