package core

import (
	"fmt"
	"io"
	"io/fs"
	"path"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/simnet"
)

// A handle row keeps no physical path: it derives one from its storage root
// and the tail of its virtual path below the controlling directory (ventry.at).
// These tests hold every row a mount publishes to the path the row used to
// store, built the way it was built: Place.PhysDir's join of storage root and
// tail for the controlling directory, and childPath onto that for a row that
// is not a directory.

// refPhysDir is Place.PhysDir as rows used it: the tail alone below the "/"
// store, otherwise store and tail.
func refPhysDir(store, rest string) string {
	if store == "/" && rest != "" {
		return rest
	}
	return store + rest
}

// refChildPath is childPath: name joined onto a clean directory.
func refChildPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// refPhys is the physical path a row at distribution level L stored: a
// directory's place controls the directory itself, a file's or a link's is
// its parent's, and the tail is what lies below the controlling level.
func refPhys(de *ventry, L int) string {
	if de.kind == localfs.TypeDir {
		d := ControllingDepth(pathComponents(de.vpath), L)
		return refPhysDir(de.root, de.vpath[len(level(de.vpath, d)):])
	}
	dir, name := parentOf(de.vpath)
	d := ControllingDepth(pathComponents(dir), L)
	return refChildPath(refPhysDir(de.root, dir[len(level(dir, d)):]), name)
}

// rowWatch counts the rows mounts publish while it is installed and keeps
// the first few whose derived path differs from refPhys.
type rowWatch struct {
	mu    sync.Mutex
	rows  int
	kinds map[localfs.FileType]int
	bad   []string
}

// watchRows installs a rowWatch until stop is called, which uninstalls it.
func watchRows() (w *rowWatch, stop func()) {
	w = &rowWatch{kinds: map[localfs.FileType]int{}}
	h := func(m *Mount, de *ventry) {
		got, want := de.at("").String(), refPhys(de, m.n.cfg.DistributionLevel)
		w.mu.Lock()
		defer w.mu.Unlock()
		w.rows++
		w.kinds[de.kind]++
		if got != want && len(w.bad) < 10 {
			w.bad = append(w.bad, fmt.Sprintf("%s (%v, root %q, tail %q): derived %q, stored %q", de.vpath, de.kind, de.root, de.tail(), got, want))
		}
	}
	rowHook.Store(&h)
	return w, func() { rowHook.Store(nil) }
}

// watchTest is watchRows for the rest of a test, which fails on a mismatch
// or when no row of kind each of kinds was published.
func watchTest(t *testing.T, kinds ...localfs.FileType) {
	w, stop := watchRows()
	t.Cleanup(func() {
		stop()
		for _, b := range w.bad {
			t.Errorf("row %s", b)
		}
		for _, k := range kinds {
			if w.kinds[k] == 0 {
				t.Errorf("no row of type %v was published (%d rows)", k, w.rows)
			}
		}
	})
}

// TestRowPathsOfTheRootRow: the root row, bound on first use and rebound
// when its index moves, derives RootStore, and a level-1 directory made under
// it derives its own root.
func TestRowPathsOfTheRootRow(t *testing.T) {
	watchTest(t, localfs.TypeDir)
	_, nodes := testCluster(t, 6, 17, Config{DistributionLevel: 1})
	m := nodes[0].NewMount()
	if _, _, err := m.Readdir(m.Root()); err != nil {
		t.Fatal(err)
	}
	de, err := m.entry(RootVH)
	if err != nil || de.node == "" {
		t.Fatalf("root row %+v, %v: unbound after a listing", de, err)
	}
	if got := de.at("").String(); got != RootStore {
		t.Fatalf("the root row derives %q, want %q", got, RootStore)
	}
	if got := de.at("alice").String(); got != RootStore+"/alice" {
		t.Fatalf("a name in the root row derives %q, want %q", got, RootStore+"/alice")
	}
	vh, _, _, err := m.Mkdir(m.Root(), "alice", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Create(vh, "f", 0o644, false); err != nil {
		t.Fatal(err)
	}
}

// TestRowPathsAcrossRenames publishes rows at every depth around level L = 2
// before and after renames below L (one hierarchy's rename), at L (the link
// moves) and above it (copy, then delete), and after a failover rebinds them.
func TestRowPathsAcrossRenames(t *testing.T) {
	watchTest(t, localfs.TypeDir, localfs.TypeRegular, localfs.TypeSymlink)
	_, nodes := testCluster(t, 8, 23, Config{DistributionLevel: 2, Replicas: 2, NoMetadataCache: true})
	m := nodes[0].NewMount()
	for _, p := range []string{"/a/b/c/d/f", "/a/b/c/g", "/a/b/h", "/a/e/f"} {
		if _, err := m.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	dir, _, _, err := m.LookupPath("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Symlink(dir, "ln", "d/f"); err != nil {
		t.Fatal(err)
	}
	var walk func(root string)
	walk = func(root string) {
		t.Helper()
		vh, _, _, err := m.LookupPath(root)
		if err != nil {
			t.Fatalf("LookupPath(%s): %v", root, err)
		}
		ents, _, err := m.Readdir(vh)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			cvh, _, _, err := m.Lookup(vh, e.Name)
			if err != nil {
				t.Fatalf("Lookup(%s, %s): %v", root, e.Name, err)
			}
			m.Forget(cvh)
			if e.Type == localfs.TypeDir {
				walk(path.Join(root, e.Name))
			}
		}
		m.Forget(vh)
	}
	walk("/")
	b, _, _, err := m.LookupPath("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	a, _, _, err := m.LookupPath("/a")
	if err != nil {
		t.Fatal(err)
	}
	renames := []struct {
		dir      VH
		from, to string
	}{
		{b, "c", "c2"},        // below L: inside one hierarchy
		{a, "b", "b2"},        // at L: the link moves
		{m.Root(), "a", "a2"}, // above L: copy, then delete
	}
	for _, r := range renames {
		if _, err := m.Rename(r.dir, r.from, r.dir, r.to); err != nil {
			t.Fatalf("rename %s -> %s: %v", r.from, r.to, err)
		}
		if r.dir == b {
			walk("/a/b")
		}
		walk("/")
	}
	if data, _, err := m.ReadFile("/a2/b2/c2/d/f"); err != nil || string(data) != "/a/b/c/d/f" {
		t.Fatalf("ReadFile after the renames: %q, %v", data, err)
	}
	// A failover rebinds held rows onto a replica holder.
	fvh, _, _, err := m.LookupPath("/a2/b2/c2/g")
	if err != nil {
		t.Fatal(err)
	}
	de, _ := m.entry(fvh)
	for _, nd := range nodes {
		if nd.Addr() == de.node && nd != nodes[0] {
			nd.Fail()
		}
	}
	if _, _, err := m.Getattr(fvh); err != nil {
		t.Fatalf("Getattr after its primary failed: %v", err)
	}
}

// TestRowPathsUnderSaltedPlacements fills every node but one, so level-1 and
// level-2 directories redirect to salted placement names behind special
// links, and publishes rows in them.
func TestRowPathsUnderSaltedPlacements(t *testing.T) {
	watchTest(t, localfs.TypeDir, localfs.TypeRegular)
	net := simnet.New(simnet.LAN100)
	state := uint64(77)
	var nodes []*Node
	for i := 0; i < 6; i++ {
		cfg := Config{Capacity: 4 << 10, Replicas: -1, RedirectAttempts: 8, UtilizationLimit: 0.5, DistributionLevel: 2}
		if i == 5 {
			cfg.Capacity = 0
		}
		nd := NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, cfg)
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	stabilizeAll(nodes)
	for i := 0; i < 5; i++ {
		nodes[i].Store().WriteFile(RepPath("/filler"), make([]byte, 3<<10))
	}
	m := nodes[0].NewMount()
	salted := 0
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/s%d/t%d/u/f", i, i)
		if _, err := m.WriteFile(p, []byte("x")); err != nil {
			continue // every attempt landed on a full node
		}
		for _, dir := range []string{path.Dir(path.Dir(path.Dir(p))), path.Dir(path.Dir(p))} {
			if pl, _, err := nodes[1].ResolvePath(dir); err == nil && IsSalted(pl.PN()) {
				salted++
			}
		}
		if _, _, _, err := m.LookupPath(p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := nodes[2].NewMount().ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if salted == 0 {
		t.Fatal("no directory was placed under a salted name")
	}
}

// TestRowPathsAcrossFSTest runs the standard library's file system
// conformance battery (testing/fstest.TestFS) on an io/fs view of a mount,
// which opens, stats, lists and reads every file and directory of a tree
// spanning levels above and below L through fresh lookups.
func TestRowPathsAcrossFSTest(t *testing.T) {
	watchTest(t, localfs.TypeDir, localfs.TypeRegular)
	_, nodes := testCluster(t, 6, 41, Config{DistributionLevel: 2, AttrCacheTTL: time.Hour, NameCacheTTL: time.Hour})
	m := nodes[0].NewMount()
	want := []string{"home/alice/notes.txt", "home/alice/src/main.go", "home/alice/src/lib/a.go", "home/bob/b.txt", "proj/x/y/z/deep.txt", "proj/readme"}
	for _, p := range want {
		if _, err := m.WriteFile("/"+p, []byte("contents of "+p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fstest.TestFS(mountFS{nodes[1].NewMount()}, want...); err != nil {
		t.Fatal(err)
	}
}

// mountFS is a read-only io/fs view of a Mount: Open resolves the whole path,
// a directory lists with Readdir and stats each entry with Lookup.
type mountFS struct{ m *Mount }

func (f mountFS) Open(name string) (fs.File, error) {
	if !fs.ValidPath(name) {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	vh, attr, _, err := f.m.LookupPath("/" + name)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &mountFile{m: f.m, vh: vh, info: mountInfo{path.Base(name), attr}}, nil
}

type mountFile struct {
	m    *Mount
	vh   VH
	info mountInfo
	off  int64
	ents []fs.DirEntry // what ReadDir has left to hand out, once listed
	read bool
}

func (f *mountFile) Stat() (fs.FileInfo, error) { return f.info, nil }

func (f *mountFile) Read(p []byte) (int, error) {
	data, eof, _, err := f.m.Read(f.vh, f.off, len(p))
	if err != nil {
		return 0, err
	}
	n := copy(p, data)
	f.off += int64(n)
	if n == 0 && eof {
		return 0, io.EOF
	}
	return n, nil
}

func (f *mountFile) ReadDir(n int) ([]fs.DirEntry, error) {
	if !f.read {
		ents, _, err := f.m.Readdir(f.vh)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			vh, attr, _, err := f.m.Lookup(f.vh, e.Name)
			if err != nil {
				return nil, err
			}
			f.m.Forget(vh)
			f.ents = append(f.ents, fs.FileInfoToDirEntry(mountInfo{strings.Clone(e.Name), attr}))
		}
		f.read = true
	}
	if n <= 0 || n >= len(f.ents) {
		out := f.ents
		f.ents = nil
		if n > 0 && len(out) == 0 {
			return nil, io.EOF
		}
		return out, nil
	}
	out := f.ents[:n]
	f.ents = f.ents[n:]
	return out, nil
}

func (f *mountFile) Close() error {
	f.m.Forget(f.vh)
	return nil
}

type mountInfo struct {
	name string
	attr localfs.Attr
}

func (i mountInfo) Name() string       { return i.name }
func (i mountInfo) Size() int64        { return i.attr.Size }
func (i mountInfo) ModTime() time.Time { return i.attr.Mtime }
func (i mountInfo) IsDir() bool        { return i.attr.Type == localfs.TypeDir }
func (i mountInfo) Sys() any           { return nil }

func (i mountInfo) Mode() fs.FileMode {
	m := fs.FileMode(i.attr.Mode) & fs.ModePerm
	switch i.attr.Type {
	case localfs.TypeDir:
		m |= fs.ModeDir
	case localfs.TypeSymlink:
		m |= fs.ModeSymlink
	}
	return m
}
