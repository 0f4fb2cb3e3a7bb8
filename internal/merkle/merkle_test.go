package merkle

import (
	"testing"

	"repro/internal/cas"
	"repro/internal/localfs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func newStore(t *testing.T) localfs.FileSystem {
	t.Helper()
	return localfs.New(0, simnet.DiskModel{})
}

func mustDigest(t *testing.T, c *Cache, p string) Digest {
	t.Helper()
	d, err := c.DigestOf(p)
	if err != nil {
		t.Fatalf("DigestOf(%s): %v", p, err)
	}
	return d
}

func TestDigestDomainSeparation(t *testing.T) {
	// A file whose bytes equal a symlink's target must not collide with it,
	// nor either with an empty directory.
	if FileDigest([]byte("x")) == SymlinkDigest("x") {
		t.Fatal("file and symlink digests collide")
	}
	if FileDigest(nil) == DirDigest(nil) {
		t.Fatal("empty file and empty dir digests collide")
	}
}

func TestInvalidationOnMutation(t *testing.T) {
	fs := newStore(t)
	if err := fs.WriteFile("/tree/a/x.txt", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/tree/b/y.txt", []byte("two")); err != nil {
		t.Fatal(err)
	}
	c := NewCache(fs)
	before := mustDigest(t, c, "/tree")
	beforeB := mustDigest(t, c, "/tree/b")

	// Mutation through the store (not through the cache) must invalidate the
	// memoized path and its ancestors via the notification hook.
	if err := fs.WriteFile("/tree/a/x.txt", []byte("ONE")); err != nil {
		t.Fatal(err)
	}
	after := mustDigest(t, c, "/tree")
	if after == before {
		t.Fatal("root digest unchanged after nested mutation")
	}
	if got := mustDigest(t, c, "/tree/b"); got != beforeB {
		t.Fatal("sibling subtree digest moved without a mutation")
	}

	// Removal invalidates too.
	if err := fs.RemoveAll("/tree/a"); err != nil {
		t.Fatal(err)
	}
	if got := mustDigest(t, c, "/tree"); got == after {
		t.Fatal("root digest unchanged after subtree removal")
	}

	// Rename invalidates both old and new locations.
	if err := fs.WriteFile("/tree/c.txt", []byte("c")); err != nil {
		t.Fatal(err)
	}
	pre := mustDigest(t, c, "/tree")
	root, err := fs.LookupPath("/tree")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Rename(root.Ino, "c.txt", root.Ino, "d.txt"); err != nil {
		t.Fatal(err)
	}
	if got := mustDigest(t, c, "/tree"); got == pre {
		t.Fatal("root digest unchanged after rename")
	}
}

func TestCacheAgreesWithOracle(t *testing.T) {
	fs := newStore(t)
	if err := fs.WriteFile("/p/q/r.txt", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	dir, err := fs.LookupPath("/p")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Symlink(dir.Ino, "ln", "q/r.txt"); err != nil {
		t.Fatal(err)
	}
	c := NewCache(fs)
	for _, p := range []string{"/p", "/p/q", "/p/q/r.txt", "/p/ln"} {
		want, err := DigestPath(fs, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustDigest(t, c, p); got != want {
			t.Fatalf("cache(%s) != oracle", p)
		}
		// Second read comes from the memo and must agree too.
		if got := mustDigest(t, c, p); got != want {
			t.Fatalf("memoized cache(%s) != oracle", p)
		}
	}
}

func TestEntriesListsChildrenSorted(t *testing.T) {
	fs := newStore(t)
	for _, name := range []string{"b.txt", "a.txt", "c.txt"} {
		if err := fs.WriteFile("/d/"+name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(fs)
	ents, ok, err := c.Entries("/d")
	if err != nil || !ok {
		t.Fatalf("Entries: ok=%v err=%v", ok, err)
	}
	if len(ents) != 3 || ents[0].Name != "a.txt" || ents[1].Name != "b.txt" || ents[2].Name != "c.txt" {
		t.Fatalf("entries out of order: %+v", ents)
	}
	for _, ent := range ents {
		if want := FileDigest([]byte(ent.Name)); ent.Digest != want {
			t.Fatalf("child %s digest mismatch", ent.Name)
		}
	}
	if _, ok, err := c.Entries("/missing"); ok || err != nil {
		t.Fatalf("Entries on missing dir: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.Entries("/d/a.txt"); ok || err != nil {
		t.Fatalf("Entries on a file: ok=%v err=%v", ok, err)
	}
}

func TestEntriesCodecRoundTrip(t *testing.T) {
	in := []Entry{
		{Name: "a", Type: localfs.TypeRegular, Digest: FileDigest([]byte("a"))},
		{Name: "dir", Type: localfs.TypeDir, Digest: DirDigest(nil)},
		{Name: "ln", Type: localfs.TypeSymlink, Digest: SymlinkDigest("a")},
	}
	e := wire.NewEncoder(128)
	PutEntries(e, in)
	d := wire.NewDecoder(e.Bytes())
	out := GetEntries(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

// TestMutationHookAllocs: a write to an existing file, with a digest cache
// and its block index subscribed, allocates only the path string the store
// hands its subscribers.
func TestMutationHookAllocs(t *testing.T) {
	fs := newStore(t)
	for _, p := range []string{"/d/f", "/e/g"} {
		if err := fs.WriteFile(p, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCacheWithStore(fs, cas.NewStore(fs, nil))
	mustDigest(t, c, "/") // the memo keeps /e and /e/g across the writes
	attr, err := fs.LookupPath("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := fs.Write(attr.Ino, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("a write with the digest cache subscribed allocates %.0f times, want <= 1", n)
	}
	if len(c.memo) == 0 {
		t.Fatal("the memo emptied: the test no longer walks it")
	}
}
