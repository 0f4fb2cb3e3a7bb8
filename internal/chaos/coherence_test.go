package chaos

import (
	"errors"
	"fmt"
	"path"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
)

// What a second mount may observe after the first one's acknowledged rename,
// rmdir or re-creation (DESIGN.md §4): a resolver entry names the directory
// its virtual path reaches now or a storage root that is gone, so a path that
// exists never answers a spurious NOENT, a write is never acknowledged under
// a name that no longer reaches the bytes, and the resolver's own sentinel
// never crosses the API. Each scenario ends on a settled cluster read through
// a node that took no part in it.

// renameIn renames dir/from to dir/to through m and in the model.
func renameIn(b *wfBed, m *core.Mount, dir, from, to string) {
	b.t.Helper()
	vh, _, _, err := m.LookupPath(dir)
	if err != nil {
		b.t.Fatal(err)
	}
	if _, err := m.Rename(vh, from, vh, to); err != nil {
		b.t.Fatalf("rename %s/%s -> %s: %v", dir, from, to, err)
	}
	m.Forget(vh)
	b.model.Rename(path.Join(dir, from), path.Join(dir, to))
}

// TestStaleChainAfterAncestorRename is REVIEW 19's case. At L=3 node X
// has the whole resolver chain for /u/proj/src when node Y renames /u/proj.
// The rename is above the leaf distributed level, so it copies: /u/proj/src's
// storage root is gone with the old name and X's entry dangles. When the link
// rename was taken here it moved /u/proj's own root only, X's entry for src
// kept naming a live root, and the write below landed in /u/tmp/src.
func TestStaleChainAfterAncestorRename(t *testing.T) {
	b := newWFBed(t, core.Config{DistributionLevel: 3})
	others := b.others(2)
	y, third := others[0], others[1]
	renameIn(b, y, "/u", "proj", "tmp")

	data := []byte("package src // g")
	b.write("/u/proj/src/g.go", data)
	b.model.MkdirAll("/u/proj/src")
	if got, _, err := third.ReadFile("/u/proj/src/g.go"); err != nil || string(got) != string(data) {
		t.Errorf("the write under the name it was given: %q err=%v", got, err)
	}
	if _, _, _, err := third.LookupPath("/u/tmp/src/g.go"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Errorf("the write landed under the renamed directory: err=%v, want NFS3ERR_NOENT", err)
	}
	b.settleThrough(third)
}

// TestRenameUnderReader is the rename-under-a-reader conflict below the
// distribution level. Mount B holds a name-cache entry for /u/proj/src when
// mount A renames src away and makes it again with a new file in it. B's
// cached entry still carries a live handle, the renamed directory's, so B's
// lookup of the new file through it answers NOENT for a path that exists;
// failover's cached-entry arm revalidates the directory once and finds it.
func TestRenameUnderReader(t *testing.T) {
	b := newWFBed(t, core.Config{AttrCacheTTL: time.Hour, NameCacheTTL: time.Hour})
	proj, _, _, err := b.m.LookupPath("/u/proj")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := b.m.Lookup(proj, "src"); err != nil { // B caches the name
		t.Fatal(err)
	}
	others := b.others(2)
	a, third := others[0], others[1]
	renameIn(b, a, "/u/proj", "src", "old")
	if _, err := a.WriteFile("/u/proj/src/n.go", []byte("package src // n")); err != nil {
		t.Fatal(err)
	}
	b.model.WriteFile("/u/proj/src/n.go", []byte("package src // n"))

	src, _, _, err := b.m.Lookup(proj, "src")
	if err != nil {
		t.Fatal(err)
	}
	if _, attr, _, err := b.m.Lookup(src, "n.go"); err != nil || attr.Size != int64(len("package src // n")) {
		t.Errorf("lookup of the new file through the cached directory: %+v err=%v", attr, err)
	}
	if _, _, _, err := b.m.Lookup(src, "a.go"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Errorf("the renamed directory's file under the new one: err=%v, want NFS3ERR_NOENT", err)
	}
	b.settleThrough(third)
}

// TestNoSentinelCrossesTheAPI: node X holds the resolver chain for
// /u/proj/src and open handles below it when node Y renames, removes, or
// removes and re-creates each of the three distributed levels. Every exported
// Mount method X then calls succeeds or answers an NFS status — never the
// resolver's internal "storage root dangles", which is no *nfs.Error —, one
// that succeeds on a name is acknowledged only where the model has the name,
// and the creating calls always succeed. Whichever call comes first meets
// X's stale chain, so each row runs three times: the battery as it stands,
// and behind a rename and an rmdir of the disturbed directory itself, which
// resolve their victim on their own.
func TestNoSentinelCrossesTheAPI(t *testing.T) {
	const src, file = "/u/proj/src", "/u/proj/src/a.go"
	disturb := map[string]func(b *wfBed, y *core.Mount, p string){
		"rename": func(b *wfBed, y *core.Mount, p string) {
			renameIn(b, y, path.Dir(p), path.Base(p), path.Base(p)+"2")
		},
		"rmdir": func(b *wfBed, y *core.Mount, p string) {
			if _, err := y.RemoveAllPath(p); err != nil {
				b.t.Fatal(err)
			}
			b.model.RemoveAll(p)
		},
		"recreate": func(b *wfBed, y *core.Mount, p string) {
			if _, err := y.RemoveAllPath(p); err != nil {
				b.t.Fatal(err)
			}
			b.model.RemoveAll(p)
			if _, err := y.WriteFile(file, []byte("package src // again")); err != nil {
				b.t.Fatal(err)
			}
			b.model.WriteFile(file, []byte("package src // again"))
		},
	}
	for _, p := range []string{"/u", "/u/proj", src} {
		for how, do := range disturb {
			for _, first := range []string{"LookupPath", "Rename", "Rmdir"} {
				t.Run(fmt.Sprintf("%s %s, %s first", how, p, first), func(t *testing.T) { noSentinelRow(t, p, first, do) })
			}
		}
	}
}

func noSentinelRow(t *testing.T, p, first string, disturb func(b *wfBed, y *core.Mount, p string)) {
	const src, file = "/u/proj/src", "/u/proj/src/a.go"
	b := newWFBed(t, core.Config{DistributionLevel: 3})
	x := b.m
	dirVH, _, _, err := x.LookupPath(src)
	if err != nil {
		t.Fatal(err)
	}
	fileVH, _, _, err := x.LookupPath(file)
	if err != nil {
		t.Fatal(err)
	}
	others := b.others(2)
	disturb(b, others[0], p)

	// call checks one method's answer. on is the path the call acts
	// under: an acknowledged call needs it in the model, and then ack
	// (if any) records what the call did. held is call for a read
	// through a handle opened before: like an NFS handle it follows
	// the object across a rename, so it may succeed without the name.
	check := func(method, on string, err error, needName bool, ack func()) {
		t.Helper()
		var status *nfs.Error
		switch {
		case err != nil && !errors.As(err, &status):
			t.Errorf("%s: %v, which is no NFS status", method, err)
		case err == nil && needName && !b.model.Exists(on):
			t.Errorf("%s acknowledged under %s, which no longer exists", method, on)
		case err != nil && b.model.Exists(on) && status.Status == nfs.ErrNoEnt:
			t.Errorf("%s: %v, and %s exists", method, err, on)
		case err == nil && ack != nil:
			ack()
		}
	}
	call := func(method, on string, err error, ack func()) {
		t.Helper()
		check(method, on, err, true, ack)
	}
	held := func(method, on string, err error) { t.Helper(); check(method, on, err, false, nil) }
	if first != "LookupPath" {
		parent := x.Root()
		if path.Dir(p) != "/" {
			parent, _, _, err = x.LookupPath(path.Dir(p))
			call("LookupPath", path.Dir(p), err, nil)
		}
		if first == "Rmdir" { // p is gone, or it is not empty
			_, err = x.Rmdir(parent, path.Base(p))
			call("Rmdir", "", err, nil)
		} else { // there and back: the model ends where it was
			for _, mv := range [][2]string{{path.Base(p), "there"}, {"there", path.Base(p)}} {
				_, err = x.Rename(parent, mv[0], parent, mv[1])
				call("Rename "+mv[0], p, err, nil)
			}
		}
	}
	content, _ := b.model.FileContent(file)
	mode := uint32(0o600)

	_, _, _, err = x.LookupPath(file)
	call("LookupPath", file, err, nil)
	_, _, err = x.ReadFile(file)
	call("ReadFile", file, err, nil)
	_, _, err = x.Getattr(fileVH)
	held("Getattr", file, err)
	_, _, err = x.Setattr(fileVH, localfs.SetAttr{Mode: &mode})
	call("Setattr", file, err, nil)
	_, _, _, err = x.Read(fileVH, 0, 64)
	held("Read", file, err)
	_, _, err = x.Write(fileVH, 0, content)
	call("Write", file, err, nil)
	if _, _, err = x.Readlink(fileVH); err == nil {
		t.Error("Readlink of a regular file succeeded")
	}
	held("Readlink", src, err)

	_, _, _, err = x.Lookup(dirVH, "a.go")
	held("Lookup", file, err)
	_, _, err = x.Readdir(dirVH)
	held("Readdir", src, err)
	_, _, _, err = x.Create(dirVH, "c.go", 0o644, false)
	call("Create", src, err, func() { b.model.WriteFile(src+"/c.go", nil) })
	_, err = x.Rename(dirVH, "c.go", dirVH, "d.go")
	call("Rename", src+"/c.go", err, func() { b.model.Rename(src+"/c.go", src+"/d.go") })
	_, err = x.Remove(dirVH, "d.go")
	call("Remove", src+"/d.go", err, func() { b.model.RemoveAll(src + "/d.go") })
	_, _, _, err = x.Mkdir(dirVH, "sub", 0o755)
	call("Mkdir", src, err, func() { b.model.MkdirAll(src + "/sub") })
	_, err = x.Rmdir(dirVH, "sub")
	call("Rmdir", src+"/sub", err, func() { b.model.RemoveAll(src + "/sub") })
	_, _, err = x.Symlink(dirVH, "ln", "a.go")
	call("Symlink", src, err, func() {
		if _, err := x.Remove(dirVH, "ln"); err != nil { // the model has no symlinks
			t.Errorf("Remove of the symlink just made: %v", err)
		}
	})

	// The creating calls make whatever is missing and always succeed.
	if _, _, err := x.MkdirAll(src + "/deep/er"); err != nil {
		t.Errorf("MkdirAll: %v", err)
	}
	b.model.MkdirAll(src + "/deep/er")
	b.write(src+"/g.go", []byte("package src // g"))
	if _, err := x.RemoveAllPath(src + "/deep"); err != nil {
		t.Errorf("RemoveAllPath: %v", err)
	}
	b.model.RemoveAll(src + "/deep")
	b.settleThrough(others[1])
}
