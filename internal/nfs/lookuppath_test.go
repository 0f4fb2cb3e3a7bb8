package nfs

import (
	"bytes"
	"testing"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// walkRig is rig plus the tree the LOOKUPPATH tests walk:
//
//	/a/b/c.txt       a regular file
//	/a/link          a symlink to "b"
//	/a/b/leaf        a symlink to "c.txt"
func walkRig(t *testing.T) (*Server, Client) {
	t.Helper()
	_, srv, c := rig(t, 0)
	if err := srv.FS().WriteFile("/a/b/c.txt", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	symlink(t, srv.FS(), "/a", "link", "b")
	symlink(t, srv.FS(), "/a/b", "leaf", "c.txt")
	return srv, c
}

// TestWalkReplySemantics pins what core reads out of a LOOKUPPATH reply:
// the status, how many components resolved before it (what tells a missing
// leaf from a dangling storage root), the handle of the last object reached,
// and the leaf's link target.
func TestWalkReplySemantics(t *testing.T) {
	srv, c := walkRig(t)
	root := srv.Root()
	stale := Handle{Gen: root.Gen + 1, Ino: root.Ino}
	for _, tc := range []struct {
		name     string
		start    Handle
		path     string
		status   Status // OK for success
		resolved int
		reached  string // path of the object FH must name ("" = not checked)
		typ      localfs.FileType
		target   string
	}{
		{name: "hit", start: root, path: "/a/b/c.txt", resolved: 3, reached: "/a/b/c.txt", typ: localfs.TypeRegular},
		{name: "unclean path", start: root, path: "a//./b/", resolved: 2, reached: "/a/b", typ: localfs.TypeDir},
		{name: "missing leaf", start: root, path: "/a/b/nope", status: ErrNoEnt, resolved: 2, reached: "/a/b"},
		{name: "missing middle", start: root, path: "/a/nope/c.txt", status: ErrNoEnt, resolved: 1, reached: "/a"},
		{name: "missing first", start: root, path: "/nope/b/c.txt", status: ErrNoEnt, resolved: 0, reached: "/"},
		{name: "file in the middle", start: root, path: "/a/b/c.txt/x", status: ErrNotDir, resolved: 3, reached: "/a/b/c.txt"},
		{name: "stale generation", start: stale, path: "/a/b/c.txt", status: ErrStale, resolved: 0},
		{name: "empty path", start: root, path: "/", resolved: 0, reached: "/", typ: localfs.TypeDir},
		{name: "symlink leaf", start: root, path: "/a/b/leaf", resolved: 3, reached: "/a/b/leaf", typ: localfs.TypeSymlink, target: "c.txt"},
		{name: "symlink in the middle", start: root, path: "/a/link/c.txt", status: ErrNotDir, resolved: 2, reached: "/a/link"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := c.Stats()
			w, _, err := c.Walk("srv", tc.start, tc.path, 0)
			if d := c.Stats().Sub(before); d.RPCs != 1 {
				t.Errorf("%d RPCs, want 1", d.RPCs)
			}
			if tc.status == OK && err != nil || tc.status != OK && !IsStatus(err, tc.status) {
				t.Fatalf("err = %v, want status %v", err, tc.status)
			}
			if w.Resolved != tc.resolved {
				t.Errorf("resolved = %d, want %d", w.Resolved, tc.resolved)
			}
			if tc.reached != "" {
				want, lerr := srv.FS().LookupPath(tc.reached)
				if lerr != nil {
					t.Fatal(lerr)
				}
				if w.FH != (Handle{Gen: root.Gen, Ino: want.Ino}) {
					t.Errorf("FH = %v, want the handle of %s (ino %d)", w.FH, tc.reached, want.Ino)
				}
			}
			if err == nil && (w.Attr.Type != tc.typ || w.Attr.Ino != w.FH.Ino) {
				t.Errorf("attr = %+v, want type %v of ino %d", w.Attr, tc.typ, w.FH.Ino)
			}
			if w.Target != tc.target {
				t.Errorf("target = %q, want %q", w.Target, tc.target)
			}
		})
	}

	// A walk that failed says where to carry on: the handle it returns takes
	// a MKDIR of the missing component.
	w, _, err := c.Walk("srv", root, "/a/b/new/deeper", 0)
	if !IsStatus(err, ErrNoEnt) || w.Resolved != 2 {
		t.Fatalf("walk: %+v err=%v", w, err)
	}
	if _, _, _, err := c.Mkdir("srv", w.FH, "new", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.FS().LookupPath("/a/b/new"); err != nil {
		t.Fatalf("mkdir under the returned handle landed elsewhere: %v", err)
	}
}

// diskTap is a transport that hands requests straight to one server and adds
// up the cost its handler reports: the disk side of an exchange alone, with
// no network in it.
type diskTap struct {
	srv  *Server
	disk simnet.Cost
}

func (n *diskTap) CallCtx(_ obs.TraceContext, from, _ simnet.Addr, _ string, req []byte) ([]byte, simnet.Cost, error) {
	resp, c, err := n.srv.Handle(from, req)
	n.disk = simnet.Seq(n.disk, c)
	return resp, c, err
}

// TestLookupPathCostsWhatItReplaces is the cost rule as a test: the server
// charges a LOOKUPPATH exactly what it charges the LOOKUP (+ READLINK)
// sequence an NFSv3 client would have sent for the same path — GETATTR only
// for the empty path — and a walk that asks for data the READ of a regular
// leaf on top, so the procedure saves round trips and nothing else. The data
// it carries is what that READ returns; a leaf that is not a regular file is
// charged no read and carries none.
func TestLookupPathCostsWhatItReplaces(t *testing.T) {
	srv, _ := walkRig(t)
	for p, data := range map[string]string{"/a/b/big": "0123456789", "/a/b/empty": ""} {
		if err := srv.FS().WriteFile(p, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	tap := &diskTap{srv: srv}
	c := NewClient(tap, "cli")
	root := srv.Root()
	spent := func(fn func()) simnet.Cost {
		before := tap.disk
		fn()
		return tap.disk - before
	}
	for _, tc := range []struct {
		name    string
		path    string
		names   []string // the LOOKUPs of the equivalent walk, up to the first that fails
		link    bool     // followed by a READLINK of the leaf
		readMax uint32   // the walk asks for this much of the leaf's data
		read    bool     // followed by a READ of readMax bytes at offset 0
	}{
		{name: "hit", path: "/a/b/c.txt", names: []string{"a", "b", "c.txt"}},
		{name: "missing leaf", path: "/a/b/nope", names: []string{"a", "b", "nope"}},
		{name: "missing middle", path: "/a/nope/c.txt", names: []string{"a", "nope"}},
		{name: "symlink leaf", path: "/a/b/leaf", names: []string{"a", "b", "leaf"}, link: true},
		{name: "empty", path: "/"},
		{name: "reading a small file", path: "/a/b/c.txt", names: []string{"a", "b", "c.txt"}, readMax: 1 << 20, read: true},
		{name: "reading past readMax", path: "/a/b/big", names: []string{"a", "b", "big"}, readMax: 4, read: true},
		{name: "reading an empty file", path: "/a/b/empty", names: []string{"a", "b", "empty"}, readMax: 1 << 20, read: true},
		{name: "reading a directory", path: "/a/b", names: []string{"a", "b"}, readMax: 1 << 20},
		{name: "reading a symlink", path: "/a/b/leaf", names: []string{"a", "b", "leaf"}, link: true, readMax: 1 << 20},
		{name: "reading a missing leaf", path: "/a/b/nope", names: []string{"a", "b", "nope"}, readMax: 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var data []byte
			var eof bool
			want := spent(func() {
				if len(tc.names) == 0 {
					c.Getattr("srv", root)
				}
				cur := root
				for _, name := range tc.names {
					h, _, _, err := c.Lookup("srv", cur, name)
					if err != nil {
						return
					}
					cur = h
				}
				if tc.link {
					c.Readlink("srv", cur)
				}
				if tc.read {
					data, eof, _, _ = c.Read("srv", cur, 0, int(tc.readMax))
				}
			})
			var w Walked
			got := spent(func() { w, _, _ = c.Walk("srv", root, tc.path, tc.readMax) })
			if got != want || want == 0 {
				t.Errorf("LOOKUPPATH charged %v on the server, the walk it replaces %v", got, want)
			}
			if !bytes.Equal(w.Data, data) || w.EOF != eof || (w.Data != nil || w.EOF) != tc.read {
				t.Errorf("walk carried %q eof=%v, the READ returned %q eof=%v", w.Data, w.EOF, data, eof)
			}
		})
	}
}

// TestLookupPathReadBoundedByFile: the reply is sized by the file, never by
// readMax, so a hostile readMax on a small file allocates the file's bytes
// and a frame, not the 4 GiB it names.
func TestLookupPathReadBoundedByFile(t *testing.T) {
	srv, _ := walkRig(t)
	if err := srv.FS().WriteFile("/a/four", []byte("0123")); err != nil {
		t.Fatal(err)
	}
	c := NewClient(&diskTap{srv: srv}, "cli")
	var w Walked
	var err error
	n := allocatedBytes(func() { w, _, err = c.Walk("srv", srv.Root(), "/a/four", 0xFFFFFFFF) })
	if err != nil || string(w.Data) != "0123" || !w.EOF {
		t.Fatalf("walk: %q eof=%v err=%v", w.Data, w.EOF, err)
	}
	if n > 8<<10 {
		t.Errorf("a 4-byte file asked for with readMax 2^32-1 allocated %d bytes", n)
	}
}
