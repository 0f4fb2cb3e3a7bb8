package core

import (
	"bytes"
	"path"
	"strings"
	"testing"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// refJoin is the physical path the parts stand for, built as the strings
// were before requests encoded them from parts: Place.PhysDir's join of root
// and tail, then childPath for a name that is one component and path.Join
// for any other (Remove, Rmdir and Rename joined unchecked names that way).
func refJoin(root, tail, name string) string {
	dir := refPhysDir(root, tail)
	switch {
	case name == "":
		return dir
	case oneComponent(name):
		return refChildPath(dir, name)
	}
	return path.Join(dir, name)
}

// physCases are the shapes a row's path comes in: the "/" store, the root
// index's RootStore, a level-1 home, salted and redirected (allocated)
// roots, the controlling directory itself (an empty tail), names up to 255
// bytes, and the unchecked names Remove, Rmdir and Rename may be handed.
var physCases = []physRef{
	{root: "/"},
	{root: "/", tail: "/a/b"},
	{root: "/", name: "f"},
	{root: "/", tail: "/a", name: "f"},
	{root: RootStore},
	{root: RootStore, name: "alice"},
	{root: "/home"},
	{root: "/home", name: "notes.txt"},
	{root: "/home", tail: "/src/lib", name: "a.go"},
	{root: "/docs" + SaltSep + Salt("docs", 3), tail: "/x", name: "y"},
	{root: "/" + ChainSep + "docs" + SaltSep + Salt("docs", 1) + "." + Salt("k3", 7), tail: "/x/y", name: "z"},
	{root: "/" + ChainSep + "proj." + Salt("k1", 2)},
	{root: "/home", name: strings.Repeat("n", 255)},
	{root: "/home", tail: "/" + strings.Repeat("d", 255), name: strings.Repeat("m", 255)},
	{root: "/home", tail: "/a", name: ".."},
	{root: "/home", name: "."},
	{root: "/home", tail: "/a", name: "b/c"},
	{root: "/", name: "x//y/"},
}

// parts is p's root and tail with name joined on as a row joins it.
func parts(p physRef) physRef { return physRef{root: p.root, tail: p.tail}.child(p.name) }

// TestPartsEncodeTheJoinedPath: a request encoded from a path's parts is
// byte for byte the request encoded from the joined string, for kApply and
// kMirror (both paths of a rename among them) and for LOOKUPPATH, and a row
// derives the same path.
func TestPartsEncodeTheJoinedPath(t *testing.T) {
	for i, c := range physCases {
		other := physCases[(i+5)%len(physCases)]
		checkParts(t, c, other)
	}
}

// FuzzPartsEncodeTheJoinedPath is TestPartsEncodeTheJoinedPath over any
// clean root and tail and any name.
func FuzzPartsEncodeTheJoinedPath(f *testing.F) {
	for _, c := range physCases {
		f.Add(c.root, c.tail, c.name)
	}
	f.Fuzz(func(t *testing.T, root, tail, name string) {
		if localfs.CleanPath(root) != root || tail != "" && (tail == "/" || localfs.CleanPath(tail) != tail) {
			return // a root and a tail are clean paths, and a tail is never "/"
		}
		checkParts(t, physRef{root: root, tail: tail, name: name}, physRef{root: tail + root, name: name})
	})
}

// checkParts checks that the requests c's parts encode, beside other's as a
// rename's second path, are those of the joined strings.
func checkParts(t *testing.T, c, other physRef) {
	t.Helper()
	p, q := parts(c), parts(other)
	joined, joinedQ := refJoin(c.root, c.tail, c.name), refJoin(other.root, other.tail, other.name)
	if got := p.String(); got != joined || p.components() != pathComponents(joined) {
		t.Fatalf("%+v joins as %q (%d components), want %q (%d)", c, got, p.components(), joined, pathComponents(joined))
	}
	if c.name != "" && c.tail == "" && oneComponent(c.name) {
		// A row at the controlling directory, holding the name in that
		// directory, derives the same path.
		de := &ventry{vpath: "/v", root: c.root}
		if got := de.at(c.name).String(); got != joined {
			t.Fatalf("a row rooted at %q derives %q for %q, want %q", c.root, got, c.name, joined)
		}
	}
	track := Track{PN: "docs", Root: c.root, Ver: 7}
	for _, proc := range []uint32{kApply, kMirror} {
		for _, primary := range []bool{false, true} {
			for _, op := range []FSOp{
				{Kind: FSCreate, Mode: 0o644, Excl: true},
				{Kind: FSWrite, Offset: 9, Data: []byte("lent")},
				{Kind: FSSymlink, Target: "t"},
				{Kind: FSRename},
			} {
				fromParts := applyReq{Key: Key("docs"), Track: track, Op: op, Primary: primary, at: p}
				fromString := applyReq{Key: Key("docs"), Track: track, Op: op, Primary: primary}
				fromString.Op.Path = joined
				if op.Kind == FSRename {
					fromParts.at2 = q
					fromString.Op.Path2 = joinedQ
				}
				if a, b := frameOf(fromParts.request(proc)), frameOf(fromString.request(proc)); !bytes.Equal(a, b) {
					t.Fatalf("proc %d %v from %+v and %+v:\n%x\nfrom %q and %q:\n%x", proc, op.Kind, c, other, a, joined, joinedQ, b)
				}
			}
		}
	}
	if a, b := walkFrame(func(c nfs.Client) { c.WalkParts("srv", nfs.Handle{Gen: 1, Ino: 2}, 0, p.root, p.tail, p.name) }),
		walkFrame(func(c nfs.Client) { c.Walk("srv", nfs.Handle{Gen: 1, Ino: 2}, joined, 0) }); !bytes.Equal(a, b) {
		t.Fatalf("LOOKUPPATH from %+v:\n%x\nfrom %q:\n%x", c, a, joined, b)
	}
}

// frameOf returns the joined frame x encodes and frees x.
func frameOf(x *wire.Codec) []byte {
	defer x.Free()
	return x.E.Frame().AppendTo(nil)
}

// frameTap keeps the joined frame of the one call made through it.
type frameTap struct{ req []byte }

func (f *frameTap) CallCtx(_ obs.TraceContext, _, _ simnet.Addr, _ string, req []byte) ([]byte, simnet.Cost, error) {
	f.req = wire.FrameOf(req).AppendTo(nil)
	return nil, 0, simnet.ErrUnreachable
}

// walkFrame returns the request frame walk sends through a fresh client,
// whose first xid is every fresh client's.
func walkFrame(walk func(nfs.Client)) []byte {
	tap := &frameTap{}
	walk(nfs.NewClient(tap, "cli"))
	return tap.req
}
