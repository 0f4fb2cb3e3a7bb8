package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestNothingKeepsAFreedRequest runs every request path at K = 2 with freed
// request Codecs poisoned (wire.PoisonFreed): write-through writes, whose
// primary lends each one on to its replicas in one kMirror frame (the mirror
// fan-out), a write-back flush, whole-file writes, a mirrored rename, a
// LOOKUPPATH whose reply carries the file, and ReadInto. A caller's head is
// recycled as soon as its call returns, so anything a handler, a store or a
// caller kept of a request would read wire.Poison, or the next request's
// bytes: no stored file, name or tracking record, and no decoded reply, may
// differ from what was written.
func TestNothingKeepsAFreedRequest(t *testing.T) {
	defer wire.PoisonFreed(wire.PoisonFreed(true))
	net := simnet.New(simnet.LAN100)
	state := uint64(86)
	nodes := make([]*Node, 5)
	for i := range nodes {
		cfg := Config{Replicas: 2}
		if i == 0 {
			cfg.WriteBackBytes = 256 << 10
		}
		nodes[i] = NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, cfg)
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nodes[i].Join(boot); err != nil {
			t.Fatal(err)
		}
	}
	stabilizeAll(nodes)

	payload := make([]byte, 1<<20+4321)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	files := map[string][]byte{}
	for name, m := range map[string]*Mount{"wb": nodes[0].NewMount(), "wt": nodes[1].NewMount()} {
		dir, _, err := m.MkdirAll("/freed")
		if err != nil {
			t.Fatal(err)
		}
		fvh, _, _, err := m.Create(dir, name, 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(payload); off += 32 << 10 {
			if _, _, err := m.Write(fvh, int64(off), payload[off:min(off+32<<10, len(payload))]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Close(fvh); err != nil {
			t.Fatal(err)
		}
		whole := "/freed/whole-" + name
		if _, err := m.WriteFile(whole, payload[:100<<10]); err != nil {
			t.Fatal(err)
		}
		files["/freed/"+name], files[whole] = payload, payload[:100<<10]
	}
	m := nodes[1].NewMount()
	dir, _, _, err := m.LookupPath("/freed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(dir, "wt", dir, "renamed"); err != nil {
		t.Fatal(err)
	}
	files["/freed/renamed"] = files["/freed/wt"]
	delete(files, "/freed/wt")

	// Decoded replies, each from a fresh mount on a node that holds nothing
	// of the file in its caches.
	for p, want := range files {
		got, _, err := nodes[4].NewMount().ReadFile(p) // the walk's reply carries a small file
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("ReadFile(%s) through another node: %d bytes err=%v, want the %d written", p, len(got), err, len(want))
		}
		rm := nodes[3].NewMount()
		fvh, attr, _, err := rm.LookupPath(p)
		if err != nil || attr.Size != int64(len(want)) {
			t.Fatalf("LookupPath(%s) = size %d err=%v, want %d", p, attr.Size, err, len(want))
		}
		dst := make([]byte, 0, 64<<10)
		for off := 0; off < len(want); off += cap(dst) {
			got, _, _, err := rm.ReadInto(fvh, int64(off), cap(dst), dst)
			if err != nil || !bytes.Equal(got, want[off:min(off+cap(dst), len(want))]) {
				t.Fatalf("ReadInto(%s, %d): %d bytes err=%v differ from what was written", p, off, len(got), err)
			}
		}
	}
	lm := nodes[2].NewMount()
	ldir, _, _, err := lm.LookupPath("/freed")
	if err != nil {
		t.Fatal(err)
	}
	ents, _, err := lm.Readdir(ldir)
	if err != nil || len(ents) != len(files) {
		t.Fatalf("the listing of /freed has %d entries err=%v, want %d", len(ents), err, len(files))
	}
	for _, e := range ents {
		if files["/freed/"+e.Name] == nil {
			t.Errorf("the listing of /freed names %q", e.Name)
		}
	}

	// What every node keeps: each stored copy, its name, each tracking record.
	poisoned := func(s string) bool { return strings.IndexByte(s, wire.Poison) >= 0 }
	copies := 0
	for _, nd := range nodes {
		nd.Store().Walk("/", func(p string, attr localfs.Attr, target string) error {
			if poisoned(p) || poisoned(target) {
				t.Errorf("%s stores %q -> %q: a name kept from a freed request", nd.Addr(), p, target)
			}
			if attr.Type != localfs.TypeRegular {
				return nil
			}
			want := files[strings.TrimPrefix(p, RepArea)]
			if want == nil {
				return nil
			}
			copies++
			if got, err := nd.Store().ReadFile(p); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %s holds %d bytes that differ from the %d written, err=%v", nd.Addr(), p, len(got), len(want), err)
			}
			return nil
		})
		for _, tr := range nd.Repl().Tracks() {
			if poisoned(tr.PN) || poisoned(tr.Root) {
				t.Errorf("%s tracks %+v: a name kept from a freed request", nd.Addr(), tr)
			}
		}
	}
	if copies != 3*len(files) {
		t.Errorf("found %d stored copies, want %d (%d files on a primary and 2 replicas each)", copies, 3*len(files), len(files))
	}
}

// TestNothingKeepsAServedReply: a kosha server encodes its reply into a
// pooled wire.Codec and frees it once the handler has returned, so the reply
// it hands back must not be the Codec's bytes. Each caller here holds its
// undecoded kApply reply while later applies to the same server, and their
// kMirror fan-outs, recycle the serving Codecs with wire.PoisonFreed on; the
// post-op attributes, handle and fan-out width each then decodes are still
// its own write's, with no wire.Poison in them.
func TestNothingKeepsAServedReply(t *testing.T) {
	defer wire.PoisonFreed(wire.PoisonFreed(true))
	_, nodes := testCluster(t, 5, 86, Config{Replicas: 2})
	primary, caller := nodes[0], nodes[1]
	const files = 4
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/served/f%d", i)
		if err := primary.Store().WriteFile(paths[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	replies := make([]wire.Decoder, files)
	for i, p := range paths {
		r := applyReq{Op: FSOp{Kind: FSWrite, Path: p, Data: bytes.Repeat([]byte{'a' + byte(i)}, 10*(i+1))}}
		d, _, err := caller.koshaCall(obs.TraceContext{}, primary.Addr(), r.request(kApply))
		if err != nil {
			t.Fatalf("kApply %s: %v", p, err)
		}
		replies[i] = d
	}
	for i, p := range paths {
		attr, fh, fanout := getApplyReplyBody(&replies[i])
		want, err := primary.Store().LookupPath(p)
		if err != nil || replies[i].Err() != nil {
			t.Fatalf("%s: decode %v, lookup %v", p, replies[i].Err(), err)
		}
		if attr.Ino != want.Ino || attr.Size != want.Size || attr.Mode != want.Mode || !attr.Mtime.Equal(want.Mtime) ||
			fh.Ino != want.Ino || fanout != 2 {
			t.Errorf("%s: the held kApply reply decodes as ino %#x size %d mode %#o, handle ino %#x, fan-out %d; want ino %#x size %d mode %#o, fan-out 2",
				p, attr.Ino, attr.Size, attr.Mode, fh.Ino, fanout, want.Ino, want.Size, want.Mode)
		}
	}
}

// TestNothingKeepsAListedName lists a directory through Mount.Readdir and
// through nfs.Client.ReaddirPlusAll, in pages, whose names and link targets
// are views of their reply frames, then makes enough further calls, with
// wire.PoisonFreed on, that every pooled Codec on both sides is reused: a
// name or a target decoded into anything recycled would read wire.Poison, or
// another call's bytes. The frames are the caller's, so every one stays as
// listed.
func TestNothingKeepsAListedName(t *testing.T) {
	defer wire.PoisonFreed(wire.PoisonFreed(true))
	_, nodes := testCluster(t, 5, 86, Config{Replicas: 2, DistributionLevel: 1})
	m := nodes[1].NewMount()
	dir, _, err := m.MkdirAll("/listed")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // name → link target, "" for a file
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("entry%02d%s", i, strings.Repeat("n", i%24))
		if i%3 == 0 {
			want[name] = "../" + name + "/target"
			if _, _, err := m.Symlink(dir, name, want[name]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want[name] = ""
		vh, _, _, err := m.Create(dir, name, 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		m.Forget(vh)
	}
	ents, _, err := m.Readdir(dir)
	if err != nil || len(ents) != len(want) {
		t.Fatalf("Readdir: %d entries err=%v, want %d", len(ents), err, len(want))
	}
	de, err := m.entry(dir)
	if err != nil {
		t.Fatal(err)
	}
	plus, _, err := nodes[2].nfsc.ReaddirPlusAll(de.node, de.fh, 7)
	if err != nil || len(plus) != len(want) {
		t.Fatalf("ReaddirPlusAll: %d entries err=%v, want %d", len(plus), err, len(want))
	}

	other := nodes[3].NewMount()
	odir, _, err := other.MkdirAll("/other")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("x%02d", i)
		vh, _, _, err := other.Create(odir, name, 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := other.Write(vh, 0, []byte(name)); err != nil {
			t.Fatal(err)
		}
		other.Forget(vh)
		if _, _, err := other.Readdir(odir); err != nil {
			t.Fatal(err)
		}
		if _, _, err := nodes[2].nfsc.ReaddirPlusAll(de.node, de.fh, 7); err != nil {
			t.Fatal(err)
		}
		if _, _, err := nodes[4].nfsc.Getattr(de.node, de.fh); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]bool{}
	for _, e := range ents {
		if _, ok := want[e.Name]; !ok || seen[e.Name] {
			t.Errorf("Readdir's name %q reads as no entry listed once after the Codecs were reused", e.Name)
		}
		seen[e.Name] = true
	}
	clear(seen)
	for _, e := range plus {
		if target, ok := want[e.Name]; !ok || seen[e.Name] || e.SymTarget != target {
			t.Errorf("ReaddirPlusAll's entry %q (target %q) reads as no entry listed once after the Codecs were reused", e.Name, e.SymTarget)
		}
		seen[e.Name] = true
	}
}
