package core

import (
	"fmt"
	"math"
	"path"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// viewRig is one node serving kApply and kMirror over its own store, with no
// replicas, so a served op costs its handler and store alone.
type viewRig struct {
	t      *testing.T
	n      *Node
	store  *localfs.FS
	handle simnet.HandlerCtx
}

func newViewRig(t *testing.T) *viewRig {
	store := localfs.New(0, simnet.Disk7200)
	state := uint64(5)
	n := NewNodeWithStore("k0", id.Rand128(&state), simnet.New(simnet.LAN100), Config{}, store)
	return &viewRig{t: t, n: n, store: store, handle: n.serve(KoshaService, koshaProcs)}
}

// request encodes op as a proc request of the tracked hierarchy /home, and
// returns it as a frame the caller serves with serve.
func (g *viewRig) request(proc uint32, op FSOp) wire.Frame {
	r := applyReq{Track: Track{PN: "home", Root: "/home"}, Op: op}
	return r.request(proc).E.Frame()
}

// serve delivers req as a transport does, lent for the call, and checks the
// reply is codeOK.
func (g *viewRig) serve(req wire.Frame) {
	g.t.Helper()
	resp, _, err := g.handle(obs.TraceContext{}, "peer", wire.Lend(req))
	wire.EndLend(req)
	if err != nil || wire.NewDecoder(resp).Uint32() != codeOK {
		g.t.Fatalf("reply %x, %v; want codeOK", resp[:min(len(resp), 4)], err)
	}
}

// areaOf returns where proc's ops land in the store, and the objects its
// reply costs: a kApply's 84-byte reply is one, a kMirror's shared status
// frame none.
func areaOf(proc uint32) (phys func(string) string, reply uint64) {
	if proc == kMirror {
		return RepPath, 0
	}
	return func(p string) string { return p }, 1
}

// fewest returns the fewest heap objects and bytes one call of f allocates
// over runs calls, each after an unmeasured setup.
func fewest(runs int, setup, f func()) (objects, bytes uint64) {
	objects, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestServedOpAllocatesOnlyItsReply: a kApply or kMirror handler lends the
// op's paths to the store as views, of the request frame or of the
// replica-area paths it builds in its pooled room, and decodes a setattr's
// values into that room, so an op that makes no entry costs the reply alone:
// one object for a kApply's 84-byte reply, none for a kMirror's shared status
// frame. That holds for a write, a setattr, a remove and an rmdir of an
// existing path, and for a replica's lenient re-apply of a create, a mkdir
// and a removal it has already applied. Each op was one object more per path
// while the paths were decoded into strings.
func TestServedOpAllocatesOnlyItsReply(t *testing.T) {
	racetest.SkipAllocs(t)
	g := newViewRig(t)
	mode, mtime := uint32(0o600), time.Unix(1e9, 0)
	noop := func() {}
	for _, proc := range []uint32{kApply, kMirror} {
		phys, reply := areaOf(proc)
		for _, p := range []string{"/home/d/f", "/home/d/gone"} {
			if err := g.store.WriteFile(phys(p), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		g.serve(g.request(proc, FSOp{Kind: FSMkdirAll, Path: "/home"})) // records the hierarchy
		for _, c := range []struct {
			name  string
			op    FSOp
			setup func()
		}{
			{"write", FSOp{Kind: FSWrite, Path: "/home/d/f", Data: []byte("y")}, noop},
			{"setattr", FSOp{Kind: FSSetattr, Path: "/home/d/f", SetAttr: localfs.SetAttr{Mode: &mode, Mtime: &mtime}}, noop},
			{"remove", FSOp{Kind: FSRemove, Path: "/home/d/gone"}, func() {
				if err := g.store.WriteFile(phys("/home/d/gone"), nil); err != nil {
					t.Fatal(err)
				}
			}},
			{"rmdir", FSOp{Kind: FSRmdir, Path: "/home/d/empty"}, func() {
				if _, err := g.store.MkdirAll(phys("/home/d/empty")); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			req := g.request(proc, c.op)
			if objs, _ := fewest(5, c.setup, func() { g.serve(req) }); objs != reply {
				t.Errorf("proc %d: a served %s of an existing path allocates %d objects, want %d: its reply alone", proc, c.name, objs, reply)
			}
		}
		if attr, err := g.store.LookupPath(phys("/home/d/f")); err != nil || attr.Mode != mode || !attr.Mtime.Equal(mtime) {
			t.Errorf("proc %d: the setattr left mode %#o mtime %v, err %v", proc, attr.Mode, attr.Mtime, err)
		}
	}
	for _, c := range []struct {
		name string
		op   FSOp
	}{
		{"create", FSOp{Kind: FSCreate, Path: "/home/d/f", Mode: 0o644}},
		{"mkdir", FSOp{Kind: FSMkdir, Path: "/home/d", Mode: 0o755}},
		{"remove", FSOp{Kind: FSRemove, Path: "/home/d/missing"}},
		{"rmdir", FSOp{Kind: FSRmdir, Path: "/home/d/missing"}},
	} {
		req := g.request(kMirror, c.op)
		if objs, _ := fewest(5, noop, func() { g.serve(req) }); objs != 0 {
			t.Errorf("a replica's lenient re-apply of a %s allocates %d objects, want none", c.name, objs)
		}
	}
}

// TestCreatedNameIsOneObject: a served create keeps one object of the op's,
// the copy of the name the store enters (localfs attach), whatever the length
// of the path it came in: a kApply's and a kMirror's create cost the store's
// own Create and the reply, a name 48 bytes longer costs 48 bytes more, and a
// path 178 bytes longer costs nothing more. A create kept a string of its
// whole path, or of the replica-area path, while the paths were decoded into
// strings.
func TestCreatedNameIsOneObject(t *testing.T) {
	racetest.SkipAllocs(t)
	g := newViewRig(t)
	deep := "/home/" + strings.Repeat("deep-directory/", 12)[:179]
	for _, proc := range []uint32{kApply, kMirror} {
		phys, reply := areaOf(proc)
		type cost struct{ objects, bytes uint64 }
		measure := func(dir, name string, direct bool) cost {
			t.Helper()
			p := dir + "/" + name
			pattr, err := g.store.MkdirAll(phys(dir))
			if err != nil {
				t.Fatal(err)
			}
			remove := func() {
				g.store.Remove(pattr.Ino, name)
			}
			var c cost
			if direct {
				buf := []byte(name) // the name held as a frame holds it
				c.objects, c.bytes = fewest(5, remove, func() {
					if _, _, err := g.store.Create(pattr.Ino, wire.View(buf), 0o644, false); err != nil {
						t.Fatal(err)
					}
				})
			} else {
				req := g.request(proc, FSOp{Kind: FSCreate, Path: p, Mode: 0o644})
				c.objects, c.bytes = fewest(5, remove, func() { g.serve(req) })
			}
			if ents, _, err := g.store.Readdir(pattr.Ino); err != nil || len(ents) != 1 || ents[0].Name != name {
				t.Fatalf("%s holds %+v, %v; want %q alone", phys(dir), ents, err, name)
			}
			return c
		}
		short, long := strings.Repeat("s", 16), strings.Repeat("l", 64) // size classes, past the tiny allocator
		served, store := measure("/home/a", short, false), measure("/home/b", short, true)
		if served.objects != store.objects+reply {
			t.Errorf("proc %d: a served create allocates %d objects, the store's Create %d: want only the reply (%d) more", proc, served.objects, store.objects, reply)
		}
		if longer := measure("/home/c", long, false); longer.objects != served.objects || longer.bytes != served.bytes+48 {
			t.Errorf("proc %d: a 64-byte name costs %d objects, %d bytes; a 16-byte one %d, %d: want the name's 48 bytes more", proc, longer.objects, longer.bytes, served.objects, served.bytes)
		}
		if deeper := measure(deep, short, false); deeper != served {
			t.Errorf("proc %d: a create %d bytes deep costs %d objects, %d bytes; %d deep %d, %d: want the same", proc, len(deep), deeper.objects, deeper.bytes, len("/home/a"), served.objects, served.bytes)
		}
	}
}

// TestApplyRoomIsOneSizeClass: the pooled room a handler decodes into fills
// its size class exactly, so the array its paths are built in is free room.
// A mirrored rename whose two replica-area paths fill the array to the byte
// is built there; one a byte longer gets one buffer of its own, sized once,
// and decodes to the same paths.
func TestApplyRoomIsOneSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(applyRoom{}); size != 1152 {
		t.Errorf("applyRoom is %d bytes, want 1152, a size class", size)
	}
	g := newViewRig(t)
	g.serve(g.request(kApply, FSOp{Kind: FSMkdirAll, Path: "/home"})) // records the hierarchy
	n := len(applyRoom{}.paths)/2 - len(RepArea)
	for _, c := range []struct {
		size   int
		allocs float64
	}{{n, 0}, {n + 1, 1}} {
		from := "/home/" + strings.Repeat("f", c.size-len("/home/"))
		to := "/home/" + strings.Repeat("t", c.size-len("/home/"))
		req := g.request(kMirror, FSOp{Kind: FSRename, Path: from, Path2: to}).AppendTo(nil)[4:]
		var d wire.Decoder
		var r applyReq
		room := new(applyRoom)
		allocs := testing.AllocsPerRun(10, func() {
			d.Reset(req)
			r = decodeApplyReq(&d, g.n.rep, true, room)
		})
		if d.Err() != nil || r.Op.Path != RepPath(from) || r.Op.Path2 != RepPath(to) {
			t.Errorf("%d-byte paths decode as %q, %q, %v", c.size, r.Op.Path, r.Op.Path2, d.Err())
		}
		if !racetest.Enabled && allocs != c.allocs {
			t.Errorf("%d-byte paths: decoding allocates %.0f times, want %.0f", c.size, allocs, c.allocs)
		}
	}
}

// TestNothingKeepsAnAppliedName runs creates, mkdirs, symlinks and renames
// through kApply and kMirror on a K = 2 cluster with freed request Codecs
// poisoned (wire.PoisonFreed) and every handler's room poisoned once it is
// freed: a store that kept a name as the view it was lent, of a request
// frame or of a replica-area path, would list wire.Poison, or the next
// request's bytes, where the name was. Every store that holds the
// hierarchy lists the exact names, primary and replicas alike, as do the
// tracking records. It runs in plain tier-1, not only under -race.
func TestNothingKeepsAnAppliedName(t *testing.T) {
	defer wire.PoisonFreed(wire.PoisonFreed(true))
	_, nodes := testCluster(t, 5, 88, Config{Replicas: 2})
	m := nodes[1].NewMount()
	root, _, err := m.MkdirAll("/views")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]localfs.FileType{}
	for i := 0; i < 4; i++ {
		long := strings.Repeat(fmt.Sprintf("%c", 'a'+i), 40+i)
		dir, _, _, err := m.Mkdir(root, "dir-"+long, 0o755)
		if err != nil {
			t.Fatal(err)
		}
		fvh, _, _, err := m.Create(dir, "file-"+long, 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Write(fvh, 0, []byte(long)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Close(fvh); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Rename(dir, "file-"+long, dir, "moved-"+long); err != nil {
			t.Fatal(err)
		}
		if _, err := m.WriteFile("/views/dir-"+long+"/whole-"+long, []byte(long)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Symlink(dir, "link-"+long, "/target-"+long); err != nil {
			t.Fatal(err)
		}
		base := "/views/dir-" + long
		want[base] = localfs.TypeDir
		want[base+"/link-"+long] = localfs.TypeSymlink
		want[base+"/moved-"+long] = localfs.TypeRegular
		want[base+"/whole-"+long] = localfs.TypeRegular
	}
	if _, err := m.Rename(root, "dir-"+strings.Repeat("a", 40), root, "renamed-dir"); err != nil {
		t.Fatal(err)
	}
	for p, typ := range want {
		if strings.HasPrefix(p, "/views/dir-"+strings.Repeat("a", 40)) {
			delete(want, p)
			want["/views/renamed-dir"+strings.TrimPrefix(p, "/views/dir-"+strings.Repeat("a", 40))] = typ
		}
	}

	holders := 0
	for _, nd := range nodes {
		for _, area := range []string{"", RepArea} {
			dir, err := nd.Store().LookupPath(area + "/views")
			if err != nil {
				continue
			}
			holders++
			got := map[string]localfs.FileType{}
			var list func(p string, ino uint64)
			list = func(p string, ino uint64) {
				ents, _, err := nd.Store().Readdir(ino)
				if err != nil {
					t.Fatalf("%s: Readdir(%s): %v", nd.Addr(), area+p, err)
				}
				for _, e := range ents {
					child := path.Join(p, e.Name)
					got[child] = e.Type
					switch e.Type {
					case localfs.TypeDir:
						list(child, e.Ino)
					case localfs.TypeSymlink:
						long := strings.TrimPrefix(e.Name, "link-")
						if target, _, err := nd.Store().Readlink(e.Ino); err != nil || target != "/target-"+long {
							t.Errorf("%s: %s%s links to %q, %v; want %q", nd.Addr(), area, child, target, err, "/target-"+long)
						}
					}
				}
			}
			list("/views", dir.Ino)
			for p := range got {
				if want[p] == 0 {
					t.Errorf("%s lists %q under %s: a name kept from a freed request", nd.Addr(), p, area+"/views")
				}
			}
			for p, typ := range want {
				if got[p] != typ {
					t.Errorf("%s lists %s%s as type %d, want %d", nd.Addr(), area, p, got[p], typ)
				}
			}
		}
		for _, tr := range nd.Repl().Tracks() {
			if strings.IndexByte(tr.PN, wire.Poison) >= 0 || strings.IndexByte(tr.Root, wire.Poison) >= 0 {
				t.Errorf("%s tracks %+v: a name kept from a freed request", nd.Addr(), tr)
			}
		}
	}
	if holders != 3 {
		t.Errorf("%d stores hold /views, want 3: the primary and its two replicas", holders)
	}
}
