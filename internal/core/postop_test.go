package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// holdNet delivers every call, and holds the first one its armed predicate
// matches until release is closed: its reply, after the handler has run (a
// reply that lands late), or with early set its request, before the handler
// runs (a request that arrives late).
type holdNet struct {
	*simnet.Network
	mu      sync.Mutex
	match   func(service string, req *wire.Decoder) bool
	early   bool
	held    chan struct{} // closed once the matched call is held
	release chan struct{}
}

func (h *holdNet) arm(early bool, match func(service string, req *wire.Decoder) bool) {
	h.mu.Lock()
	h.match, h.early, h.held, h.release = match, early, make(chan struct{}), make(chan struct{})
	h.mu.Unlock()
}

func (h *holdNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	h.mu.Lock()
	hold := h.match != nil && h.match(service, wire.NewDecoder(wire.FrameOf(req).AppendTo(nil)))
	early, held, release := h.early, h.held, h.release
	if hold {
		h.match = nil
	}
	h.mu.Unlock()
	if hold && early {
		close(held)
		<-release
	}
	resp, cost, err := h.Network.CallCtx(ctx, from, to, service, req)
	if hold && !early {
		close(held)
		<-release
	}
	return resp, cost, err
}

// isProc matches the requests of one procedure of one service.
func isProc(service string, proc uint32) func(string, *wire.Decoder) bool {
	return func(s string, d *wire.Decoder) bool { return s == service && d.Uint32() == proc }
}

// late runs op with the first call match picks held until during has
// returned: its reply, or with early its request.
func late(t *testing.T, h *holdNet, early bool, match func(string, *wire.Decoder) bool, op, during func()) {
	t.Helper()
	h.arm(early, match)
	done := make(chan struct{})
	go func() {
		defer close(done)
		op()
	}()
	select {
	case <-h.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the call to hold was never sent")
	}
	during()
	close(h.release)
	<-done
}

// TestLateRepliesDoNotOverwriteNewerAttrs: replies land in any order, and a
// mount records one only if nothing newer has touched the row since the RPC
// was sent. A GETATTR fetched before a Write on the same file, whose reply
// lands after the Write returned, used to put the pre-write size back into
// the cache, where the next Getattr found it; two Writes whose replies land
// out of order must leave the later size; and a Write sent first that
// reaches the primary last has the newest reply, which loses to the other
// Write's recording and so must drop the row rather than leave it.
func TestLateRepliesDoNotOverwriteNewerAttrs(t *testing.T) {
	h := &holdNet{Network: simnet.New(simnet.LAN100)}
	nodes := testClusterOn(t, h, 4, 53, Config{AttrCacheTTL: time.Hour, NameCacheTTL: time.Hour})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/home/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	vh, _, _, err := m.LookupPath("/home/f")
	if err != nil {
		t.Fatal(err)
	}
	size := func(when string, want int64) {
		t.Helper()
		if a, _, err := m.Getattr(vh); err != nil || a.Size != want {
			t.Errorf("%s: Getattr size %d err=%v, want %d", when, a.Size, err, want)
		}
	}

	m.meta.drop("/home/f") // the Getattr goes to the primary
	late(t, h, false, isProc(nfs.Service, uint32(nfs.ProcGetattr)),
		func() {
			if a, _, err := m.Getattr(vh); err != nil || a.Size != 3 {
				t.Errorf("held Getattr: size %d err=%v, want 3", a.Size, err)
			}
		},
		func() {
			if _, _, err := m.Write(vh, 3, []byte("defg")); err != nil {
				t.Error(err)
			}
		})
	size("after a GETATTR reply that landed after a Write", 7)

	late(t, h, false, isProc(KoshaService, kApply),
		func() {
			if _, _, err := m.Write(vh, 0, make([]byte, 100)); err != nil {
				t.Error(err)
			}
		},
		func() {
			if _, _, err := m.Write(vh, 100, make([]byte, 100)); err != nil {
				t.Error(err)
			}
		})
	size("after two Writes whose replies landed out of order", 200)

	late(t, h, true, isProc(KoshaService, kApply),
		func() {
			if _, _, err := m.Write(vh, 300, make([]byte, 100)); err != nil {
				t.Error(err)
			}
		},
		func() {
			if _, _, err := m.Write(vh, 200, make([]byte, 100)); err != nil {
				t.Error(err)
			}
		})
	size("after a Write sent first reached the primary last", 400)
}

// TestMutationRepliesRecordPostOpAttrs: a kApply reply carries the target's
// post-op attributes, all ten fields, and the mount records them, so a
// Getattr right after a Write, Create, Mkdir (within a hierarchy and at a
// distributed level), Symlink, Setattr or a write-back Close sends no RPC and
// answers exactly what a fresh GETATTR at the primary answers. A mount with
// the metadata cache off records nothing, and another mount still fetches.
func TestMutationRepliesRecordPostOpAttrs(t *testing.T) {
	type made struct {
		vh  VH
		dir VH // with name: look the handle up again (the op forgot it)
		nm  string
	}
	cases := []struct {
		name string
		wb   int
		op   func(t *testing.T, m *Mount, dir VH) made
	}{
		{"write", 0, func(t *testing.T, m *Mount, dir VH) made {
			vh, _, _, err := m.LookupPath("/home/f")
			if err == nil {
				_, _, err = m.Write(vh, 2, []byte("longer"))
			}
			if err != nil {
				t.Fatal(err)
			}
			return made{vh: vh}
		}},
		{"create", 0, func(t *testing.T, m *Mount, dir VH) made {
			vh, _, _, err := m.Create(dir, "new", 0o600, true)
			if err != nil {
				t.Fatal(err)
			}
			return made{vh: vh}
		}},
		{"mkdir", 0, func(t *testing.T, m *Mount, dir VH) made {
			vh, _, _, err := m.Mkdir(dir, "sub", 0o750)
			if err != nil {
				t.Fatal(err)
			}
			return made{vh: vh}
		}},
		{"mkdir-distributed", 0, func(t *testing.T, m *Mount, dir VH) made {
			vh, _, _, err := m.Mkdir(m.Root(), "top", 0o750)
			if err != nil {
				t.Fatal(err)
			}
			return made{vh: vh}
		}},
		{"symlink", 0, func(t *testing.T, m *Mount, dir VH) made {
			vh, _, err := m.Symlink(dir, "ln", "f")
			if err != nil {
				t.Fatal(err)
			}
			return made{vh: vh}
		}},
		{"setattr", 0, func(t *testing.T, m *Mount, dir VH) made {
			vh, _, _, err := m.LookupPath("/home/f")
			mode, size := uint32(0o640), int64(1)
			if err == nil {
				_, _, err = m.Setattr(vh, localfs.SetAttr{Mode: &mode, Size: &size})
			}
			if err != nil {
				t.Fatal(err)
			}
			return made{vh: vh}
		}},
		{"write-back-close", 1 << 20, func(t *testing.T, m *Mount, dir VH) made {
			vh, _, _, err := m.Create(dir, "wb", 0o644, false)
			for off := 0; err == nil && off < 3; off++ {
				_, _, err = m.Write(vh, int64(off*10), []byte("0123456789"))
			}
			if err == nil {
				_, err = m.Close(vh)
			}
			if err != nil {
				t.Fatal(err)
			}
			return made{dir: dir, nm: "wb"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, off := range []bool{false, true} {
				_, nodes := testCluster(t, 4, 5300, Config{
					WriteBackBytes: tc.wb, NoMetadataCache: off,
					AttrCacheTTL: time.Hour, NameCacheTTL: time.Hour,
				})
				n := nodes[0]
				m := n.NewMount()
				if _, err := m.WriteFile("/home/f", []byte("abc")); err != nil {
					t.Fatal(err)
				}
				dir, _, _, err := m.LookupPath("/home")
				if err != nil {
					t.Fatal(err)
				}
				mk := tc.op(t, m, dir)
				n.ResetNFSStats()
				if mk.vh == 0 {
					if mk.vh, _, _, err = m.Lookup(mk.dir, mk.nm); err != nil {
						t.Fatal(err)
					}
				}
				lookups := n.NFSStats().RPCs
				got, _, err := m.Getattr(mk.vh)
				if err != nil {
					t.Fatal(err)
				}
				if rpcs := n.NFSStats().RPCs; off {
					if rpcs == lookups {
						t.Errorf("NoMetadataCache: Getattr after the %s sent no RPC", tc.name)
					}
					continue
				} else if rpcs != 0 {
					t.Errorf("Getattr after the %s sent %d RPCs, want 0", tc.name, rpcs)
				}
				de, err := m.entry(mk.vh)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := n.nfsT(nil).Getattr(de.node, de.fh)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("after the %s the mount answers\n%+v\nthe primary\n%+v", tc.name, got, want)
				}
				other := nodes[1]
				other.ResetNFSStats()
				if _, a, _, err := other.NewMount().LookupPath(de.vpath); err != nil || a != want || other.NFSStats().RPCs == 0 {
					t.Errorf("a second mount's lookup: %+v err=%v after %d RPCs; it must fetch %+v", a, err, other.NFSStats().RPCs, want)
				}
			}
		})
	}
}

// replyNet records the length of every kosha reply by procedure.
type replyNet struct {
	*simnet.Network
	mu   sync.Mutex
	lens map[uint32][]int
}

func (r *replyNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	resp, cost, err := r.Network.CallCtx(ctx, from, to, service, req)
	if service == KoshaService && err == nil {
		proc := wire.NewDecoder(wire.FrameOf(req).AppendTo(nil)).Uint32()
		r.mu.Lock()
		r.lens[proc] = append(r.lens[proc], len(resp))
		r.mu.Unlock()
	}
	return resp, cost, err
}

// TestApplyReplySizes pins the two mutation replies: a kMirror reply is its
// 4-byte status code, since the fan-out and a repair's Mirror only learn
// whether the replica applied; an applied kApply's carries the post-op
// attributes (60 bytes), the handle (16) and the fan-out width (4); a failed
// one is its status alone.
func TestApplyReplySizes(t *testing.T) {
	r := &replyNet{Network: simnet.New(simnet.LAN100), lens: map[uint32][]int{}}
	nodes := testClusterOn(t, r, 5, 53, Config{Replicas: 2})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/home/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	dir, _, _, err := m.LookupPath("/home")
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.lens = map[uint32][]int{}
	r.mu.Unlock()
	if _, _, _, err := m.Create(dir, "f", 0o644, true); !nfs.IsStatus(err, nfs.ErrExist) {
		t.Fatalf("exclusive create of an existing name: %v", err)
	}
	if _, _, _, err := m.Create(dir, "g", 0o644, true); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, want := fmt.Sprint(r.lens[kApply]), "[4 84]"; got != want {
		t.Errorf("kApply replies %s bytes, want %s (a refused create, then an applied one)", got, want)
	}
	if len(r.lens[kMirror]) != 2 {
		t.Errorf("%d kMirror replies, want 2 (K=2)", len(r.lens[kMirror]))
	}
	for _, n := range r.lens[kMirror] {
		if n != 4 {
			t.Errorf("kMirror replies %v bytes, want 4 each", r.lens[kMirror])
			break
		}
	}
}

// TestDropUnderCostsWhatItDrops: invalidating a name that has nothing cached
// below it touches its own row alone, however many other rows the cache
// holds; a populated subtree is swept whole, rows below a directory that has
// no row of its own included.
func TestDropUnderCostsWhatItDrops(t *testing.T) {
	var c metaCache
	c.init(time.Hour, time.Hour)
	put := func(p string) { c.put(p, localfs.Attr{Size: 1}, nil, c.sample()) }
	for i := 0; i < 10000; i++ {
		put(fmt.Sprintf("/other/d%d/f%d", i%100, i))
	}
	put("/home/a")
	if c.dropUnder("/home", "fresh") {
		t.Error("dropping a fresh name swept the cache")
	}
	if c.dropUnder("/home", "a") {
		t.Error("dropping a name with nothing below it swept the cache")
	}
	if _, ok := c.get("/home/a", false); ok {
		t.Error("the dropped row is still cached")
	}
	put("/home/x/y/z") // no row for /home/x or /home/x/y
	put("/home/xy")
	if !c.dropUnder("/home", "x") {
		t.Error("dropping a populated subtree did not sweep")
	}
	if _, ok := c.get("/home/x/y/z", false); ok {
		t.Error("a row two levels below the dropped name survived")
	}
	if _, ok := c.get("/home/xy", false); !ok {
		t.Error("a sibling sharing the dropped name's prefix was dropped")
	}
	if _, ok := c.get("/other/d7/f7", false); !ok {
		t.Error("an unrelated row was dropped")
	}
	if c.dropUnder("/home", "x") {
		t.Error("the swept subtree still counts rows below it")
	}
	c.dropUnder("/", "")
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if len(c.below) != 0 {
		t.Errorf("an emptied cache still counts rows below %d paths", len(c.below))
	}
}

// TestNewRowAllocatesNothing: a cached path is two halves, each at most the
// 128 bytes a Go map stores in place (attrRow, nameRow, which points at the
// handle table's row), so recording a path the cache does not hold —
// childMade does it for every create — allocates nothing of its own once the
// maps have grown, and nor does probing it or dropping it by a path built in
// scratch. It was one object per new path, a 296-byte row in a 320-byte size
// class, while the row was one value.
func TestNewRowAllocatesNothing(t *testing.T) {
	if a, n := unsafe.Sizeof(attrRow{}), unsafe.Sizeof(nameRow{}); a > 128 || n > 128 {
		t.Fatalf("a row's halves are %d and %d bytes, over the 128 a map stores in place", a, n)
	}
	var c metaCache
	c.init(time.Hour, time.Hour)
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	de := &ventry{vpath: "/home/d", node: "k1", pn: "home", root: "/home", below: len("/d")}
	rows := make([]ventry, len(names))
	for i, name := range names {
		rows[i] = de.child(name, localfs.TypeRegular, nfs.Handle{Gen: 1, Ino: uint64(i)})
		c.put(rows[i].vpath, localfs.Attr{Ino: uint64(i)}, &rows[i], c.sample()) // grow the maps
		c.dropUnder(de.vpath, name)
	}
	racetest.SkipAllocs(t)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		ve := &rows[i%len(rows)]
		i++
		c.put(ve.vpath, localfs.Attr{Ino: ve.fh.Ino, Size: 1}, ve, c.sample())
		if r, ok := c.get(ve.vpath, true); !ok || r.ve != *ve || r.attr.Size != 1 {
			t.Fatalf("%s: cached %+v, %v", ve.vpath, r, ok)
		}
		if c.dropUnder(de.vpath, names[ve.fh.Ino]) {
			t.Fatal("dropping a name with nothing below it swept the cache")
		}
	}); n != 0 {
		t.Errorf("recording, probing and dropping a new path allocates %.2f times, want 0", n)
	}
	// A pre-warm builds the child's row on its stack; warming a name the
	// cache holds unchanged keeps the row it has.
	if n := testing.AllocsPerRun(100, func() {
		ve := rows[3]
		c.put(ve.vpath, localfs.Attr{Ino: 3}, c.resolved(&ve), c.sample())
	}); n != 0 {
		t.Errorf("warming an unchanged name allocates %.2f times, want 0", n)
	}
	if r, ok := c.get(rows[3].vpath, true); !ok || r.ve != rows[3] {
		t.Errorf("warmed row %+v, %v", r.ve, ok)
	}
}

// BenchmarkChildChanged is the invalidation a create makes (childChanged on
// a fresh name) in a mount that caches rows elsewhere: its cost must not
// grow with them.
func BenchmarkChildChanged(b *testing.B) {
	for _, rows := range []int{0, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			m := &Mount{}
			m.meta.init(time.Hour, time.Hour)
			for i := 0; i < rows; i++ {
				m.meta.put(fmt.Sprintf("/other/d%d/f%d", i%100, i), localfs.Attr{}, nil, m.meta.sample())
			}
			de := &ventry{vpath: "/home/dir"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.childChanged(de, "fresh")
			}
		})
	}
}
