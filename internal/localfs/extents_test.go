package localfs

import (
	"bytes"
	"path"
	"runtime"
	"testing"

	"repro/internal/racetest"
)

// allocatedBytes reports the heap bytes fn allocates (tests in this package
// run one at a time, so the process-wide counter is fn's alone).
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAppendAllocatesOnlyTheTail pins the extent store's point: appending to
// a large file allocates the new bytes and nothing else. The flat slice this
// replaced re-copied the whole file on every regrowth (about 5x the bytes
// stored for a 32 MiB file written 1 MiB at a time).
func TestAppendAllocatesOnlyTheTail(t *testing.T) {
	const total, piece = 32 << 20, 1 << 20
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "big")
	buf := make([]byte, piece)
	got := allocatedBytes(func() {
		for off := int64(0); off < total; off += piece {
			if _, _, err := f.Write(a.Ino, off, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := uint64(total) * 11 / 10; got > limit {
		t.Errorf("appending %d bytes allocated %d, want <= %d (1.1x)", total, got, limit)
	}
}

// TestSmallWritesAmortise: a file grown 32 KiB at a time (write-through
// clients) never re-copies what it stores; the only bytes beyond the data
// are the last piece's unused slack.
func TestSmallWritesAmortise(t *testing.T) {
	const total, piece = 8 << 20, 32 << 10
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "grown")
	buf := make([]byte, piece)
	got := allocatedBytes(func() {
		for off := int64(0); off < total; off += piece {
			if _, _, err := f.Write(a.Ino, off, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := uint64(total) * 11 / 10; got > limit {
		t.Errorf("growing to %d bytes allocated %d, want <= %d (1.1x)", total, got, limit)
	}
}

// TestWriteThroughAllocatesWhatItStores is the mab case: a 70 KiB file
// written as 32 + 32 + 6 KiB holds three pieces of those sizes, and slack
// rounds the last up to no more than 8 KiB.
func TestWriteThroughAllocatesWhatItStores(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "src.c")
	buf := make([]byte, 32<<10)
	got := allocatedBytes(func() {
		for _, n := range []int{32 << 10, 32 << 10, 6 << 10} {
			if _, _, err := f.Write(a.Ino, f.file(a).data.size(), buf[:n]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := uint64(72 << 10); got > limit {
		t.Errorf("a 70 KiB file written 32 KiB at a time allocated %d, want <= %d", got, limit)
	}
}

// TestPieceCountStaysBounded: pieces stay about one per MiB plus what the
// growth up to 16 MiB adds, for a 32 KiB writer and a byte-at-a-time one.
func TestPieceCountStaysBounded(t *testing.T) {
	for _, c := range []struct {
		total, piece int
	}{{24 << 20, 32 << 10}, {1 << 20, 1}} {
		var x extents
		buf := make([]byte, c.piece)
		for x.size() < int64(c.total) {
			x.write(buf, x.size())
		}
		if n, limit := len(x.list), c.total>>20+64; n > limit {
			t.Errorf("%d bytes grown %d at a time: %d pieces, want <= %d", c.total, c.piece, n, limit)
		}
	}
}

// TestOneExtentFileHasNoHeader: a file that fits one extent costs one
// allocation sized to its data — no separate extent-list header. Each run
// writes a fresh file: a truncated one would refill the piece it kept.
func TestOneExtentFileHasNoHeader(t *testing.T) {
	var x extents
	data := make([]byte, 4096)
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() {
		x = extents{}
		x.write(data, 0)
	}); n != 1 {
		t.Errorf("a 4 KiB file costs %.0f allocations, want 1", n)
	}
	if c := cap(x.list[0].b); c != 4096 {
		t.Errorf("a 4 KiB file holds a %d-byte extent, want 4096", c)
	}
}

// TestRewriteRefillsItsExtent: a truncation to zero — an UNCHECKED Create of
// an existing file, or a size set to 0 — keeps the first piece's storage,
// and the next write fills it. A same-size or shorter whole-file rewrite
// allocates nothing. A longer one drops the kept room for one piece of its
// own size, its one allocation, which the next truncation keeps, so the
// rewrites after it allocate nothing either (the longer rewrite filled the
// kept room and allocated the rest, and the list of the file's two pieces,
// every time). A first piece of more than maxSlack bytes is not kept. Every
// rewrite reads back as exactly what it wrote.
func TestRewriteRefillsItsExtent(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "f")
	const room = 32 << 10
	old := bytes.Repeat([]byte{0xAB}, room)
	if _, _, err := f.Write(a.Ino, 0, old); err != nil {
		t.Fatal(err)
	}
	kept := &f.file(a).data.list[0].b[0]
	create := func() {
		if _, _, err := f.Create(RootIno, "f", 0o644, false); err != nil {
			t.Fatal(err)
		}
	}
	zero := int64(0)
	setZero := func() {
		if _, _, err := f.Setattr(a.Ino, SetAttr{Size: &zero}); err != nil {
			t.Fatal(err)
		}
	}
	racetest.SkipAllocs(t)
	for _, c := range []struct {
		name     string
		truncate func()
		n        int
	}{
		{"same size", create, room},
		{"shorter", create, room / 4},
		{"Setattr size 0", setZero, room},
		{"longer", create, room + 100},
	} {
		data := bytes.Repeat([]byte{byte(c.n)}, c.n)
		rewrite := func() {
			c.truncate()
			if _, _, err := f.Write(a.Ino, 0, data); err != nil {
				t.Fatal(err)
			}
		}
		x := &f.file(a).data
		want := room
		if c.n > room {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rewrite()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 1 || len(x.list) != 1 || cap(x.list[0].b) != c.n {
				t.Errorf("%s: a %d-byte rewrite of a file that kept %d bytes allocates %d times into %d pieces of %d bytes, want 1 piece of its size",
					c.name, c.n, room, n, len(x.list), cap(x.list[0].b))
			}
			kept, want = &x.list[0].b[0], c.n
		}
		if n := testing.AllocsPerRun(100, rewrite); n != 0 {
			t.Errorf("%s: a %d-byte rewrite of a file that kept %d bytes allocates %.0f times, want 0", c.name, c.n, want, n)
		}
		if &x.list[0].b[0] != kept || cap(x.list[0].b) != want {
			t.Errorf("%s: the rewritten file starts in a %d-byte piece of its own, want the %d bytes it kept", c.name, cap(x.list[0].b), want)
		}
		got, _, _, err := f.Read(a.Ino, 0, 2*room)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: read back %d bytes (err %v), want the %d written", c.name, len(got), err, len(data))
		}
	}

	// A first piece of at most maxSlack bytes is kept; a larger one is not.
	for _, size := range []int{maxSlack, maxSlack + 1} {
		b := mustCreate(t, f, RootIno, "big")
		if _, _, err := f.Write(b.Ino, 0, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Create(RootIno, "big", 0o644, false); err != nil {
			t.Fatal(err)
		}
		if c := cap(f.file(b).data.one[0].b); (c == size) != (size <= maxSlack) {
			t.Errorf("a %d-byte first piece truncated to zero keeps %d bytes of room", size, c)
		}
	}
}

// file returns the inode behind a, for tests that look at its pieces.
func (f *FS) file(a Attr) *inode { return f.inodes[a.Ino] }

// TestTruncateThenExtendReadsZeros: extending into capacity a truncation
// kept must not bring the cut-off bytes back.
func TestTruncateThenExtendReadsZeros(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "f")
	if _, _, err := f.Write(a.Ino, 0, bytes.Repeat([]byte{0xAB}, 10000)); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{3000, 9000} {
		if _, _, err := f.Setattr(a.Ino, SetAttr{Size: &size}); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(f.file(a).data.list[0].b); c < 9000 {
		t.Fatalf("the truncated piece kept %d bytes of capacity; the test needs >= 9000", c)
	}
	got, _, _, _ := f.Read(a.Ino, 0, 9000)
	want := append(bytes.Repeat([]byte{0xAB}, 3000), make([]byte, 6000)...)
	if !bytes.Equal(got, want) {
		t.Fatal("bytes past a truncation came back on extend")
	}
}

// TestCorruptFileLaterPiece: CorruptFile finds its byte by walking the
// pieces and flips exactly that one.
func TestCorruptFileLaterPiece(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "f")
	want := make([]byte, 0, 70<<10)
	for i, n := range []int{32 << 10, 32 << 10, 6 << 10} {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, n)
		if _, _, err := f.Write(a.Ino, int64(len(want)), chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	if n := len(f.file(a).data.list); n != 3 {
		t.Fatalf("the file holds %d pieces, want 3", n)
	}
	const off = 65<<10 + 7 // in the third piece
	if err := f.CorruptFile("/f", off); err != nil {
		t.Fatal(err)
	}
	want[off] ^= 0xFF
	got, _ := f.ReadFile("/f")
	if !bytes.Equal(got, want) {
		t.Fatal("CorruptFile did not flip exactly the byte at its offset")
	}
}

// FuzzExtents drives one file through writes (in place, appending and
// sparse), truncations, extensions and CorruptFile, checking every step
// against a flat []byte model. Each op is five bytes: a kind and two 16-bit
// arguments. The zeros an extension or a sparse write adds are holes: the
// pieces never hold more bytes than the ops wrote into the file. A file
// truncated to zero holds no piece, only the room it kept, which the next
// append refills.
func FuzzExtents(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0x27, 0x10, 2, 0x02, 0xEE, 0, 0, 3, 0x08, 0xCA, 0, 0})          // write 10000, truncate, extend: zeros from reused capacity
	f.Add([]byte{1, 0, 0, 0x80, 0, 1, 0, 0, 0x80, 0, 1, 0, 0, 0x18, 0, 4, 0x41, 0, 0, 0}) // 32+32+6 KiB, corrupt the third piece
	f.Add([]byte{0, 0x40, 0, 0, 0x10, 0, 0, 0x10, 0xFF, 0xFF, 2, 0, 0x01, 0, 0, 1, 0, 0, 0, 1})
	f.Add([]byte{3, 0xFF, 0xFF, 0, 0, 0, 0x20, 0, 0, 0x10, 4, 0x30, 0, 0, 0, 0, 0x80, 0, 0, 0x08, 2, 0x30, 0x01, 0, 0}) // a hole written into, flipped in, truncated inside
	// Truncated to zero, the file keeps its first piece's room; a rewrite
	// shorter than it, of its size or longer refills it, as does an append
	// after the size is set to 0, and a hole or a sparse write drops it.
	f.Add([]byte{1, 0, 0, 0x10, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0x03, 0xE8, 4, 0, 0x10, 0, 0})
	f.Add([]byte{1, 0, 0, 0x10, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0x10, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0x10, 0})
	f.Add([]byte{1, 0, 0, 0x10, 0, 1, 0, 0, 0x08, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0x20, 0, 4, 0x04, 0x01, 0, 0})
	f.Add([]byte{1, 0, 0, 0x10, 0, 2, 0, 0, 0, 0, 3, 0, 0x10, 0, 0, 0, 0, 0x01, 0, 0x40, 1, 0, 0, 0x01, 0})
	f.Add([]byte{1, 0, 0, 0x10, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0x0C, 0, 3, 0, 0, 0, 0, 0, 0, 0x10, 0, 0x10})
	// A 100-byte file rewritten at 4 KiB twice: the first rewrite outgrows
	// the kept room and takes one piece, which the second refills.
	f.Add([]byte{1, 0, 0, 0, 0x64, 2, 0, 0, 0, 0, 1, 0, 0, 0x10, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0x10, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fs := newFS(0)
		a := mustCreate(t, fs, RootIno, "f")
		var model []byte
		written := 0 // bytes the ops stored: an upper bound on what pieces hold
		grow := func(size int) {
			if size > len(model) {
				model = append(model, make([]byte, size-len(model))...)
			}
		}
		for ; len(ops) >= 5; ops = ops[5:] {
			x, y := int(ops[1])<<8|int(ops[2]), int(ops[3])<<8|int(ops[4])
			switch ops[0] % 5 {
			case 0, 1: // write y bytes at 4x, or append them
				off := 4 * x
				if ops[0]%5 == 1 {
					off = len(model)
				}
				data := bytes.Repeat([]byte{byte(len(ops))}, y)
				if _, _, err := fs.Write(a.Ino, int64(off), data); err != nil {
					t.Fatal(err)
				}
				grow(off + y)
				copy(model[off:], data)
				written += y
			case 2, 3: // truncate to min(4x, size), or set the size to 4x
				size := 4 * x
				if ops[0]%5 == 2 {
					size = min(size, len(model))
				}
				sz := int64(size)
				if _, _, err := fs.Setattr(a.Ino, SetAttr{Size: &sz}); err != nil {
					t.Fatal(err)
				}
				model = model[:min(size, len(model))]
				grow(size)
			case 4: // flip the byte at 4x modulo the size
				if len(model) == 0 {
					continue
				}
				if err := fs.CorruptFile("/f", int64(4*x)); err != nil {
					t.Fatal(err)
				}
				model[4*x%len(model)] ^= 0xFF
				written++
			}
			ext := &fs.file(a).data
			sum, held := int64(0), 0
			for _, p := range ext.list {
				sum += p.len()
				held += len(p.b)
				if (p.b == nil) == (p.hole == 0) || len(p.b) == 0 && p.b != nil {
					t.Fatalf("a piece of %d bytes and a %d-byte hole", len(p.b), p.hole)
				}
			}
			if len(ext.list) == 0 && (ext.size() != 0 || cap(ext.one[0].b) > maxSlack) || len(ext.list) > 0 && ext.size() == 0 {
				t.Fatalf("a %d-byte file of %d pieces keeping %d bytes of room", ext.size(), len(ext.list), cap(ext.one[0].b))
			}
			if sum != ext.size() || ext.size() != int64(len(model)) {
				t.Fatalf("size %d, pieces hold %d, model %d", ext.size(), sum, len(model))
			}
			if held > written {
				t.Fatalf("pieces hold %d bytes, but only %d were written: a zero was allocated", held, written)
			}
			got, _, _, err := fs.Read(a.Ino, 0, len(model))
			if err != nil || !bytes.Equal(got, model) {
				t.Fatalf("file differs from the model at size %d (err %v)", len(model), err)
			}
			// AppendRead is Read after a prefix, from 0 and from an offset
			// inside the file, into spare capacity or a grown buffer.
			head := []byte{byte(x), byte(y), 0xEE}
			for _, off := range []int{0, x % (len(model) + 1)} {
				want, weof, wcost, _ := fs.Read(a.Ino, int64(off), y)
				prefix := append(make([]byte, 0, len(head)+x%97), head...)
				got, eof, cost, err := fs.AppendRead(prefix, a.Ino, int64(off), y)
				if err != nil || eof != weof || cost != wcost || !bytes.Equal(got, append(head[:3:3], want...)) {
					t.Fatalf("AppendRead(prefix, %d, %d) is not prefix + Read (eof %v/%v, err %v)", off, y, eof, weof, err)
				}
			}
		}
	})
}

// TestCleanPathAllocs: an absolute, clean path comes back as it is.
func TestCleanPathAllocs(t *testing.T) {
	racetest.SkipAllocs(t)
	for _, p := range []string{"/", "/a", "/home/alice/src/main.c"} {
		if n := testing.AllocsPerRun(100, func() { _ = CleanPath(p) }); n != 0 {
			t.Errorf("CleanPath(%q) allocates %.0f times, want 0", p, n)
		}
	}
}

// FuzzCleanPath: CleanPath is path.Clean("/" + p).
func FuzzCleanPath(f *testing.F) {
	for _, p := range []string{"", "/", "a", "a/b", "/a/b", "/a/b/", "//a", "/a//b", "/a/./b", "/a/../b",
		"..", "/..", "../a", "/a/..", ".", "/.", "a/.", "/.../..a/b..", "///"} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := CleanPath(p), path.Clean("/"+p); got != want {
			t.Fatalf("CleanPath(%q) = %q, want %q", p, got, want)
		}
	})
}

// TestHoleHoldsNoBytes: a write of no bytes far past the end, a write that
// starts past it and a size set past it leave holes that allocate nothing,
// and a write into a hole allocates only its own bytes, while the quota
// counts every byte the file's size stands for. A hole reads back as zeros
// written into the reader's buffer, whatever that buffer held.
func TestHoleHoldsNoBytes(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "sparse")
	const size = MaxFileSize
	got := allocatedBytes(func() {
		if _, _, err := f.Write(a.Ino, 0xe0000003, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Write(a.Ino, size-5, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		sz := int64(size)
		if _, _, err := f.Setattr(a.Ino, SetAttr{Size: &sz}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Write(a.Ino, 1<<30, []byte("middle")); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4<<10 {
		t.Errorf("a %d-byte sparse file holding 10 written bytes allocated %d bytes", int64(size), got)
	}
	if st, _, _ := f.Statfs(); st.UsedBytes != size {
		t.Errorf("the store charges %d bytes for a %d-byte file", st.UsedBytes, int64(size))
	}
	for _, c := range []struct {
		off  int64
		want []byte
	}{
		{1<<30 - 10, append(append(make([]byte, 10), "middle"...), make([]byte, 14)...)},
		{size - 8, append(make([]byte, 3), "tail\x00"...)},
	} {
		dst := bytes.Repeat([]byte{0xFF}, 64)
		out, _, _, err := f.AppendRead(dst[:0], a.Ino, c.off, len(c.want))
		if err != nil || !bytes.Equal(out, c.want) || &out[0] != &dst[0] {
			t.Errorf("read at %d into a dirty buffer: %q (err %v), want %q in place", c.off, out, err, c.want)
		}
	}
}
