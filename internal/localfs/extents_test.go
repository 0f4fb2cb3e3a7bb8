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
		for x.size() < int64(c.total) {
			x.resize(x.size() + int64(c.piece))
		}
		if n, limit := len(x.list), c.total>>20+64; n > limit {
			t.Errorf("%d bytes grown %d at a time: %d pieces, want <= %d", c.total, c.piece, n, limit)
		}
	}
}

// TestOneExtentFileHasNoHeader: a file that fits one extent costs one
// allocation sized to its data — no separate extent-list header.
func TestOneExtentFileHasNoHeader(t *testing.T) {
	var x extents
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() {
		x.resize(0)
		x.resize(4096)
	}); n != 1 {
		t.Errorf("a 4 KiB file costs %.0f allocations, want 1", n)
	}
	if c := cap(x.list[0]); c != 4096 {
		t.Errorf("a 4 KiB file holds a %d-byte extent, want 4096", c)
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
	if c := cap(f.file(a).data.list[0]); c < 9000 {
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
// against a flat []byte model. Each op is five bytes: a kind and two
// 16-bit arguments.
func FuzzExtents(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0x27, 0x10, 2, 0x02, 0xEE, 0, 0, 3, 0x08, 0xCA, 0, 0})          // write 10000, truncate, extend: zeros from reused capacity
	f.Add([]byte{1, 0, 0, 0x80, 0, 1, 0, 0, 0x80, 0, 1, 0, 0, 0x18, 0, 4, 0x41, 0, 0, 0}) // 32+32+6 KiB, corrupt the third piece
	f.Add([]byte{0, 0x40, 0, 0, 0x10, 0, 0, 0x10, 0xFF, 0xFF, 2, 0, 0x01, 0, 0, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fs := newFS(0)
		a := mustCreate(t, fs, RootIno, "f")
		var model []byte
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
			}
			ext := &fs.file(a).data
			sum := int64(0)
			for _, p := range ext.list {
				sum += int64(len(p))
			}
			if sum != ext.size() || ext.size() != int64(len(model)) {
				t.Fatalf("size %d, pieces hold %d, model %d", ext.size(), sum, len(model))
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
				got, eof, cost, err := fs.AppendRead(prefix, a.Ino, int64(off), y, 1)
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
