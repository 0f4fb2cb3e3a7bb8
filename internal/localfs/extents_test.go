package localfs

import (
	"runtime"
	"testing"
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
// clients) re-copies only within its current extent, as append would.
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
	if limit := uint64(total) * 7; got > limit {
		t.Errorf("growing to %d bytes allocated %d, want <= %d", total, got, limit)
	}
}

// TestOneExtentFileHasNoHeader: a file that fits one extent costs one
// allocation sized to its data — no separate extent-list header.
func TestOneExtentFileHasNoHeader(t *testing.T) {
	var x extents
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
