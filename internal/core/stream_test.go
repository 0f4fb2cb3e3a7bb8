package core

import (
	"bytes"
	"testing"

	"repro/internal/nfs"
)

func counter(n *Node, name string) uint64 {
	return n.Obs().Snapshot().Counters[name]
}

// TestWriteBackCloseToOpen exercises the close-to-open contract under
// write-back: small sequential writes coalesce client-side, Close flushes
// them through the primary (replica fan-out intact), and a second mount —
// on a different node — opening the file afterwards reads the fresh bytes.
func TestWriteBackCloseToOpen(t *testing.T) {
	_, nodes := testCluster(t, 4, 81, Config{Replicas: 1, WriteBackBytes: 1 << 20})
	m1 := nodes[0].NewMount()
	if _, _, err := m1.MkdirAll("/cto"); err != nil {
		t.Fatal(err)
	}
	dvh, _, _, err := m1.LookupPath("/cto")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m1.Create(dvh, "f.bin", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}

	const piece = 4 << 10
	payload := make([]byte, 8*piece)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	flushesBefore := counter(nodes[0], "io.writeback.flushes")
	for off := 0; off < len(payload); off += piece {
		n, _, err := m1.Write(fvh, int64(off), payload[off:off+piece])
		if err != nil || n != piece {
			t.Fatalf("write at %d: n=%d err=%v", off, n, err)
		}
	}
	if got := counter(nodes[0], "io.writeback.coalesced"); got < 8 {
		t.Fatalf("io.writeback.coalesced = %d, want >= 8", got)
	}
	if got := counter(nodes[0], "io.writeback.flushes"); got != flushesBefore {
		t.Fatalf("writes below the high-water mark flushed early: %d -> %d", flushesBefore, got)
	}
	if _, err := m1.Close(fvh); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := counter(nodes[0], "io.writeback.flushes"); got != flushesBefore+1 {
		t.Fatalf("close performed %d flushes, want exactly 1", got-flushesBefore)
	}

	// Close-to-open: a different client on a different node sees the bytes.
	m2 := nodes[1].NewMount()
	data, _, err := m2.ReadFile("/cto/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatalf("second mount read %d bytes, mismatch with %d written", len(data), len(payload))
	}
}

// TestWriteBackHighWaterFlush verifies the byte high-water mark forces a
// flush mid-stream rather than growing the buffer without bound.
func TestWriteBackHighWaterFlush(t *testing.T) {
	_, nodes := testCluster(t, 3, 82, Config{Replicas: 1, WriteBackBytes: 16 << 10})
	m := nodes[0].NewMount()
	if _, _, err := m.MkdirAll("/hw"); err != nil {
		t.Fatal(err)
	}
	dvh, _, _, err := m.LookupPath("/hw")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dvh, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	before := counter(nodes[0], "io.writeback.flushes")
	chunk := make([]byte, 4<<10)
	for off := 0; off < 64<<10; off += len(chunk) {
		if _, _, err := m.Write(fvh, int64(off), chunk); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if got := counter(nodes[0], "io.writeback.flushes"); got < before+4 {
		t.Fatalf("64KiB through a 16KiB high-water mark flushed %d times, want >= 4", got-before)
	}
	if _, err := m.Close(fvh); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackFlushErrorSurfacesAtClose pins the NFSv3 COMMIT-like error
// contract: a buffered write is accepted locally, and when the deferred
// flush fails (the primary's partition is full) the error surfaces at
// Close, not silently nowhere.
func TestWriteBackFlushErrorSurfacesAtClose(t *testing.T) {
	_, nodes := testCluster(t, 3, 83, Config{Replicas: 1, WriteBackBytes: 1 << 20, Capacity: 32 << 10})
	m := nodes[0].NewMount()
	if _, _, err := m.MkdirAll("/full"); err != nil {
		t.Fatal(err)
	}
	dvh, _, _, err := m.LookupPath("/full")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dvh, "big", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	// 64KiB buffered against a 32KiB partition: accepted client-side.
	big := make([]byte, 64<<10)
	if n, _, err := m.Write(fvh, 0, big); err != nil || n != len(big) {
		t.Fatalf("buffered write: n=%d err=%v", n, err)
	}
	_, err = m.Close(fvh)
	if err == nil {
		t.Fatal("close succeeded; want the deferred flush's ENOSPC to surface")
	}
	if !nfs.IsStatus(err, nfs.ErrNoSpc) {
		t.Fatalf("close error = %v, want NFS3ERR_NOSPC", err)
	}
}

// TestCommitFlushesWriteBack: under write-back, Commit is the NFSv3 COMMIT.
// Bytes buffered below the high-water mark reach the primary at Commit, so a
// second mount on another node reads them before the writer closes, and the
// Close after it has nothing left to flush.
func TestCommitFlushesWriteBack(t *testing.T) {
	_, nodes := testCluster(t, 4, 84, Config{Replicas: 1, WriteBackBytes: 1 << 20})
	m1 := nodes[0].NewMount()
	if _, _, err := m1.MkdirAll("/commit"); err != nil {
		t.Fatal(err)
	}
	dvh, _, _, err := m1.LookupPath("/commit")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m1.Create(dvh, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("commit"), 2<<10)
	if n, _, err := m1.Write(fvh, 0, payload); err != nil || n != len(payload) {
		t.Fatalf("buffered write: n=%d err=%v", n, err)
	}
	m2 := nodes[1].NewMount()
	if data, _, err := m2.ReadFile("/commit/f"); err != nil || len(data) != 0 {
		t.Fatalf("before Commit a second mount read %d bytes (%v), want the empty file", len(data), err)
	}
	before := counter(nodes[0], "io.writeback.flushes")
	if _, err := m1.Commit(fvh); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := counter(nodes[0], "io.writeback.flushes"); got != before+1 {
		t.Fatalf("commit performed %d flushes, want exactly 1", got-before)
	}
	if data, _, err := m2.ReadFile("/commit/f"); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("after Commit a second mount read %d bytes (%v), want the %d written", len(data), err, len(payload))
	}
	if _, err := m1.Close(fvh); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := counter(nodes[0], "io.writeback.flushes"); got != before+1 {
		t.Fatalf("close after commit flushed again: %d flushes, want 1", got-before)
	}
}

// TestCommitSurfacesFlushError: a flush that fails at Commit (the primary's
// partition is full) returns its error from Commit.
func TestCommitSurfacesFlushError(t *testing.T) {
	_, nodes := testCluster(t, 3, 85, Config{Replicas: 1, WriteBackBytes: 1 << 20, Capacity: 32 << 10})
	m := nodes[0].NewMount()
	if _, _, err := m.MkdirAll("/full"); err != nil {
		t.Fatal(err)
	}
	dvh, _, _, err := m.LookupPath("/full")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dvh, "big", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64<<10)
	if n, _, err := m.Write(fvh, 0, big); err != nil || n != len(big) {
		t.Fatalf("buffered write: n=%d err=%v", n, err)
	}
	if _, err := m.Commit(fvh); !nfs.IsStatus(err, nfs.ErrNoSpc) {
		t.Fatalf("commit error = %v, want NFS3ERR_NOSPC", err)
	}
}

// TestCommitUnderWriteThrough: with no write-back buffer Commit has nothing
// to flush. It costs the interposition constant and sends no RPC.
func TestCommitUnderWriteThrough(t *testing.T) {
	net, nodes := testCluster(t, 3, 86, Config{Replicas: 1})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/wt/f", []byte("through")); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/wt/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Write(fvh, 0, []byte("again")); err != nil {
		t.Fatal(err)
	}
	before := net.Stats().Messages
	cost, err := m.Commit(fvh)
	if err != nil || cost != InterposeCost {
		t.Fatalf("commit = %v, %v; want InterposeCost (%v)", cost, err, InterposeCost)
	}
	if sent := net.Stats().Messages - before; sent != 0 {
		t.Fatalf("commit under write-through sent %d messages, want 0", sent)
	}
}

// TestReadaheadSequentialHitsAndSeekCancel drives a sequential scan through
// the readahead window — every read after the first window fetch is a
// client-side hit — then seeks, which must cancel the window and count the
// prefetched remainder as wasted.
func TestReadaheadSequentialHitsAndSeekCancel(t *testing.T) {
	_, nodes := testCluster(t, 4, 84, Config{Replicas: 1, ReadaheadChunks: 4})
	payload := make([]byte, 16<<20)
	for i := range payload {
		payload[i] = byte(i * 7 % 256)
	}
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/ra/seq.bin", payload); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/ra/seq.bin")
	if err != nil {
		t.Fatal(err)
	}

	const piece = 1 << 20
	var got []byte
	for off := 0; off < len(payload); off += piece {
		d, _, _, err := m.Read(fvh, int64(off), piece)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		got = append(got, d...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("sequential scan through readahead returned wrong bytes (%d vs %d)", len(got), len(payload))
	}
	// A 4-chunk window over a 16-chunk file: 3 of every 4 reads hit.
	if hits := counter(nodes[0], "io.readahead.hits"); hits < 8 {
		t.Fatalf("io.readahead.hits = %d, want >= 8", hits)
	}
	if wasted := counter(nodes[0], "io.readahead.wasted"); wasted != 0 {
		t.Fatalf("io.readahead.wasted = %d after a pure sequential scan, want 0", wasted)
	}

	// Restart the scan: the first read back at 0 is a seek (plain READ, no
	// window), the second at 1MiB matches the cursor and refills a window.
	// Then seek away mid-window: the prefetched remainder must be discarded
	// and counted as wasted.
	d, _, _, err := m.Read(fvh, 0, piece)
	if err != nil || !bytes.Equal(d, payload[:piece]) {
		t.Fatalf("restart read: %v", err)
	}
	if d, _, _, err = m.Read(fvh, piece, piece); err != nil || !bytes.Equal(d, payload[piece:2*piece]) {
		t.Fatalf("refill read: %v", err)
	}
	const seek = 10 * piece
	if d, _, _, err = m.Read(fvh, seek, piece); err != nil || !bytes.Equal(d, payload[seek:seek+piece]) {
		t.Fatalf("post-seek read: %v", err)
	}
	if wasted := counter(nodes[0], "io.readahead.wasted"); wasted == 0 {
		t.Fatal("seek mid-window did not count the discarded prefetch as wasted")
	}
}

// TestReadaheadWithReplicaFanout checks the window fans out across replica
// holders: a sequential scan with ReadFromReplicas spreads over more than
// one node and still returns the right bytes.
func TestReadaheadWithReplicaFanout(t *testing.T) {
	_, nodes := testCluster(t, 6, 85, Config{
		Replicas: 2, ReadFromReplicas: true, ReadaheadChunks: 4,
	})
	payload := make([]byte, 16<<20)
	for i := range payload {
		payload[i] = byte(i * 13 % 256)
	}
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/fan/big.bin", payload); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/fan/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	const piece = 1 << 20
	var got []byte
	for off := 0; off < len(payload); off += piece {
		d, _, _, err := m.Read(fvh, int64(off), piece)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		got = append(got, d...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fanned-out sequential scan returned wrong bytes")
	}
	if spread := m.ReadSpread(); len(spread) < 2 {
		t.Fatalf("window segments served by %d node(s) (%v), want fan-out across >= 2", len(spread), spread)
	}
}

// TestReadaheadFanoutAcrossEOF: a fanned-out window that crosses EOF keeps
// the segments up to the first short one and stitches them into a buffer of
// exactly their size, not the window's. The file is 2.5 MiB and change, so
// of the 4 x 1 MiB window the primary serves two full chunks, the next
// holder the short tail, and the last holder nothing.
func TestReadaheadFanoutAcrossEOF(t *testing.T) {
	_, nodes := testCluster(t, 6, 85, Config{
		Replicas: 2, ReadFromReplicas: true, ReadaheadChunks: 4,
	})
	const piece = 1 << 20
	payload := make([]byte, 5*piece/2+100)
	for i := range payload {
		payload[i] = byte(i * 7 % 251)
	}
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/fan/tail.bin", payload); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/fan/tail.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, eof, _, err := m.Read(fvh, 0, piece)
	if err != nil || eof {
		t.Fatalf("first read: %d bytes eof=%v err=%v", len(got), eof, err)
	}
	if spread := m.ReadSpread(); len(spread) < 2 {
		t.Fatalf("window served by %d node(s) (%v), want a stitched fan-out", len(spread), spread)
	}
	st := m.streamOf(fvh, false)
	st.mu.Lock()
	left, room, bufEOF := len(st.buf), cap(st.buf), st.bufEOF
	st.mu.Unlock()
	if want := len(payload) - piece; left != want || room != want || !bufEOF {
		t.Fatalf("after the first read the window holds %d bytes in room for %d (eof=%v), want %d in exactly %d and eof",
			left, room, bufEOF, want, want)
	}
	for off := piece; !eof; off += piece {
		var d []byte
		d, eof, _, err = m.Read(fvh, int64(off), piece)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		got = append(got, d...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("a window across EOF returned %d bytes, want the file's %d", len(got), len(payload))
	}
}
