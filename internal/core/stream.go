package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// This file is the client side of the per-handle data path: a readahead
// window that turns sequential READs into one READ per window (one per
// holder when the window fans out), a write-back buffer that coalesces
// adjacent WRITEs into one vectored flush, and the holder list replica reads
// spread over. All are off by default (stop-and-wait, write-through, primary
// only) and enabled by Config.ReadaheadChunks / WriteBackBytes /
// ReadFromReplicas.

// wbMaxSpans bounds how many disjoint spans a write-back buffer holds before
// it flushes regardless of the byte high-water mark, so a pathological
// strided writer cannot grow the span vector without bound.
const wbMaxSpans = 16

// stream is the per-handle state of one virtual handle: the readahead buffer
// (one fetched window, consumed front to back), the sequential-access
// cursor, the replica holders' handles, and the write-back span buffer.
type stream struct {
	mu sync.Mutex

	// Readahead. buf holds prefetched bytes starting at file offset bufOff;
	// bufEOF records that the file ended within the fetched window. nextOff
	// is where a sequential reader would read next — a miss at exactly
	// nextOff is a confirmed sequential pattern and triggers a window fetch.
	nextOff int64
	buf     []byte
	bufOff  int64
	bufEOF  bool

	// Replica reads. repFH caches each replica holder's handle for the
	// file's replica-area copy, resolved the first time a read lands there;
	// a zero handle marks a holder whose read failed, skipped for the rest of
	// the handle's life.
	repFH map[simnet.Addr]nfs.Handle

	// Write-back: disjoint dirty spans and their total payload size. spare is
	// the previous flush's largest span buffer, refilled by the next span so a
	// sequential writer does not regrow a buffer per flush, and spans keeps
	// the previous flush's emptied vector; both die with the handle.
	spans   []nfs.WriteSpan
	wbBytes int
	spare   []byte
}

// serve answers a read from the prefetched buffer. ok=false is a miss. The
// consumed prefix is dropped so a stream never holds more than one window.
func (st *stream) serve(offset int64, count int) (data []byte, eof, ok bool) {
	end := st.bufOff + int64(len(st.buf))
	if st.bufEOF && offset >= end {
		// The window saw EOF and the cursor is past it: answer the reader's
		// final probe without a round trip.
		st.nextOff = offset
		return nil, true, true
	}
	if offset < st.bufOff || offset >= end {
		return nil, false, false
	}
	lo := int(offset - st.bufOff)
	hi := lo + count
	if hi > len(st.buf) {
		hi = len(st.buf)
	}
	data = st.buf[lo:hi:hi]
	eof = st.bufEOF && hi == len(st.buf)
	st.buf = st.buf[hi:]
	st.bufOff += int64(hi)
	st.nextOff = offset + int64(len(data))
	return data, eof, true
}

// discard cancels the prefetched window (seek or close), returning how many
// fetched-but-unread bytes it wasted.
func (st *stream) discard() int {
	n := len(st.buf)
	st.buf, st.bufOff, st.bufEOF = nil, 0, false
	return n
}

// absorb merges one write into the span buffer: grow an adjacent span or
// open a new one, a span's bytes growing by appendSpan up to limit, the
// write-back high-water mark. ok=false reports an overlap with buffered data
// — the caller flushes first so bytes always land in write order.
func (st *stream) absorb(offset int64, data []byte, limit int) bool {
	end := offset + int64(len(data))
	var adj *nfs.WriteSpan
	prepend := false
	for i := range st.spans {
		s := &st.spans[i]
		sEnd := s.Offset + int64(len(s.Data))
		if end > s.Offset && offset < sEnd {
			return false
		}
		if offset == sEnd {
			adj, prepend = s, false
		} else if end == s.Offset {
			adj, prepend = s, true
		}
	}
	switch {
	case adj == nil:
		st.spans = append(st.spans, nfs.WriteSpan{Offset: offset, Data: appendSpan(st.spare, data, limit)})
		st.spare = nil
	case prepend:
		adj.Data = append(append([]byte(nil), data...), adj.Data...)
		adj.Offset = offset
	default:
		adj.Data = appendSpan(adj.Data, data, limit)
	}
	st.wbBytes += len(data)
	return true
}

// appendSpan appends data to a span buffer, doubling its room when it must
// grow, but to no more than limit, the write-back high-water mark, unless
// the bytes need more. So a sequential writer's buffer reaches the mark in
// a few steps (append grows a large slice by a quarter), and a small file's
// never holds a whole flush's room.
func appendSpan(buf, data []byte, limit int) []byte {
	need := len(buf) + len(data)
	if need > cap(buf) {
		grown := make([]byte, len(buf), max(need, min(2*cap(buf), limit)))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, data...)
}

// streamOf returns the handle's stream state, creating it when create is
// set. The table is only ever populated when readahead, write-back or
// replica reads are on, so the default configuration pays one empty-map
// lookup at most.
func (m *Mount) streamOf(vh VH, create bool) *stream {
	m.smu.Lock()
	defer m.smu.Unlock()
	st := m.streams[vh]
	if st == nil && create {
		st = &stream{}
		m.streams[vh] = st
	}
	return st
}

// release takes the handle's stream state out of the table, flushes its
// write-back buffer and counts any unread prefetched bytes as wasted
// readahead. A handle with no stream has nothing buffered: free.
func (m *Mount) release(tr *obs.Trace, vh VH) (simnet.Cost, error) {
	m.smu.Lock()
	st := m.streams[vh]
	delete(m.streams, vh)
	m.smu.Unlock()
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := st.discard(); n > 0 {
		m.n.raWasted.Add(uint64(n))
	}
	return m.flushLocked(tr, vh, st)
}

// --- readahead ---

// readAhead serves a Read through the handle's sliding window, appending to
// dst (ReadInto). A hit on the prefetched buffer costs only the
// interposition constant plus the loopback copy; a miss at the sequential
// cursor fetches the next window with one READ of its byte count (fanned out
// across replica holders when replica reads are on); any other miss — a
// seek — cancels the window and falls back to a plain stop-and-wait READ.
// Bytes served from the window are copied into dst, or with a nil dst are
// the window's own.
func (m *Mount) readAhead(tr *obs.Trace, vh VH, offset int64, count int, dst []byte) ([]byte, bool, simnet.Cost, error) {
	st := m.streamOf(vh, true)
	st.mu.Lock()
	defer st.mu.Unlock()
	if data, eof, ok := st.serve(offset, count); ok {
		// A window hit is a client-side cache hit: it costs only the
		// interposition constant, the same convention the attribute cache
		// uses (forwarded READs don't charge the loopback leg either).
		m.n.raHits.Add(1)
		return appendData(dst, data), eof, InterposeCost, nil
	}
	if w := st.discard(); w > 0 {
		m.n.raWasted.Add(uint64(w))
	}
	sequential := offset == st.nextOff
	data := dst
	var eof bool
	cost, err := m.withFailover(tr, vh, func(de *ventry) (c simnet.Cost, err error) {
		if de.kind != localfs.TypeRegular || !sequential {
			data, eof, c, err = m.readAt(tr, de, st, offset, count, dst)
			return c, err
		}
		c, ferr := m.fillWindow(tr, de, st, offset)
		if ferr != nil {
			return c, ferr
		}
		d, e, _ := st.serve(offset, count)
		data, eof = appendData(dst, d), e
		if de.node == m.n.addr {
			c = simnet.Seq(c, loopbackXfer(len(d)))
		}
		return c, nil
	})
	if err != nil {
		return dst, false, cost, err
	}
	st.nextOff = offset + int64(len(data)-len(dst))
	return data, eof, cost, nil
}

// appendData is data appended to dst, or data itself when there is no dst.
func appendData(dst, data []byte) []byte {
	if dst == nil {
		return data
	}
	return append(dst, data...)
}

// fillWindow fetches one readahead window, Config.ReadaheadChunks
// ReadUnits from offset, into the stream buffer. With one holder it is one
// READ, whose reply's bytes become the buffer. With ReadFromReplicas the
// window splits bitswap-style over the handle's holder list: each holder
// serves one READ of a contiguous run of units, concurrently (the cost is
// the slowest segment, not the sum), into its own slice of one buffer sized
// for the window. A replica-side failure never fails the window — its
// segment is refetched from the primary.
func (m *Mount) fillWindow(tr *obs.Trace, de *ventry, st *stream, offset int64) (simnet.Cost, error) {
	window := m.n.cfg.ReadaheadChunks
	var total simnet.Cost
	hs := []simnet.Addr{de.node}
	if m.n.cfg.ReadFromReplicas {
		hs, total = m.holders(tr, de, st)
		if len(hs) > window {
			hs = hs[:window]
		}
	}
	var buf []byte
	if len(hs) > 1 {
		buf = make([]byte, window*localfs.ReadUnit)
	}
	var segs simnet.Cost
	kept, short, eof := 0, false, false // the bytes up to the first short segment
	o := 0
	for i, h := range hs {
		n := window / len(hs)
		if i < window%len(hs) {
			n++
		}
		n *= localfs.ReadUnit
		var dst []byte
		if buf != nil {
			dst = buf[o : o : o+n]
		}
		d, e, _, c, err := m.readFrom(tr, de, st, h, offset+int64(o), n, dst)
		if err != nil {
			return simnet.Seq(total, segs, c), err
		}
		segs = simnet.Par(segs, c)
		if !short {
			if buf == nil {
				buf = d // the one holder's reply
			}
			kept += len(d)
			short, eof = e || len(d) < n, e
		}
		o += n
	}
	if kept < len(buf) {
		// The file ended inside the window, or a holder had less: keep the
		// bytes before the first short segment in a buffer of their size, so
		// a stream never holds a window's room for a file's tail. Anything
		// after it would be discontiguous; a later window refetches it.
		tail := make([]byte, kept)
		copy(tail, buf)
		buf = tail
	}
	st.buf, st.bufOff, st.bufEOF = buf, offset, eof
	return simnet.Seq(total, segs), nil
}

// holders is the handle's holder list, the one list both stop-and-wait reads
// (readAt) and readahead windows (fillWindow) spread over: the primary, then
// replicaSet's replica holders less those whose read failed on this handle.
// It costs replicaSet's exchange (nothing once cached); when that fails the
// primary stands alone.
func (m *Mount) holders(tr *obs.Trace, de *ventry, st *stream) ([]simnet.Addr, simnet.Cost) {
	reps, cost, err := m.n.replicaSet(tr.Ctx(), de.node, Key(de.pn), de.root)
	hs := append(make([]simnet.Addr, 0, len(reps)+1), de.node)
	if err != nil {
		return hs, cost
	}
	for _, rep := range reps {
		if fh, ok := st.repFH[rep]; !ok || !fh.IsZero() {
			hs = append(hs, rep)
		}
	}
	return hs, cost
}

// readFrom is one READ of count bytes at off from the holder h, appended to
// dst (ReadInto) and counted toward ReadSpread. A replica holder is read
// through its replica-area handle, resolved the first time a read lands
// there; when that resolution or the read fails, h is marked failed on this
// handle and the read reruns against the primary. It returns the node that
// served and the cost of every attempt.
func (m *Mount) readFrom(tr *obs.Trace, de *ventry, st *stream, h simnet.Addr, off int64, count int, dst []byte) (data []byte, eof bool, from simnet.Addr, cost simnet.Cost, err error) {
	if h != de.node {
		fh, ok := st.repFH[h]
		if !ok {
			fh, _, cost, err = m.n.remoteLookupPath(tr.Ctx(), h, RepArea, de.root, de.tail())
		}
		if err == nil {
			var c simnet.Cost
			data, eof, c, err = m.n.nfsT(tr).ReadInto(h, fh, off, count, dst)
			cost = simnet.Seq(cost, c)
		}
		if st.repFH == nil {
			st.repFH = make(map[simnet.Addr]nfs.Handle, 2)
		}
		if err == nil {
			st.repFH[h] = fh
			m.countRead(h)
			tr.SetServedBy(string(h))
			return data, eof, h, cost, nil
		}
		st.repFH[h] = nfs.Handle{} // skipped by holders from now on
	}
	data, eof, c, err := m.n.nfsT(tr).ReadInto(de.node, de.fh, off, count, dst)
	if err == nil {
		m.countRead(de.node)
	}
	return data, eof, de.node, simnet.Seq(cost, c), err
}

// --- write-back ---

// writeBuffered absorbs one Write into the handle's coalescing buffer,
// flushing on the byte high-water mark or span-count bound. handled=false
// sends the caller down the write-through path (non-regular files).
func (m *Mount) writeBuffered(tr *obs.Trace, vh VH, offset int64, data []byte) (int, simnet.Cost, bool, error) {
	de, err := m.entry(vh)
	if err != nil || de.kind != localfs.TypeRegular {
		return 0, 0, false, nil
	}
	st := m.streamOf(vh, true)
	st.mu.Lock()
	defer st.mu.Unlock()
	// Absorbing into the client-side buffer costs the interposition
	// constant alone; the network and disk are paid at flush time.
	cost := InterposeCost
	limit := m.n.cfg.WriteBackBytes
	if !st.absorb(offset, data, limit) {
		// The write overlaps buffered data: flush first so bytes land in
		// write order, then buffer the new write.
		c, ferr := m.flushLocked(tr, vh, st)
		cost = simnet.Seq(cost, c)
		if ferr != nil {
			return 0, cost, true, ferr
		}
		st.absorb(offset, data, limit)
	}
	// An absorb leaves the cached row alone, which still describes what the
	// primary holds: a Getattr on this handle flushes before it reads the
	// cache, and the flush's reply records the new attributes.
	m.n.wbCoalesced.Add(1)
	if st.wbBytes >= limit || len(st.spans) > wbMaxSpans {
		c, ferr := m.flushLocked(tr, vh, st)
		cost = simnet.Seq(cost, c)
		if ferr != nil {
			return 0, cost, true, ferr
		}
	}
	return len(data), cost, true, nil
}

// flushLocked ships the buffered spans as one FSWrite apply through the
// primary (replica fan-out intact) and empties the buffer. Like the NFSv3
// write-back contract, dirty data is dropped on error: the failure surfaces
// to whoever forced the flush — high water, Commit, Close — and is gone.
func (m *Mount) flushLocked(tr *obs.Trace, vh VH, st *stream) (simnet.Cost, error) {
	if len(st.spans) == 0 {
		return 0, nil
	}
	spans := st.spans
	st.spans, st.wbBytes = nil, 0
	// The spans are disjoint, so ordering by offset is a total order.
	slices.SortFunc(spans, func(a, b nfs.WriteSpan) int { return cmp.Compare(a.Offset, b.Offset) })
	m.n.wbFlushes.Add(1)
	size := 0
	for _, s := range spans {
		size += len(s.Data)
	}
	cost, err := m.withFailover(tr, vh, func(de *ventry) (simnet.Cost, error) {
		since := m.meta.sample()
		a, _, c, aerr := m.n.applyAt(tr, de.site(), FSOp{Kind: FSWrite, Spans: spans}, de.at(""), physRef{})
		if aerr == nil {
			m.meta.put(de.vpath, a, nil, since)
			if de.node == m.n.addr {
				c = simnet.Seq(c, loopbackXfer(size))
			}
		}
		return c, aerr
	})
	// apply is synchronous and lent the spans to its request frame only
	// for its calls, which have all returned, so their buffers are free
	// again whatever the outcome: the largest is the next span's, and the
	// emptied vector the next flush's.
	for _, s := range spans {
		if cap(s.Data) > cap(st.spare) {
			st.spare = s.Data[:0]
		}
	}
	clear(spans)
	st.spans = spans[:0]
	return cost, err
}

// flushVH flushes the handle's write-back buffer if one exists. A no-op
// (zero cost) when the handle has no stream — the write-through case — or
// holds no dirty data.
func (m *Mount) flushVH(tr *obs.Trace, vh VH) (simnet.Cost, error) {
	st := m.streamOf(vh, false)
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return m.flushLocked(tr, vh, st)
}

// Commit flushes the handle's write-back buffer to the primary, the NFSv3
// COMMIT. Under write-through it costs only the interposition constant.
func (m *Mount) Commit(vh VH) (simnet.Cost, error) {
	o := m.begin(obs.OpcCommit, m.vpathOf(vh))
	cost, err := m.flushVH(o.tr, vh)
	if cost == 0 {
		cost = InterposeCost
	}
	o.done(cost, err)
	return cost, err
}

// Close releases a handle with close-to-open semantics: buffered writes
// flush (errors surface here, like COMMIT at close), the readahead window
// is cancelled, and the virtual handle is forgotten. A mount that writes,
// Closes, and is followed by any other mount opening the same file is
// guaranteed to expose the written bytes.
func (m *Mount) Close(vh VH) (simnet.Cost, error) {
	o := m.begin(obs.OpcCommit, m.vpathOf(vh))
	cost, err := m.release(o.tr, vh)
	if vh != RootVH {
		m.vt.delete(vh)
	}
	if cost == 0 {
		cost = InterposeCost
	}
	o.done(cost, err)
	return cost, err
}

// FlushAll flushes every handle's write-back buffer — the quiesce hook the
// chaos harness runs before oracle checks. No-op under write-through.
func (m *Mount) FlushAll() (simnet.Cost, error) {
	m.smu.Lock()
	vhs := make([]VH, 0, len(m.streams))
	for vh := range m.streams {
		vhs = append(vhs, vh)
	}
	m.smu.Unlock()
	var total simnet.Cost
	var firstErr error
	for _, vh := range vhs {
		c, err := m.flushVH(nil, vh)
		total = simnet.Seq(total, c)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}
