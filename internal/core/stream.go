package core

import (
	"sort"
	"sync"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// This file is the client side of the streaming data path: a per-handle
// readahead window that turns sequential READs into pipelined READSTREAM
// window fetches, and a per-handle write-back buffer that coalesces adjacent
// WRITEs into one vectored flush. Both are off by default (stop-and-wait,
// write-through) and enabled by Config.ReadaheadChunks / WriteBackBytes.

// wbMaxSpans bounds how many disjoint spans a write-back buffer holds before
// it flushes regardless of the byte high-water mark, so a pathological
// strided writer cannot grow the span vector without bound.
const wbMaxSpans = 16

// stream is the streaming state of one virtual handle: the readahead buffer
// (one fetched window, consumed front to back), the sequential-access
// cursor, cached replica handles for window fan-out, and the write-back
// span buffer.
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
	repFH   map[simnet.Addr]nfs.Handle // replica-area handles for fan-out

	// Write-back: disjoint dirty spans and their total payload size. spare is
	// the previous flush's largest span buffer, refilled by the next span so a
	// sequential writer does not regrow a buffer per flush; it dies with the
	// handle.
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
// open a new one. ok=false reports an overlap with buffered data — the
// caller flushes first so bytes always land in write order.
func (st *stream) absorb(offset int64, data []byte) bool {
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
		st.spans = append(st.spans, nfs.WriteSpan{Offset: offset, Data: append(st.spare, data...)})
		st.spare = nil
	case prepend:
		adj.Data = append(append([]byte(nil), data...), adj.Data...)
		adj.Offset = offset
	default:
		adj.Data = append(adj.Data, data...)
	}
	st.wbBytes += len(data)
	return true
}

// streamOf returns the handle's stream state, creating it when create is
// set. The table is only ever populated when streaming is enabled, so the
// default configuration pays one empty-map lookup at most.
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

// cancelStream drops the handle's stream state, counting any unread
// prefetched bytes as wasted readahead.
func (m *Mount) cancelStream(vh VH) {
	m.smu.Lock()
	st := m.streams[vh]
	delete(m.streams, vh)
	m.smu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	if n := st.discard(); n > 0 {
		m.n.raWasted.Add(uint64(n))
	}
	st.mu.Unlock()
}

// --- readahead ---

// readAhead serves a Read through the handle's sliding window. A hit on the
// prefetched buffer costs only the interposition constant plus the loopback
// copy; a miss at the sequential cursor fetches the next window with one
// pipelined READSTREAM (fanned out across replica holders when replica
// reads are on); any other miss — a seek — cancels the window and falls
// back to a plain stop-and-wait READ.
func (m *Mount) readAhead(tr *obs.Trace, vh VH, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	st := m.streamOf(vh, true)
	st.mu.Lock()
	defer st.mu.Unlock()
	if data, eof, ok := st.serve(offset, count); ok {
		// A window hit is a client-side cache hit: it costs only the
		// interposition constant, the same convention the attribute cache
		// uses (forwarded READs don't charge the loopback leg either).
		m.n.raHits.Add(1)
		return data, eof, InterposeCost, nil
	}
	if w := st.discard(); w > 0 {
		m.n.raWasted.Add(uint64(w))
	}
	sequential := offset == st.nextOff
	var data []byte
	var eof bool
	cost, err := m.withFailover(tr, vh, func(de *ventry) (c simnet.Cost, err error) {
		if de.kind != localfs.TypeRegular || !sequential {
			data, eof, c, err = m.readAt(tr, de, offset, count)
			return c, err
		}
		c, ferr := m.fillWindow(tr, de, st, offset)
		if ferr != nil {
			return c, ferr
		}
		d, e, _ := st.serve(offset, count)
		data, eof = d, e
		if de.node == m.n.addr {
			c = simnet.Seq(c, loopbackXfer(len(d)))
		}
		return c, nil
	})
	if err != nil {
		return nil, false, cost, err
	}
	st.nextOff = offset + int64(len(data))
	return data, eof, cost, nil
}

// fillWindow fetches one readahead window starting at offset into the
// stream buffer. With ReadFromReplicas the window fans out bitswap-style:
// contiguous chunk ranges are pulled from the primary and its replica
// holders concurrently (the cost is the slowest segment, not the sum) and
// stitched back in order. A replica-side failure never fails the window —
// its segment is refetched from the primary.
func (m *Mount) fillWindow(tr *obs.Trace, de *ventry, st *stream, offset int64) (simnet.Cost, error) {
	chunk, window := m.n.cfg.StreamChunk, m.n.cfg.ReadaheadChunks
	var total simnet.Cost

	type segment struct {
		addr   simnet.Addr
		fh     nfs.Handle
		off    int64
		chunks int
		rep    bool
	}
	segs := []segment{{addr: de.node, fh: de.fh, off: offset, chunks: window}}
	if m.n.cfg.ReadFromReplicas && m.n.cfg.Replicas > 0 && window > 1 {
		reps, c, err := m.n.replicaSet(tr.Ctx(), de.node, Key(de.pn), de.root)
		total = simnet.Seq(total, c)
		if err == nil && len(reps) > 0 {
			holders := []segment{{addr: de.node, fh: de.fh}}
			for _, rep := range reps {
				if len(holders) == window {
					break
				}
				fh, c2, ok := m.replicaHandle(tr, st, rep, de)
				total = simnet.Seq(total, c2)
				if ok {
					holders = append(holders, segment{addr: rep, fh: fh, rep: true})
				}
			}
			segs = segs[:0]
			per, extra := window/len(holders), window%len(holders)
			off := offset
			for i, h := range holders {
				nch := per
				if i < extra {
					nch++
				}
				if nch == 0 {
					continue
				}
				h.off, h.chunks = off, nch
				segs = append(segs, h)
				off += int64(nch * chunk)
			}
		}
	}

	parts := make([][]byte, len(segs))
	eofs := make([]bool, len(segs))
	costs := make([]simnet.Cost, len(segs))
	for i, sg := range segs {
		d, e, c, err := m.n.nfsT(tr).ReadStream(sg.addr, sg.fh, sg.off, chunk, sg.chunks)
		served := sg.addr
		if err != nil && sg.rep {
			delete(st.repFH, sg.addr)
			var c2 simnet.Cost
			d, e, c2, err = m.n.nfsT(tr).ReadStream(de.node, de.fh, sg.off, chunk, sg.chunks)
			c = simnet.Seq(c, c2)
			served = de.node
		}
		if err != nil {
			return simnet.Seq(total, simnet.Par(costs...), c), err
		}
		parts[i], eofs[i], costs[i] = d, e, c
		m.countRead(served)
		if tr != nil && served != de.node {
			tr.SetServedBy(string(served))
		}
	}
	total = simnet.Seq(total, simnet.Par(costs...))

	if len(parts) == 1 {
		// One holder served the whole window: its reply's bytes are the buffer.
		st.buf, st.bufOff, st.bufEOF = parts[0], offset, eofs[0]
		return total, nil
	}
	// Stitch segments in order, stopping at the first short one: the file
	// ended there, or a holder had less — anything after it would be
	// discontiguous and is refetched by a later window.
	buf := make([]byte, 0, window*chunk)
	eof := false
	for i, p := range parts {
		buf = append(buf, p...)
		if eofs[i] || len(p) < segs[i].chunks*chunk {
			eof = eofs[i]
			break
		}
	}
	st.buf, st.bufOff, st.bufEOF = buf, offset, eof
	return total, nil
}

// replicaHandle resolves (and caches per stream) a replica holder's handle
// for the file's replica-area copy.
func (m *Mount) replicaHandle(tr *obs.Trace, st *stream, rep simnet.Addr, de *ventry) (nfs.Handle, simnet.Cost, bool) {
	if fh, ok := st.repFH[rep]; ok {
		return fh, 0, true
	}
	fh, _, c, err := m.n.remoteLookupPath(tr.Ctx(), rep, RepPath(de.physPath))
	if err != nil {
		return nfs.Handle{}, c, false
	}
	if st.repFH == nil {
		st.repFH = make(map[simnet.Addr]nfs.Handle, 2)
	}
	st.repFH[rep] = fh
	return fh, c, true
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
	if !st.absorb(offset, data) {
		// The write overlaps buffered data: flush first so bytes land in
		// write order, then buffer the new write.
		c, ferr := m.flushLocked(tr, vh, st)
		cost = simnet.Seq(cost, c)
		if ferr != nil {
			return 0, cost, true, ferr
		}
		st.absorb(offset, data)
	}
	m.n.wbCoalesced.Add(1)
	m.meta.drop(de.vpath)
	if st.wbBytes >= m.n.cfg.WriteBackBytes || len(st.spans) > wbMaxSpans {
		c, ferr := m.flushLocked(tr, vh, st)
		cost = simnet.Seq(cost, c)
		if ferr != nil {
			return 0, cost, true, ferr
		}
	}
	return len(data), cost, true, nil
}

// flushLocked ships the buffered spans as one vectored apply through the
// primary (replica fan-out intact) and empties the buffer. Like the NFSv3
// write-back contract, dirty data is dropped on error: the failure surfaces
// to whoever forced the flush — high water, Commit, Close — and is gone.
func (m *Mount) flushLocked(tr *obs.Trace, vh VH, st *stream) (simnet.Cost, error) {
	if len(st.spans) == 0 {
		return 0, nil
	}
	spans := st.spans
	st.spans, st.wbBytes = nil, 0
	sort.Slice(spans, func(i, j int) bool { return spans[i].Offset < spans[j].Offset })
	m.n.wbFlushes.Add(1)
	size := 0
	for _, s := range spans {
		size += len(s.Data)
	}
	var vp string
	cost, err := m.withFailover(tr, vh, func(de *ventry) (simnet.Cost, error) {
		_, _, c, aerr := m.n.apply(tr, de.site(), FSOp{Kind: FSWriteV, Path: de.physPath, Spans: spans})
		if aerr == nil {
			vp = de.vpath
			if de.node == m.n.addr {
				c = simnet.Seq(c, loopbackXfer(size))
			}
		}
		return c, aerr
	})
	// apply is synchronous and copied the spans into its request frame, so
	// their buffers are free again whatever the outcome.
	for _, s := range spans {
		if cap(s.Data) > cap(st.spare) {
			st.spare = s.Data[:0]
		}
	}
	if vp != "" {
		m.meta.drop(vp)
	}
	return cost, err
}

// flushVH flushes the handle's write-back buffer if one exists. A no-op
// (zero cost) under write-through or when the handle holds no dirty data.
func (m *Mount) flushVH(tr *obs.Trace, vh VH) (simnet.Cost, error) {
	if m.n.cfg.WriteBackBytes <= 0 {
		return 0, nil
	}
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
	cost, err := m.flushVH(o.tr, vh)
	m.cancelStream(vh)
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
	if m.n.cfg.WriteBackBytes <= 0 {
		return 0, nil
	}
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
