package repl

import (
	"errors"
	"path"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// PushChunk bounds the inline payload of a single mirrored write, so
// arbitrarily large files sync with bounded memory on both ends. The
// client-side readahead window moves chunks of this size too.
const PushChunk = 1 << 20

// deltaPush brings target's copy of the subtree (remote, already digested)
// up to date with the local copy at src, shipping only changed files and
// deletions. The migration flag is written at the hierarchy root first and
// removed only after the walk completes (Section 4.4); the tree underneath
// is edited in place, never removed wholesale, so the remote copy stays
// readable throughout.
func (e *Engine) deltaPush(tc obs.TraceContext, target simnet.Addr, t Track, src string, primary bool, remote TreeDigest) (simnet.Cost, error) {
	var total simnet.Cost
	dst := remoteTree{e: e, tc: tc, addr: target, t: t, primary: primary, cost: &total}
	flag := path.Join(t.Root, MigrationFlag)
	if !remote.Exists {
		if err := dst.apply(FSOp{Kind: FSMkdirAll, Path: t.Root}); err != nil {
			return total, err
		}
	}
	if err := dst.apply(FSOp{Kind: FSWriteFile, Path: flag}); err != nil {
		return total, err
	}
	w := walk{e: e, src: localTree{e}, dst: dst, root: t.Root, push: true,
		file: func(s, d string) error { return e.sendFile(dst, s, d) }}
	if err := w.reconcile(src, t.Root); err != nil {
		return total, err
	}
	err := dst.apply(FSOp{Kind: FSRemove, Path: flag})
	return total, err
}

// sendFile ships one regular file whose digest mismatched, negotiated at
// the block level: the local manifest's hashes are offered as a WANT list,
// the receiver answers which blocks its content-addressed index already
// holds (indexing its stale copy of this very file in the process), and
// only the missing chunks travel inline — a 1-changed-chunk file ships ~one
// chunk.
func (e *Engine) sendFile(r remoteTree, lsrc, ldst string) error {
	attr, err := e.store.LookupPath(lsrc)
	if err != nil {
		return err
	}
	man, err := e.mk.ManifestOf(lsrc)
	if err != nil {
		return err
	}
	_, exists, have, c, err := e.peer.ChunkManifest(r.tc, r.addr, r.phys(ldst), man.Hashes())
	r.add(c)
	if err != nil {
		// A failed negotiation fails the push like any other transport
		// error in the walk: the migration flag stays armed and the next
		// round redoes the push (Section 4.4).
		return err
	}
	if !exists {
		if err := r.apply(FSOp{Kind: FSCreate, Path: ldst, Mode: attr.Mode}); err != nil {
			return err
		}
	}

	// Walk the manifest accumulating contiguous spans of chunks; each span
	// becomes one FSChunkWrite whose inline payload is bounded by PushChunk
	// and whose covered range is bounded by spanBytes, so memory stays
	// bounded on both ends regardless of file size.
	const spanBytes = 4 << 20
	var (
		refs      []ChunkRef
		data      []byte
		spanStart int64
		spanLen   int64
		off       int64
	)
	flush := func() error {
		if len(refs) == 0 {
			return nil
		}
		op := FSOp{Kind: FSChunkWrite, Path: ldst, Offset: spanStart, Chunks: refs, Data: data}
		if err := r.apply(op); err != nil {
			// The receiver could not resolve a reference it promised (its
			// copy mutated between negotiation and apply): re-ship the span
			// verbatim. A transport failure fails the retry as well.
			raw, rerr := e.readRange(attr.Ino, spanStart, spanLen)
			if rerr != nil {
				return err
			}
			if err := r.apply(FSOp{Kind: FSWrite, Path: ldst, Offset: spanStart, Data: raw}); err != nil {
				return err
			}
			e.syncBytes.Add(uint64(len(raw)))
		} else {
			e.syncBytes.Add(uint64(len(data)))
		}
		refs, data = nil, nil
		spanStart, spanLen = off, 0
		return nil
	}
	for i, ch := range man {
		inline := i >= len(have) || !have[i]
		if inline {
			b, err := e.readRange(attr.Ino, off, int64(ch.Len))
			if err != nil {
				return err
			}
			if len(data)+len(b) > PushChunk {
				if err := flush(); err != nil {
					return err
				}
			}
			data = append(data, b...)
		} else if spanLen >= spanBytes {
			if err := flush(); err != nil {
				return err
			}
		}
		refs = append(refs, ChunkRef{Hash: ch.Hash, Len: ch.Len, Inline: inline})
		off += int64(ch.Len)
		spanLen += int64(ch.Len)
	}
	if err := flush(); err != nil {
		return err
	}
	if exists {
		// The old remote file may extend past the new content: truncate.
		size := man.TotalLen()
		if err := r.apply(FSOp{Kind: FSSetattr, Path: ldst, SetAttr: localfs.SetAttr{Size: &size}}); err != nil {
			return err
		}
	}
	e.syncSent.Add(1)
	return nil
}

// readRange reads exactly [off, off+n) of a local file, straight into one
// buffer of that size.
func (e *Engine) readRange(ino uint64, off, n int64) ([]byte, error) {
	buf, _, _, err := e.store.AppendRead(make([]byte, 0, n), ino, off, int(n), 1)
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) != n {
		return nil, errors.New("repl: short local read")
	}
	return buf, nil
}
