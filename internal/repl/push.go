package repl

import (
	"errors"
	"path"
	"sort"

	"repro/internal/localfs"
	"repro/internal/merkle"
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
	flag := path.Join(t.Root, MigrationFlag)

	add := func(c simnet.Cost) { total = simnet.Seq(total, c) }
	step := func(op FSOp) error {
		c, err := e.peer.Mirror(tc, target, t, op, primary)
		add(c)
		return err
	}

	if !remote.Exists {
		if err := step(FSOp{Kind: FSMkdirAll, Path: t.Root}); err != nil {
			return total, err
		}
	}
	if err := step(FSOp{Kind: FSWriteFile, Path: flag}); err != nil {
		return total, err
	}
	if err := e.syncDir(tc, target, t, src, t.Root, primary, step, add); err != nil {
		return total, err
	}
	err := step(FSOp{Kind: FSRemove, Path: flag})
	return total, err
}

// syncDir reconciles one directory level: it fetches the remote children's
// digests, ships entries whose digest differs (recursing into mismatching
// directories), skips matching subtrees entirely, and deletes remote-only
// entries. localDir is the local source directory, destDir the matching
// primary-relative destination (Mirror translates to the replica area when
// primary is false).
func (e *Engine) syncDir(tc obs.TraceContext, target simnet.Addr, t Track, localDir, destDir string, primary bool, step func(FSOp) error, add func(simnet.Cost)) error {
	queryDir := destDir
	if !primary {
		queryDir = RepPath(destDir)
	}
	remoteEnts, ok, c, err := e.peer.DirDigests(tc, target, queryDir)
	add(c)
	if err != nil {
		return err
	}
	if !ok {
		// Remote side missing or not a directory: (re)create it empty and
		// treat it as having no children. If that clobbered the hierarchy
		// root, re-arm the migration sentinel before copying underneath it.
		if err := step(FSOp{Kind: FSRemoveAll, Path: destDir}); err != nil {
			return err
		}
		if err := step(FSOp{Kind: FSMkdirAll, Path: destDir}); err != nil {
			return err
		}
		if destDir == t.Root {
			if err := step(FSOp{Kind: FSWriteFile, Path: path.Join(t.Root, MigrationFlag)}); err != nil {
				return err
			}
		}
		remoteEnts = nil
	}
	remote := make(map[string]merkle.Entry, len(remoteEnts))
	for _, ent := range remoteEnts {
		remote[ent.Name] = ent
	}
	// The root-level migration flag is protocol state, not content: never
	// shipped, never deleted mid-sync (deltaPush removes it at the end).
	if destDir == t.Root {
		delete(remote, MigrationFlag)
	}

	locals, ok, err := e.mk.Entries(localDir)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	for _, ent := range locals {
		if destDir == t.Root && ent.Name == MigrationFlag {
			continue
		}
		lsrc := joinChild(localDir, ent.Name)
		ldst := joinChild(destDir, ent.Name)
		rem, exists := remote[ent.Name]
		delete(remote, ent.Name)
		if exists && rem.Type == ent.Type && rem.Digest == ent.Digest {
			e.digestHits.Add(1)
			e.syncSkipped.Add(uint64(e.countFiles(lsrc, ent.Type)))
			continue
		}
		if exists {
			e.digestMisses.Add(1)
		}
		switch ent.Type {
		case localfs.TypeDir:
			if exists && rem.Type != localfs.TypeDir {
				if err := step(FSOp{Kind: FSRemoveAll, Path: ldst}); err != nil {
					return err
				}
			}
			if !exists || rem.Type != localfs.TypeDir {
				if err := step(FSOp{Kind: FSMkdirAll, Path: ldst}); err != nil {
					return err
				}
			}
			if err := e.syncDir(tc, target, t, lsrc, ldst, primary, step, add); err != nil {
				return err
			}
		case localfs.TypeSymlink:
			attr, err := e.store.LookupPath(lsrc)
			if err != nil {
				return err
			}
			symTarget, _, err := e.store.Readlink(attr.Ino)
			if err != nil {
				return err
			}
			if exists {
				if err := step(FSOp{Kind: FSRemoveAll, Path: ldst}); err != nil {
					return err
				}
			}
			if err := step(FSOp{Kind: FSSymlink, Path: ldst, Target: symTarget}); err != nil {
				return err
			}
		default:
			if exists && rem.Type != localfs.TypeRegular {
				if err := step(FSOp{Kind: FSRemoveAll, Path: ldst}); err != nil {
					return err
				}
			}
			if err := e.sendFile(tc, target, lsrc, ldst, primary, step, add); err != nil {
				return err
			}
		}
	}
	// Whatever remains on the remote side has no local counterpart: delete,
	// in sorted order so the RPC sequence is deterministic for seed replay.
	staleNames := make([]string, 0, len(remote))
	for name := range remote {
		staleNames = append(staleNames, name)
	}
	sort.Strings(staleNames)
	for _, name := range staleNames {
		if err := step(FSOp{Kind: FSRemoveAll, Path: joinChild(destDir, name)}); err != nil {
			return err
		}
	}
	return nil
}

// sendFile ships one regular file whose digest mismatched, negotiated at
// the block level: the local manifest's hashes are offered as a WANT list,
// the receiver answers which blocks its content-addressed index already
// holds (indexing its stale copy of this very file in the process), and
// only the missing chunks travel inline — a 1-changed-chunk file ships ~one
// chunk.
func (e *Engine) sendFile(tc obs.TraceContext, target simnet.Addr, lsrc, ldst string, primary bool, step func(FSOp) error, add func(simnet.Cost)) error {
	attr, err := e.store.LookupPath(lsrc)
	if err != nil {
		return err
	}
	man, err := e.mk.ManifestOf(lsrc)
	if err != nil {
		return err
	}
	queryPath := ldst
	if !primary {
		queryPath = RepPath(ldst)
	}
	_, exists, have, c, err := e.peer.ChunkManifest(tc, target, queryPath, man.Hashes())
	add(c)
	if err != nil {
		// A failed negotiation fails the push like any other transport
		// error in the walk: the migration flag stays armed and the next
		// round redoes the push (Section 4.4).
		return err
	}
	if !exists {
		if err := step(FSOp{Kind: FSCreate, Path: ldst, Mode: attr.Mode}); err != nil {
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
		if err := step(op); err != nil {
			// The receiver could not resolve a reference it promised (its
			// copy mutated between negotiation and apply): re-ship the span
			// verbatim. A transport failure fails the retry as well.
			raw, rerr := e.readRange(attr.Ino, spanStart, spanLen)
			if rerr != nil {
				return err
			}
			if err := step(FSOp{Kind: FSWrite, Path: ldst, Offset: spanStart, Data: raw}); err != nil {
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
		if err := step(FSOp{Kind: FSSetattr, Path: ldst, SetAttr: localfs.SetAttr{Size: &size}}); err != nil {
			return err
		}
	}
	e.syncSent.Add(1)
	return nil
}

// readRange reads exactly [off, off+n) of a local file, straight into one
// buffer of that size.
func (e *Engine) readRange(ino uint64, off, n int64) ([]byte, error) {
	buf := make([]byte, 0, n)
	for int64(len(buf)) < n {
		had := len(buf)
		var eof bool
		var err error
		buf, eof, _, err = e.store.AppendRead(buf, ino, off+int64(had), int(n-int64(had)))
		if err != nil {
			return nil, err
		}
		if eof || len(buf) == had {
			break
		}
	}
	if int64(len(buf)) != n {
		return nil, errors.New("repl: short local read")
	}
	return buf, nil
}

// countFiles returns the number of regular files under a matched local
// entry, for the files-skipped counter (a local walk only; no traffic).
func (e *Engine) countFiles(p string, typ localfs.FileType) int {
	if typ == localfs.TypeRegular {
		return 1
	}
	if typ != localfs.TypeDir {
		return 0
	}
	n := 0
	e.store.Walk(p, func(_ string, a localfs.Attr, _ string) error {
		if a.Type == localfs.TypeRegular {
			n++
		}
		return nil
	})
	return n
}

func joinChild(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}
