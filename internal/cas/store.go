package cas

import (
	"bytes"
	"sort"
	"sync"

	"repro/internal/localfs"
	"repro/internal/obs"
)

// blockLoc is one place on the local store where a chunk's bytes live: a
// byte range of an indexed file.
type blockLoc struct {
	path string
	off  int64
}

type block struct {
	length uint32
	refs   int
	locs   []blockLoc
}

// StoreStats summarizes the index for the dedup experiment: LogicalBytes is
// the sum over all references (what the node would store without dedup),
// UniqueBytes the sum over distinct blocks.
type StoreStats struct {
	Blocks       int
	Files        int
	UniqueBytes  int64
	LogicalBytes int64
}

// Store is a reference-counted content-addressed block index layered over a
// node's localfs store. It records, per chunk hash, which byte ranges of
// which indexed files hold those bytes, so a pull resolves the chunks its
// stale copy already holds locally and a holder serves CHUNK_FETCH. The
// index deliberately does not own storage: primary and replica trees stay
// plain full-byte mirrors the NFS path (and the chaos convergence oracle)
// can read directly, and "dedup" is network dedup plus the stored-vs-logical
// accounting the experiment reports. Dropping the last reference to a block
// garbage-collects its index entry.
//
// Lock order: methods take only the index mutex and never call into the
// filesystem while holding it — the localfs mutation hook calls back into
// this index under the store lock, so Get copies its locations out before
// reading.
type Store struct {
	fs localfs.FileSystem

	mu      sync.Mutex
	blocks  map[Hash]*block
	files   map[string]Manifest
	unique  int64
	logical int64

	stored  *obs.Counter // distinct blocks first indexed
	deduped *obs.Counter // references that hit an already-indexed block
	gcBytes *obs.Counter // bytes of blocks dropped at zero references
}

// NewStore builds an empty index over fs. reg may be nil (oracle use).
func NewStore(fs localfs.FileSystem, reg *obs.Registry) *Store {
	s := &Store{
		fs:     fs,
		blocks: make(map[Hash]*block),
		files:  make(map[string]Manifest),
	}
	if reg != nil {
		s.stored = reg.Counter("repl.cas.blocks.stored")
		s.deduped = reg.Counter("repl.cas.blocks.deduped")
		s.gcBytes = reg.Counter("repl.cas.bytes.gc")
	}
	return s
}

func count(c *obs.Counter, n uint64) {
	if c != nil && n > 0 {
		c.Add(n)
	}
}

// AddFile (re)indexes path as manifest m, replacing any previous entry for
// the path. Safe to call from the merkle cache's compute path.
func (s *Store) AddFile(path string, m Manifest) {
	path = localfs.CleanPath(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.files[path]; ok && old.Equal(m) {
		return
	}
	s.dropLocked(path)
	var off int64
	for _, c := range m {
		b := s.blocks[c.Hash]
		if b == nil {
			b = &block{length: c.Len}
			s.blocks[c.Hash] = b
			s.unique += int64(c.Len)
			count(s.stored, 1)
		} else {
			count(s.deduped, 1)
		}
		b.refs++
		b.locs = append(b.locs, blockLoc{path: path, off: off})
		s.logical += int64(c.Len)
		off += int64(c.Len)
	}
	s.files[path] = m
}

// Forget drops the index entry for one file, releasing its block references
// (zero-reference blocks are garbage-collected).
func (s *Store) Forget(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(localfs.CleanPath(path))
}

// ForgetTree drops p and every indexed file under it. This is the
// invalidation hook: merkle invalidations (driven by the store's mutation
// notifier) forward here, so writes and removes release references
// immediately. It keeps nothing of p, which a mutation hook is only lent.
func (s *Store) ForgetTree(p string) {
	p = localfs.CleanPath(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == "/" {
		s.resetLocked()
		return
	}
	for f := range s.files {
		if localfs.InTree(f, p) {
			s.dropLocked(f)
		}
	}
}

// Reset clears the index without GC accounting (node revival).
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks = make(map[Hash]*block)
	s.files = make(map[string]Manifest)
	s.unique, s.logical = 0, 0
}

func (s *Store) resetLocked() {
	var dropped int64
	for _, b := range s.blocks {
		dropped += int64(b.length)
	}
	count(s.gcBytes, uint64(dropped))
	s.blocks = make(map[Hash]*block)
	s.files = make(map[string]Manifest)
	s.unique, s.logical = 0, 0
}

func (s *Store) dropLocked(path string) {
	m, ok := s.files[path]
	if !ok {
		return
	}
	delete(s.files, path)
	var off int64
	for _, c := range m {
		b := s.blocks[c.Hash]
		if b != nil {
			b.refs--
			for i, l := range b.locs {
				if l.path == path && l.off == off {
					b.locs = append(b.locs[:i], b.locs[i+1:]...)
					break
				}
			}
			s.logical -= int64(c.Len)
			if b.refs <= 0 {
				delete(s.blocks, c.Hash)
				s.unique -= int64(c.Len)
				count(s.gcBytes, uint64(c.Len))
			}
		}
		off += int64(c.Len)
	}
}

// Has reports whether the index holds a verified-or-not location for h.
func (s *Store) Has(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks[h] != nil
}

// Get returns the bytes of block h if some indexed file still holds them.
// Every candidate location is re-read and hash-verified — files mutate
// underneath the index between invalidation and re-digest, so a location is
// a hint, not a promise. Stale locations are pruned as a side effect. The
// index mutex is released before any filesystem read (see the lock-order
// note on Store).
func (s *Store) Get(h Hash) ([]byte, bool) {
	s.mu.Lock()
	b := s.blocks[h]
	if b == nil {
		s.mu.Unlock()
		return nil, false
	}
	length := b.length
	locs := append([]blockLoc(nil), b.locs...)
	s.mu.Unlock()

	var stale []blockLoc
	for _, l := range locs {
		attr, err := s.fs.LookupPath(l.path)
		if err != nil || attr.Type != localfs.TypeRegular || attr.Size < l.off+int64(length) {
			stale = append(stale, l)
			continue
		}
		data, _, _, err := s.fs.Read(attr.Ino, l.off, int(length))
		if err != nil || len(data) != int(length) || SumChunk(data) != h {
			stale = append(stale, l)
			continue
		}
		if len(stale) > 0 {
			s.pruneStale(h, stale)
		}
		return data, true
	}
	if len(stale) > 0 {
		s.pruneStale(h, stale)
	}
	return nil, false
}

// pruneStale removes locations that failed verification. References are NOT
// released — the refcount tracks manifest references, and those manifests
// are still indexed; only the address was stale.
func (s *Store) pruneStale(h Hash, stale []blockLoc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[h]
	if b == nil {
		return
	}
	for _, sl := range stale {
		for i, l := range b.locs {
			if l == sl {
				b.locs = append(b.locs[:i], b.locs[i+1:]...)
				break
			}
		}
	}
}

// VerifySample re-reads and hash-verifies up to n indexed blocks, resuming
// after cursor in ascending hash order and wrapping past the end. Each
// check goes through Get, so stale locations are pruned as a side effect; a
// block left with no verifiable location counts as bad (the caller decides
// whether to repair or forget it). The walk order is a pure function of the
// index contents, keeping scrub rounds seed-deterministic. Returns the
// cursor for the next round and the per-round counts.
func (s *Store) VerifySample(cursor Hash, n int) (next Hash, checked, bad int) {
	if n <= 0 {
		return cursor, 0, 0
	}
	s.mu.Lock()
	hs := make([]Hash, 0, len(s.blocks))
	for h := range s.blocks {
		hs = append(hs, h)
	}
	s.mu.Unlock()
	if len(hs) == 0 {
		return Hash{}, 0, 0
	}
	sort.Slice(hs, func(i, j int) bool { return bytes.Compare(hs[i][:], hs[j][:]) < 0 })
	start := sort.Search(len(hs), func(i int) bool { return bytes.Compare(hs[i][:], cursor[:]) > 0 })
	if n > len(hs) {
		n = len(hs)
	}
	for i := 0; i < n; i++ {
		h := hs[(start+i)%len(hs)]
		next = h
		checked++
		if _, ok := s.Get(h); !ok {
			bad++
		}
	}
	return next, checked, bad
}

// Stats snapshots the index accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Blocks:       len(s.blocks),
		Files:        len(s.files),
		UniqueBytes:  s.unique,
		LogicalBytes: s.logical,
	}
}
