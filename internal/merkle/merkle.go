// Package merkle computes incremental Merkle hash trees over
// localfs.FileSystem subtrees: per-file content digests and per-directory
// digests over the sorted (name, type, child-digest) tuples of the
// directory's entries. Two copies of a hierarchy have equal root digests
// exactly when their structure and contents match, regardless of where in a
// store the copy lives — the digest covers names and bytes, never absolute
// paths, modes, or times — so a primary-path copy and a replica-area copy of
// the same tree compare equal. Replica maintenance (internal/repl) uses the
// digests to walk only mismatching directory nodes and pull only changed
// files, turning a full-tree copy into an O(changed + depth) delta.
//
// A Cache memoizes digests per path and invalidates the affected path, its
// ancestors, and its descendants whenever the underlying store reports a
// mutation (localfs.MutationNotifier), so the common steady-state question
// "has anything under this root changed?" is answered without re-hashing.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"path"
	"sync"

	"repro/internal/cas"
	"repro/internal/localfs"
)

// DigestLen is the byte length of a digest (SHA-256).
const DigestLen = 32

// Digest is a content-structural SHA-256 digest of a file, symlink, or
// directory subtree.
type Digest [DigestLen]byte

// IsZero reports whether the digest is the zero value (no digest computed).
func (d Digest) IsZero() bool { return d == Digest{} }

// Domain-separation prefixes keyed by entry type, so a file whose contents
// happen to spell a directory listing can never collide with that directory.
func typeByte(t localfs.FileType) byte {
	switch t {
	case localfs.TypeDir:
		return 'd'
	case localfs.TypeSymlink:
		return 'l'
	default:
		return 'f'
	}
}

// FileDigest hashes a regular file's contents. Since the chunk-store
// refactor the digest is derived from the file's chunk manifest rather than
// the raw byte stream, so the manifest is the digest's leaf level: equal
// digests imply equal manifests, and a file-level digest mismatch hands the
// sync protocol a manifest it can diff block by block.
func FileDigest(data []byte) Digest {
	return ManifestDigest(cas.Split(data))
}

// ManifestDigest hashes a file's chunk manifest: the ordered (hash, length)
// pairs under the regular-file domain byte. Two files have equal digests
// exactly when their chunk decompositions — and therefore their bytes —
// are identical.
func ManifestDigest(m cas.Manifest) Digest {
	h := sha256.New()
	h.Write([]byte{typeByte(localfs.TypeRegular)})
	var lenBuf [4]byte
	for _, c := range m {
		h.Write(c.Hash[:])
		binary.BigEndian.PutUint32(lenBuf[:], c.Len)
		h.Write(lenBuf[:])
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// SymlinkDigest hashes a symlink's target.
func SymlinkDigest(target string) Digest {
	h := sha256.New()
	h.Write([]byte{typeByte(localfs.TypeSymlink)})
	h.Write([]byte(target))
	var d Digest
	h.Sum(d[:0])
	return d
}

// DirDigest hashes a directory from its children's (name, type, digest)
// tuples; entries must be in sorted name order (localfs Readdir order).
func DirDigest(entries []Entry) Digest {
	h := sha256.New()
	h.Write([]byte{typeByte(localfs.TypeDir)})
	var lenBuf [4]byte
	for _, ent := range entries {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(ent.Name)))
		h.Write(lenBuf[:])
		h.Write([]byte(ent.Name))
		h.Write([]byte{typeByte(ent.Type)})
		h.Write(ent.Digest[:])
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Entry is one directory child with its subtree digest: the unit of the
// digest-exchange protocol (a directory's delta walk compares entry lists).
type Entry struct {
	Name   string
	Type   localfs.FileType
	Digest Digest
}

// Cache computes subtree digests over one store, memoizing per path. When
// the store implements localfs.MutationNotifier the memo is invalidated
// automatically on every mutation; otherwise memoization is disabled and
// every call recomputes (correct, just slower).
type Cache struct {
	fs      localfs.FileSystem
	caching bool
	store   *cas.Store // optional: fed every computed manifest, invalidated in step

	mu        sync.Mutex
	memo      map[string]Digest
	manifests map[string]cas.Manifest
	gen       uint64 // bumped on every invalidation; guards stale memoization
}

// NewCache builds a digest cache over fs, subscribing to its mutation
// notifications when available.
func NewCache(fs localfs.FileSystem) *Cache {
	c := &Cache{fs: fs, memo: make(map[string]Digest), manifests: make(map[string]cas.Manifest)}
	if n, ok := fs.(localfs.MutationNotifier); ok {
		c.caching = true
		n.OnMutation(c.Invalidate)
	}
	return c
}

// NewCacheWithStore is NewCache plus a content-addressed block index kept in
// lockstep: every manifest the cache computes is registered with store, and
// every invalidation forgets the affected subtree there, so the index's
// HAVE answers track the digests the node serves.
func NewCacheWithStore(fs localfs.FileSystem, store *cas.Store) *Cache {
	c := NewCache(fs)
	c.store = store
	return c
}

// Invalidate drops memoized digests for p, every ancestor of p (their
// directory digests embed p's), and every descendant (p may have been
// removed or renamed wholesale). Safe to call from a store's mutation hook:
// it takes only the cache's own mutex and never calls back into the store.
// It keeps nothing of p, only deletes by it, so the path a store lends its
// hooks (localfs.MutationNotifier) needs no copy.
func (c *Cache) Invalidate(p string) {
	p = localfs.CleanPath(p)
	if c.store != nil {
		// The block index only holds regular files, so ancestors need no
		// forgetting there — just p and its descendants. ForgetTree takes
		// only the index mutex (see the cas.Store lock-order note).
		c.store.ForgetTree(p)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if len(c.memo) == 0 && len(c.manifests) == 0 {
		return
	}
	delete(c.memo, p)
	delete(c.manifests, p)
	for dir := p; dir != "/"; {
		dir = path.Dir(dir)
		delete(c.memo, dir)
	}
	for k := range c.memo {
		if localfs.InTree(k, p) {
			delete(c.memo, k)
		}
	}
	for k := range c.manifests {
		if localfs.InTree(k, p) {
			delete(c.manifests, k)
		}
	}
}

// DigestOf returns the subtree digest at path p, computing (and memoizing)
// as needed. The cache mutex is never held across store calls — the store's
// mutation hook runs under the store's own lock and takes the cache mutex,
// so holding both here in the opposite order would deadlock. A generation
// counter discards computations that raced a mutation instead.
func (c *Cache) DigestOf(p string) (Digest, error) {
	p = localfs.CleanPath(p)
	var gen uint64
	if c.caching {
		c.mu.Lock()
		if d, ok := c.memo[p]; ok {
			c.mu.Unlock()
			return d, nil
		}
		gen = c.gen
		c.mu.Unlock()
	}
	attr, err := c.fs.LookupPath(p)
	if err != nil {
		return Digest{}, err
	}
	d, err := c.compute(p, attr)
	if err != nil {
		return Digest{}, err
	}
	if c.caching {
		c.mu.Lock()
		if c.gen == gen {
			c.memo[p] = d
		}
		c.mu.Unlock()
	}
	return d, nil
}

// compute hashes one node, recursing through DigestOf for directory children
// so every level is memoized independently.
func (c *Cache) compute(p string, attr localfs.Attr) (Digest, error) {
	switch attr.Type {
	case localfs.TypeSymlink:
		target, _, err := c.fs.Readlink(attr.Ino)
		if err != nil {
			return Digest{}, err
		}
		return SymlinkDigest(target), nil
	case localfs.TypeDir:
		ents, _, err := c.fs.Readdir(attr.Ino)
		if err != nil {
			return Digest{}, err
		}
		list := make([]Entry, 0, len(ents))
		for _, ent := range ents {
			cd, err := c.DigestOf(childPath(p, ent.Name))
			if err != nil {
				return Digest{}, err
			}
			list = append(list, Entry{Name: ent.Name, Type: ent.Type, Digest: cd})
		}
		return DirDigest(list), nil
	default:
		m, err := c.ManifestOf(p)
		if err != nil {
			return Digest{}, err
		}
		return ManifestDigest(m), nil
	}
}

// ManifestOf returns the chunk manifest of the regular file at p, computing
// (and memoizing) as needed. Computing a manifest also registers it with the
// attached block index, so serving a digest for a file doubles as indexing
// its blocks for later HAVE/CHUNK_FETCH queries. Same locking discipline as
// DigestOf: the cache mutex is never held across store calls.
func (c *Cache) ManifestOf(p string) (cas.Manifest, error) {
	p = localfs.CleanPath(p)
	var gen uint64
	if c.caching {
		c.mu.Lock()
		if m, ok := c.manifests[p]; ok {
			c.mu.Unlock()
			return m, nil
		}
		gen = c.gen
		c.mu.Unlock()
	}
	data, err := c.fs.ReadFile(p)
	if err != nil {
		return nil, err
	}
	m := cas.Split(data)
	fresh := true
	if c.caching {
		c.mu.Lock()
		if c.gen == gen {
			c.manifests[p] = m
		} else {
			fresh = false
		}
		c.mu.Unlock()
	}
	if fresh && c.store != nil {
		c.store.AddFile(p, m)
	}
	return m, nil
}

// CachedManifest returns the memoized manifest for p without recomputing.
// This is what replication *believes* the file holds: the anti-entropy
// scrub compares it against a fresh re-chunk of the actual bytes, so silent
// corruption (which fires no mutation notification and therefore never
// invalidates the memo) becomes detectable.
func (c *Cache) CachedManifest(p string) (cas.Manifest, bool) {
	p = localfs.CleanPath(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.manifests[p]
	return m, ok
}

// Entries lists the immediate children of a directory with their subtree
// digests, in sorted name order. ok is false when p does not exist or is not
// a directory.
func (c *Cache) Entries(p string) ([]Entry, bool, error) {
	p = localfs.CleanPath(p)
	attr, err := c.fs.LookupPath(p)
	if err != nil || attr.Type != localfs.TypeDir {
		return nil, false, nil
	}
	ents, _, err := c.fs.Readdir(attr.Ino)
	if err != nil {
		return nil, false, nil
	}
	list := make([]Entry, 0, len(ents))
	for _, ent := range ents {
		cd, err := c.DigestOf(childPath(p, ent.Name))
		if err != nil {
			return nil, false, err
		}
		list = append(list, Entry{Name: ent.Name, Type: ent.Type, Digest: cd})
	}
	return list, true, nil
}

func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// DigestPath computes the subtree digest at p without any caching — the
// oracle-side primitive for tests and the chaos convergence checker.
func DigestPath(fs localfs.FileSystem, p string) (Digest, error) {
	return (&Cache{fs: fs}).DigestOf(p)
}
