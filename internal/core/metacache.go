package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/localfs"
)

// metaRow is what the cache holds for one virtual path, as get returns it:
// the path's attributes and, once a LOOKUP or READDIRPLUS reply has
// described it as a directory's child, its resolved handle-table row.
type metaRow struct {
	attr localfs.Attr
	ve   ventry
}

// A path's row is kept in two halves, each within the 128 bytes a Go map
// stores in place, so recording a new path allocates nothing of its own:
// attrRow, which every row has, and nameRow, which only a row a reply has
// resolved has. An attrRow holds the attributes as the wire carries them
// (nfs.PutAttr's ten fields, the times as Unix nanoseconds), which is all a
// reply ever holds, so attr gives back what the reply decoded to. A nameRow
// points at the resolved row rather than holding a copy: the row the handle
// table holds for the handle the same reply made, which nothing changes once
// published. Times are offsets from the cache's epoch; stamp is the
// generation that recorded the attributes.
type (
	attrRow struct {
		ino                   uint64
		size                  int64
		atime, mtime, ctime   int64
		typ                   localfs.FileType
		mode, nlink, uid, gid uint32
		at                    time.Duration
		stamp                 uint64
	}
	nameRow struct {
		ve *ventry
		at time.Duration
	}
)

func newAttrRow(a localfs.Attr, at time.Duration, stamp uint64) attrRow {
	return attrRow{
		ino: a.Ino, size: a.Size,
		atime: a.Atime.UnixNano(), mtime: a.Mtime.UnixNano(), ctime: a.Ctime.UnixNano(),
		typ: a.Type, mode: a.Mode, nlink: a.Nlink, uid: a.UID, gid: a.GID,
		at: at, stamp: stamp,
	}
}

// attr is the row's attributes as nfs.GetAttr decodes them.
func (r *attrRow) attr() localfs.Attr {
	return localfs.Attr{
		Ino: r.ino, Type: r.typ, Mode: r.mode, Nlink: r.nlink, UID: r.uid, GID: r.gid,
		Size:  r.size,
		Atime: time.Unix(0, r.atime), Mtime: time.Unix(0, r.mtime), Ctime: time.Unix(0, r.ctime),
	}
}

// mcShards is the shard count of the metadata cache; selection is an FNV-1a
// hash of the virtual path masked by (mcShards-1), so it must be a power of
// two.
const mcShards = 16

// mcShard holds one shard's rows behind one mutex, and the generation of the
// last invalidation of any path that hashes to it.
type mcShard struct {
	mu      sync.Mutex
	attrs   map[string]attrRow // virtual path -> its cached attributes
	names   map[string]nameRow // virtual path -> its resolved row, for some attrs keys
	dropped uint64
}

// metaCache is the sharded client-side metadata cache, modeling the kernel
// NFS client's attribute cache and dnlc that the paper's overhead numbers
// rely on (Section 6.1). It keeps one row per path, so whatever invalidates
// a path's attributes — a namespace mutation, failover — takes the cached
// name with them: a name is served only beside attributes that are still
// fresh, and a miss is an ordinary LOOKUP, which brings both. A mutation's
// reply carries the target's post-op attributes, which the mount records in
// place of dropping the row.
//
// Replies land in any order, so every recording is guarded, as the Linux
// client guards its inode with attr_gencount: the caller samples the cache's
// generation before its RPC, every recording and every invalidation takes a
// newer one, and a reply is recorded only if nothing took one for its path
// since the sample (for an invalidation, for any path in the same shard). A
// reply that loses drops the row instead, since it may be newer than what
// the row holds.
//
// below counts, for every directory path with cached rows strictly beneath
// it, how many there are, keyed by the path's 64-bit FNV-1a hash (dirHash),
// so invalidating a name that has nothing cached below it touches that
// name's row alone and only a populated subtree is swept. Directories whose
// hashes collide share one count, which then reads as a populated subtree
// for each: a sweep too many, never one too few. A hash keeps no path, so a
// row is counted in and out by whatever bytes name it. Sharding by path
// hash keeps probes for different files off one global mutex; the TTL clock
// is a field so tests can warp time per mount. bmu is taken inside a
// shard's mutex, never the other way round.
type metaCache struct {
	attrTTL, nameTTL time.Duration // <= 0: nothing is cached / no names are
	now              func() time.Time
	epoch            time.Time // what a row's times are offsets from
	gen              atomic.Uint64
	shards           [mcShards]mcShard

	bmu   sync.Mutex
	below map[uint64]int32
}

func (c *metaCache) init(attrTTL, nameTTL time.Duration) {
	c.attrTTL, c.nameTTL, c.now = attrTTL, nameTTL, time.Now
	c.epoch = c.now()
	c.below = make(map[uint64]int32)
}

func (c *metaCache) shard(vpath string) *mcShard { return &c.shards[shardOf(vpath)] }

// shardOf is the FNV-1a hash of a path, masked to a shard index.
func shardOf[P string | []byte](vpath P) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(vpath); i++ {
		h ^= uint32(vpath[i])
		h *= prime32
	}
	return int(h & (mcShards - 1))
}

// sample returns the generation a reply to an RPC sent from now on is
// recorded against (put).
func (c *metaCache) sample() uint64 { return c.gen.Load() }

// clock returns the cache's time, an offset from its epoch.
func (c *metaCache) clock() time.Duration { return c.now().Sub(c.epoch) }

// put records a path's attributes, and with a non-nil ve the resolved child
// they came with, from a reply to an RPC sent after sample returned since.
// The cache keeps ve itself, so it must be a row nothing changes: one the
// caller publishes in the handle table, or one resolved returned.
func (c *metaCache) put(vpath string, a localfs.Attr, ve *ventry, since uint64) {
	if c.attrTTL <= 0 {
		return
	}
	now := c.clock()
	s := c.shard(vpath)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.attrs[vpath]
	if s.dropped > since || ok && r.stamp > since {
		if ok {
			removeRow(c, s, vpath)
		}
		s.dropped = c.gen.Add(1)
		return
	}
	if !ok {
		countBelow(c, vpath, 1)
	}
	if s.attrs == nil { // a shard's maps are made by its first row
		s.attrs = make(map[string]attrRow)
	}
	s.attrs[vpath] = newAttrRow(a, now, c.gen.Add(1))
	if ve != nil && c.nameTTL > 0 {
		if s.names == nil {
			s.names = make(map[string]nameRow)
		}
		s.names[vpath] = nameRow{ve: ve, at: now}
	}
}

// get returns the row cached for a path while its attributes are fresh; a
// row found stale is dropped whole. With name set it is a probe of the name
// cache and the resolved child must be cached and fresh as well.
func (c *metaCache) get(vpath string, name bool) (metaRow, bool) {
	if c.attrTTL <= 0 {
		return metaRow{}, false
	}
	now := c.clock()
	s := c.shard(vpath)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.attrs[vpath]
	var row metaRow
	switch {
	case !ok:
	case now-r.at > c.attrTTL:
		removeRow(c, s, vpath)
		ok = false
	case name:
		n, named := s.names[vpath]
		if ok = named && now-n.at <= c.nameTTL; ok {
			row.ve = *n.ve
		}
	}
	if ok {
		row.attr = r.attr()
	}
	return row, ok
}

// resolved returns a row equal to ve for put to keep, for a reply that
// resolved a child without publishing a handle for it (a READDIRPLUS
// pre-warm): the row the cache holds for ve's path when it is equal, so
// warming a name again allocates nothing, or else a copy of ve. It returns
// nil when the cache keeps no names.
func (c *metaCache) resolved(ve *ventry) *ventry {
	if c.nameTTL <= 0 {
		return nil
	}
	s := c.shard(ve.vpath)
	s.mu.Lock()
	n, ok := s.names[ve.vpath]
	s.mu.Unlock()
	if ok && *n.ve == *ve {
		return n.ve
	}
	p := new(ventry)
	*p = *ve
	return p
}

// removeRow deletes the row at vpath, which s holds; the caller holds s.mu.
func removeRow[P string | []byte](c *metaCache, s *mcShard, vpath P) {
	delete(s.attrs, string(vpath))
	delete(s.names, string(vpath))
	countBelow(c, vpath, -1)
}

// FNV-1a, 64 bits: dirHash's offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// dirHash is the key below counts a directory path under.
func dirHash(p []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// countBelow adds d to the rows counted below each of vpath's ancestors but
// the root, hashing the path once: at each separator but the first, the hash
// so far is the hash of the directory that ends there.
func countBelow[P string | []byte](c *metaCache, vpath P, d int32) {
	h := uint64(fnvOffset64)
	c.bmu.Lock()
	for i := 0; i < len(vpath); i++ {
		if vpath[i] == '/' && i > 0 {
			if n := c.below[h] + d; n > 0 {
				c.below[h] = n
			} else {
				delete(c.below, h)
			}
		}
		h = (h ^ uint64(vpath[i])) * fnvPrime64
	}
	c.bmu.Unlock()
}

// drop invalidates everything cached for one path.
func (c *metaCache) drop(vpath string) {
	if c.attrTTL <= 0 {
		return
	}
	s := c.shard(vpath)
	s.mu.Lock()
	if _, ok := s.attrs[vpath]; ok {
		removeRow(c, s, vpath)
	}
	s.dropped = c.gen.Add(1)
	s.mu.Unlock()
}

// caching reports whether put keeps anything, so a caller can skip building
// rows for a mount that caches nothing.
func (c *metaCache) caching() bool { return c.attrTTL > 0 }

// dropUnder invalidates the clean path dir/name and everything below it, or
// dir and everything below it when name is "" (rename, remove and failover
// relocate whole subtrees). It reports whether it had to sweep the shards: a
// path with nothing cached below it costs its own row alone.
func (c *metaCache) dropUnder(dir, name string) (swept bool) {
	if c.attrTTL <= 0 {
		return false
	}
	var buf [256]byte
	p := append(buf[:0], dir...)
	if name != "" {
		if dir != "/" {
			p = append(p, '/')
		}
		p = append(p, name...)
	}
	s := &c.shards[shardOf(p)]
	s.mu.Lock()
	if _, ok := s.attrs[string(p)]; ok {
		removeRow(c, s, p)
	}
	s.dropped = c.gen.Add(1)
	s.mu.Unlock()
	return c.sweepBelow(p)
}

// dropBelow invalidates everything cached strictly below the clean path
// vpath.
func (c *metaCache) dropBelow(vpath string) {
	if c.attrTTL <= 0 {
		return
	}
	var buf [256]byte
	c.sweepBelow(append(buf[:0], vpath...))
}

// sweepBelow removes every row strictly below the clean path p, visiting
// the rows only when below counts some, and reports whether it did. Paths
// below p that nothing caches may have replies in flight, so each shard is
// stamped as it is swept.
func (c *metaCache) sweepBelow(p []byte) (swept bool) {
	if len(p) > 1 {
		c.bmu.Lock()
		n := c.below[dirHash(p)]
		c.bmu.Unlock()
		if n == 0 {
			return false
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for q := range s.attrs {
			if strictlyUnder(q, p) {
				removeRow(c, s, q)
			}
		}
		s.dropped = c.gen.Add(1)
		s.mu.Unlock()
	}
	return true
}

// strictlyUnder reports whether the clean path q lies below the clean path
// p.
func strictlyUnder(q string, p []byte) bool {
	if len(p) == 1 { // the root
		return len(q) > 1
	}
	return len(q) > len(p) && q[len(p)] == '/' && q[:len(p)] == string(p)
}
