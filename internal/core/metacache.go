package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/localfs"
)

// metaRow is everything a mount caches about one virtual path: its
// attributes and, once a LOOKUP or READDIRPLUS reply has described it as a
// directory's child, its resolved handle-table row. A row always holds
// attributes; nameAt is the zero time until a reply fills ve. key is the
// row's own map key, so a row found by a path built in scratch is removed by
// a string the cache already holds; stamp is the generation that recorded
// it.
type metaRow struct {
	attr   localfs.Attr
	at     time.Time
	ve     ventry
	nameAt time.Time
	key    string
	stamp  uint64
}

// mcShards is the shard count of the metadata cache; selection is an FNV-1a
// hash of the virtual path masked by (mcShards-1), so it must be a power of
// two.
const mcShards = 16

// mcShard holds one shard's rows behind one mutex, and the generation of the
// last invalidation of any path that hashes to it.
type mcShard struct {
	mu      sync.Mutex
	rows    map[string]metaRow // virtual path -> what is cached for it
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
// it, how many there are, keyed by a prefix of one of those rows' keys, so
// invalidating a name that has nothing cached below it touches that name's
// row alone and only a populated subtree is swept. Sharding by path hash
// keeps probes for different files off one global mutex; the TTL clock is a
// field so tests can warp time per mount. bmu is taken inside a shard's
// mutex, never the other way round.
type metaCache struct {
	attrTTL, nameTTL time.Duration // <= 0: nothing is cached / no names are
	now              func() time.Time
	gen              atomic.Uint64
	shards           [mcShards]mcShard

	bmu   sync.Mutex
	below map[string]int32
}

func (c *metaCache) init(attrTTL, nameTTL time.Duration) {
	c.attrTTL, c.nameTTL, c.now = attrTTL, nameTTL, time.Now
	for i := range c.shards {
		c.shards[i].rows = make(map[string]metaRow)
	}
	c.below = make(map[string]int32)
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

// put records a path's attributes, and with a non-nil ve the resolved child
// they came with, from a reply to an RPC sent after sample returned since.
func (c *metaCache) put(vpath string, a localfs.Attr, ve *ventry, since uint64) {
	if c.attrTTL <= 0 {
		return
	}
	now := c.now()
	s := c.shard(vpath)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rows[vpath]
	if s.dropped > since || ok && r.stamp > since {
		if ok {
			c.remove(s, r.key)
		}
		s.dropped = c.gen.Add(1)
		return
	}
	if !ok {
		r.key = vpath
		c.count(vpath, 1)
	}
	r.attr, r.at, r.stamp = a, now, c.gen.Add(1)
	if ve != nil && c.nameTTL > 0 {
		r.ve, r.nameAt = *ve, now
	}
	s.rows[vpath] = r
}

// get returns the row cached for a path while its attributes are fresh; a
// row found stale is dropped whole. With name set it is a probe of the name
// cache and the resolved child must be fresh as well (the zero nameAt of a row
// no reply has filled is older than any TTL).
func (c *metaCache) get(vpath string, name bool) (metaRow, bool) {
	if c.attrTTL <= 0 {
		return metaRow{}, false
	}
	now := c.now()
	s := c.shard(vpath)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rows[vpath]
	switch {
	case !ok:
	case now.Sub(r.at) > c.attrTTL:
		c.remove(s, r.key)
		ok = false
	case name && now.Sub(r.nameAt) > c.nameTTL:
		ok = false
	}
	return r, ok
}

// remove deletes the row at key, which s holds; the caller holds s.mu.
func (c *metaCache) remove(s *mcShard, key string) {
	delete(s.rows, key)
	c.count(key, -1)
}

// count adds d to the rows counted below each of vpath's ancestors but the
// root.
func (c *metaCache) count(vpath string, d int32) {
	c.bmu.Lock()
	for i := len(vpath) - 1; i > 0; i-- {
		if vpath[i] != '/' {
			continue
		}
		k := vpath[:i]
		if n := c.below[k] + d; n > 0 {
			c.below[k] = n
		} else {
			delete(c.below, k)
		}
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
	if r, ok := s.rows[vpath]; ok {
		c.remove(s, r.key)
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
	if r, ok := s.rows[string(p)]; ok {
		c.remove(s, r.key)
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
		n := c.below[string(p)]
		c.bmu.Unlock()
		if n == 0 {
			return false
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for q := range s.rows {
			if strictlyUnder(q, p) {
				c.remove(s, q)
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
