package core

import (
	"strings"
	"sync"
	"time"

	"repro/internal/localfs"
)

// metaRow is everything a mount caches about one virtual path: its
// attributes and, once a LOOKUP or READDIRPLUS reply has described it as a
// directory's child, its resolved handle-table row. A row always holds
// attributes; nameAt is the zero time until a reply fills ve.
type metaRow struct {
	attr   localfs.Attr
	at     time.Time
	ve     ventry
	nameAt time.Time
}

// mcShards is the shard count of the metadata cache; selection is an FNV-1a
// hash of the virtual path masked by (mcShards-1), so it must be a power of
// two.
const mcShards = 16

// mcShard holds one shard's rows behind one mutex.
type mcShard struct {
	mu   sync.Mutex
	rows map[string]metaRow // virtual path -> what is cached for it
}

// metaCache is the sharded client-side metadata cache, modeling the kernel
// NFS client's attribute cache and dnlc that the paper's overhead numbers
// rely on (Section 6.1). It keeps one row per path, so whatever invalidates
// a path's attributes — every mutating op and failover, write-through —
// takes the cached name with them: a name is served only beside attributes
// that are still fresh, and a miss is an ordinary LOOKUP, which brings both.
// Sharding by path hash keeps probes for different files off one global
// mutex; the TTL clock is a field so tests can warp time per mount.
type metaCache struct {
	attrTTL, nameTTL time.Duration // <= 0: nothing is cached / no names are
	now              func() time.Time
	shards           [mcShards]mcShard
}

func (c *metaCache) init(attrTTL, nameTTL time.Duration) {
	c.attrTTL, c.nameTTL, c.now = attrTTL, nameTTL, time.Now
	for i := range c.shards {
		c.shards[i].rows = make(map[string]metaRow)
	}
}

func (c *metaCache) shard(vpath string) *mcShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(vpath); i++ {
		h ^= uint32(vpath[i])
		h *= prime32
	}
	return &c.shards[h&(mcShards-1)]
}

// put records a path's attributes, and with a non-nil ve the resolved child
// they came with.
func (c *metaCache) put(vpath string, a localfs.Attr, ve *ventry) {
	if c.attrTTL <= 0 {
		return
	}
	now := c.now()
	s := c.shard(vpath)
	s.mu.Lock()
	r := s.rows[vpath]
	r.attr, r.at = a, now
	if ve != nil && c.nameTTL > 0 {
		r.ve, r.nameAt = *ve, now
	}
	s.rows[vpath] = r
	s.mu.Unlock()
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
		delete(s.rows, vpath)
		ok = false
	case name && now.Sub(r.nameAt) > c.nameTTL:
		ok = false
	}
	return r, ok
}

// drop invalidates everything cached for one path.
func (c *metaCache) drop(vpath string) {
	s := c.shard(vpath)
	s.mu.Lock()
	delete(s.rows, vpath)
	s.mu.Unlock()
}

// dropUnder invalidates vpath and everything below it (rename, remove and
// failover relocate whole subtrees). Subtree members hash to arbitrary
// shards, so every shard is swept.
func (c *metaCache) dropUnder(vpath string) {
	prefix := strings.TrimSuffix(vpath, "/") + "/"
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for p := range s.rows {
			if p == vpath || strings.HasPrefix(p, prefix) {
				delete(s.rows, p)
			}
		}
		s.mu.Unlock()
	}
}
