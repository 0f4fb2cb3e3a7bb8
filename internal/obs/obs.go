// Package obs is the observability layer threaded through the Kosha stack:
// a lock-cheap metrics registry (counters, gauges, fixed-bucket latency
// histograms), span-style operation traces kept in a bounded ring buffer,
// and an overlay-health event log. One Registry backs every counter in the
// system — the NFS client's RPC counters, the simulated network's traffic
// counters, and the per-node operation metrics all snapshot from here — so
// experiment harnesses and the koshactl stats surface read one source of
// truth instead of three ad-hoc counter types.
//
// Durations are recorded in simulated time under internal/simnet (the cost
// returned by each operation) and in wall time under internal/tcpnet (the
// daemon sets Config.WallClockStats); the registry itself is agnostic and
// stores nanoseconds.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Standard operation names used as histogram keys ("op.<name>") across the
// stack. Mount-level NFS-shaped operations use the NFSv3 procedure
// vocabulary; overlay and maintenance operations use lower-case names.
const (
	OpLookup    = "LOOKUP"
	OpGetattr   = "GETATTR"
	OpSetattr   = "SETATTR"
	OpRead      = "READ"
	OpWrite     = "WRITE"
	OpCreate    = "CREATE"
	OpMkdir     = "MKDIR"
	OpReaddir   = "READDIRPLUS"
	OpRemove    = "REMOVE"
	OpRmdir     = "RMDIR"
	OpRename    = "RENAME"
	OpSymlink   = "SYMLINK"
	OpReadlink  = "READLINK"
	OpCommit    = "COMMIT"
	OpRoute     = "route"
	OpReplicate = "replicate"
	OpFailover  = "failover"
	OpResync    = "resync"
)

// OpCode is a dense index for the mount-level operations above, letting hot
// paths reach their per-op histogram by array index instead of hashing the
// op name on every call.
type OpCode uint8

// Mount-level operation codes, in the same order as the name constants.
const (
	OpcLookup OpCode = iota
	OpcGetattr
	OpcSetattr
	OpcRead
	OpcWrite
	OpcCreate
	OpcMkdir
	OpcReaddir
	OpcRemove
	OpcRmdir
	OpcRename
	OpcSymlink
	OpcReadlink
	OpcCommit
	OpcCount // number of codes; not an operation
)

var opNames = [OpcCount]string{
	OpcLookup:   OpLookup,
	OpcGetattr:  OpGetattr,
	OpcSetattr:  OpSetattr,
	OpcRead:     OpRead,
	OpcWrite:    OpWrite,
	OpcCreate:   OpCreate,
	OpcMkdir:    OpMkdir,
	OpcReaddir:  OpReaddir,
	OpcRemove:   OpRemove,
	OpcRmdir:    OpRmdir,
	OpcRename:   OpRename,
	OpcSymlink:  OpSymlink,
	OpcReadlink: OpReadlink,
	OpcCommit:   OpCommit,
}

// String returns the operation name used as the histogram key suffix.
func (c OpCode) String() string {
	if c < OpcCount {
		return opNames[c]
	}
	return "unknown"
}

// --- counters and gauges ---

// Counter is a monotonically increasing (between resets) uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Store overwrites the value (reset support).
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Gauge is a settable int64 metric.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// --- histograms ---

// Histogram geometry: bucket i covers durations up to histBase<<i, so the
// fixed 40-bucket table spans 1µs to 2^39µs (~6 days) with factor-2
// resolution. Everything larger lands in the last (overflow) bucket.
const (
	HistBuckets = 40
	histBase    = int64(time.Microsecond)
)

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) time.Duration {
	if i >= HistBuckets-1 {
		return time.Duration(histBase << (HistBuckets - 1))
	}
	return time.Duration(histBase << i)
}

func bucketFor(ns int64) int {
	if ns <= histBase {
		return 0
	}
	v := uint64((ns + histBase - 1) / histBase) // ceil in base units
	b := bits.Len64(v - 1)                      // smallest b with 1<<b >= v
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Histogram is a fixed-bucket latency histogram with atomic buckets. All
// methods are safe for concurrent use and never allocate on the record path.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

// Observe records one duration. The total count is not kept separately —
// it is the sum of the buckets, computed at snapshot time — so the record
// path pays two atomic adds plus a usually-settled max check.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketFor(ns)].Add(1)
	h.sum.Add(ns)
	if cur := h.max.Load(); ns > cur {
		for !h.max.CompareAndSwap(cur, ns) {
			if cur = h.max.Load(); ns <= cur {
				break
			}
		}
	}
}

// Count returns how many observations have been recorded.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sum.Store(0)
	h.max.Store(0)
}

func (h *Histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	s.Buckets = make([]uint64, HistBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a histogram, JSON-serializable for
// the CTL stats surface.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	MaxNS   int64    `json:"max_ns"`
	Buckets []uint64 `json:"buckets"`
}

// Mean returns the average observed duration.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}

// Quantile returns the p-th percentile (0..100) as the upper bound of the
// bucket holding that rank, clamped to the observed maximum.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			up := BucketUpper(i)
			if s.MaxNS > 0 && time.Duration(s.MaxNS) < up {
				return time.Duration(s.MaxNS)
			}
			return up
		}
	}
	return time.Duration(s.MaxNS)
}

// merge adds o into s (bucket-wise; shapes are fixed so they always match).
func (s *HistSnapshot) merge(o HistSnapshot) {
	if s.Buckets == nil {
		s.Buckets = make([]uint64, HistBuckets)
	}
	for i := range o.Buckets {
		if i < len(s.Buckets) {
			s.Buckets[i] += o.Buckets[i]
		}
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
}

// --- registry ---

// Registry holds named counters, gauges, and histograms. Lookup is a
// read-locked map access; the returned metric pointers are stable, so hot
// paths cache them and pay only atomic operations per record.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry. Maps are pre-sized for a typical
// node's metric set so construction-time registration does not rehash.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter, 16),
		gauges:   make(map[string]*Gauge, 4),
		hists:    make(map[string]*Histogram, 32),
	}
}

// Histograms returns (creating if needed) the named histograms in order,
// with one lock acquisition and one backing allocation for every histogram
// created. Node construction registers its whole per-op set this way.
func (r *Registry) Histograms(names ...string) []*Histogram {
	out := make([]*Histogram, len(names))
	r.mu.Lock()
	defer r.mu.Unlock()
	missing := 0
	for _, name := range names {
		if r.hists[name] == nil {
			missing++
		}
	}
	slab := make([]Histogram, missing)
	for i, name := range names {
		h, ok := r.hists[name]
		if !ok {
			slab, h = slab[1:], &slab[0]
			r.hists[name] = h
		}
		out[i] = h
	}
	return out
}

// metric returns (creating if needed) the named entry of one of the
// registry's maps: a read-locked lookup, then a double-checked insert.
func metric[M any](mu *sync.RWMutex, m map[string]*M, name string) *M {
	mu.RLock()
	v, ok := m[name]
	mu.RUnlock()
	if ok {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v, ok = m[name]; !ok {
		v = new(M)
		m[name] = v
	}
	return v
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter { return metric(&r.mu, r.counters, name) }

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge { return metric(&r.mu, r.gauges, name) }

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram { return metric(&r.mu, r.hists, name) }

// Observe records a duration into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	r.Histogram(name).Observe(d)
}

// Reset zeroes every metric in place. Metric entries are never removed, so a
// pointer cached by a hot path (or a name a reader is about to query) stays
// valid across resets — resetting loses no metric entries.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.Store(0)
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot copies every metric. The result is JSON-serializable and is the
// payload of the CTL stats procedure.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms"`
}

// Snapshot returns a point-in-time copy of the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	for name, h := range r.hists {
		s.Hists[name] = h.snapshot()
	}
	return s
}

// Merge folds another snapshot into this one: counters and histogram buckets
// add, gauges add. Used by koshactl to build the cluster-wide aggregate from
// per-node snapshots.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	if len(o.Gauges) > 0 {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		for k, v := range o.Gauges {
			s.Gauges[k] += v
		}
	}
	if s.Hists == nil {
		s.Hists = make(map[string]HistSnapshot)
	}
	for k, v := range o.Hists {
		h := s.Hists[k]
		h.merge(v)
		s.Hists[k] = h
	}
}

// HistNames returns the snapshot's histogram names, sorted, for stable
// rendering.
func (s Snapshot) HistNames() []string { return sortedKeys(s.Hists) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MeanRatio divides two counters (0 when the denominator is 0); the mean
// route hop count is MeanRatio("route.hops", "route.count").
func (s Snapshot) MeanRatio(num, den string) float64 {
	d := s.Counters[den]
	if d == 0 {
		return 0
	}
	return float64(s.Counters[num]) / float64(d)
}
