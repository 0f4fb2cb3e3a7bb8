package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultSampleBuf is the default capacity of a sampler's ring: at one
// sample per second this retains about ten minutes of timeline.
const DefaultSampleBuf = 600

// HistSample is the per-interval view of one histogram: how many
// observations landed in the interval and the quantiles of just those
// observations (computed from the bucket deltas, not the lifetime totals).
type HistSample struct {
	Count uint64 `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P95NS int64  `json:"p95_ns"`
	P99NS int64  `json:"p99_ns"`
	MaxNS int64  `json:"max_ns"`
}

// Sample is one timestamped slice of the registry: counter deltas expressed
// as per-second rates, gauge values, and interval histogram quantiles. Only
// metrics that moved during the interval are included, so idle samples stay
// small.
type Sample struct {
	T      time.Time             `json:"t"`
	DurNS  int64                 `json:"dur_ns"`
	Rates  map[string]float64    `json:"rates,omitempty"`
	Gauges map[string]int64      `json:"gauges,omitempty"`
	Hists  map[string]HistSample `json:"hists,omitempty"`
}

// Sampler periodically snapshots a Registry into a bounded ring of deltas:
// the substrate for charting any experiment or soak over time instead of
// reading one end-of-run total. Drive it either with Start (wall-clock
// goroutine, for koshad) or with explicit TickNow calls (deterministic, for
// tests and the bench harness).
type Sampler struct {
	src func() Snapshot

	mu     sync.Mutex
	last   Snapshot
	lastT  time.Time
	recent ring[Sample]

	stop chan struct{}
	done chan struct{}
}

// NewSampler returns a sampler over reg retaining up to capacity samples
// (<= 0 selects DefaultSampleBuf).
func NewSampler(reg *Registry, capacity int) *Sampler {
	return NewSamplerFunc(reg.Snapshot, capacity)
}

// NewSamplerFunc samples an arbitrary snapshot source — e.g. a bench harness
// merging every cluster node's registry into one cluster-wide timeline.
func NewSamplerFunc(src func() Snapshot, capacity int) *Sampler {
	if capacity <= 0 {
		capacity = DefaultSampleBuf
	}
	return &Sampler{src: src, recent: ring[Sample]{max: capacity}}
}

// TickNow takes one sample at the given timestamp. The first tick only
// establishes the baseline snapshot and records nothing. Returns the sample
// recorded (zero Sample on the baseline tick).
func (s *Sampler) TickNow(now time.Time) Sample {
	if s == nil {
		return Sample{}
	}
	snap := s.src()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastT.IsZero() {
		s.last, s.lastT = snap, now
		return Sample{}
	}
	sm := diffSample(s.last, snap, s.lastT, now)
	s.last, s.lastT = snap, now
	s.recent.put(sm)
	return sm
}

func diffSample(prev, cur Snapshot, prevT, now time.Time) Sample {
	sm := Sample{T: now, DurNS: now.Sub(prevT).Nanoseconds()}
	secs := float64(sm.DurNS) / float64(time.Second)
	for name, v := range cur.Counters {
		d := v - prev.Counters[name]
		if d == 0 {
			continue
		}
		if sm.Rates == nil {
			sm.Rates = make(map[string]float64)
		}
		if secs > 0 {
			sm.Rates[name] = float64(d) / secs
		} else {
			sm.Rates[name] = float64(d)
		}
	}
	for name, v := range cur.Gauges {
		if sm.Gauges == nil {
			sm.Gauges = make(map[string]int64)
		}
		sm.Gauges[name] = v
	}
	for name, h := range cur.Hists {
		d := h
		d.Buckets = append([]uint64(nil), h.Buckets...)
		if p, ok := prev.Hists[name]; ok {
			for i := range d.Buckets {
				if i < len(p.Buckets) {
					d.Buckets[i] -= p.Buckets[i]
				}
			}
			d.Count -= p.Count
			d.SumNS -= p.SumNS
		}
		if d.Count == 0 {
			continue
		}
		if sm.Hists == nil {
			sm.Hists = make(map[string]HistSample)
		}
		sm.Hists[name] = HistSample{
			Count: d.Count,
			P50NS: int64(d.Quantile(50)),
			P95NS: int64(d.Quantile(95)),
			P99NS: int64(d.Quantile(99)),
			MaxNS: d.MaxNS,
		}
	}
	return sm
}

// Recent returns up to n samples, oldest first (n <= 0 means all retained).
func (s *Sampler) Recent(n int) []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recent.oldestFirst(n)
}

// Start launches the wall-clock sampling goroutine at the given interval.
// A second Start without Stop is a no-op.
func (s *Sampler) Start(interval time.Duration) {
	if s == nil || interval <= 0 {
		return
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()
	s.TickNow(time.Now()) // baseline
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				s.TickNow(now)
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// WriteSamplesCSV dumps samples in long form — one row per metric per
// sample: t_unix_ns,metric,kind,value. Long form keeps the schema stable as
// metrics come and go, which is what plotting pipelines want.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	if _, err := fmt.Fprintln(w, "t_unix_ns,metric,kind,value"); err != nil {
		return err
	}
	for _, sm := range samples {
		t := sm.T.UnixNano()
		for _, name := range sortedKeys(sm.Rates) {
			fmt.Fprintf(w, "%d,%s,rate,%.3f\n", t, name, sm.Rates[name])
		}
		for _, name := range sortedKeys(sm.Gauges) {
			fmt.Fprintf(w, "%d,%s,gauge,%d\n", t, name, sm.Gauges[name])
		}
		for _, name := range sortedKeys(sm.Hists) {
			h := sm.Hists[name]
			fmt.Fprintf(w, "%d,%s.count,hist,%d\n", t, name, h.Count)
			fmt.Fprintf(w, "%d,%s.p50_ns,hist,%d\n", t, name, h.P50NS)
			fmt.Fprintf(w, "%d,%s.p95_ns,hist,%d\n", t, name, h.P95NS)
			fmt.Fprintf(w, "%d,%s.p99_ns,hist,%d\n", t, name, h.P99NS)
		}
	}
	return nil
}
