package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/simnet"
)

// opClass groups client calls the way the per-layer metrics name them.
type opClass uint8

const (
	clStat    opClass = iota // LookupPath, Getattr, Stat, Open
	clRead                   // Read, ReadFile
	clWrite                  // Write, WriteFile, Commit/Close
	clReaddir                // Readdir
	clMkdir                  // Mkdir, MkdirAll, Create (name creation, no data)
	clRemove                 // Remove, Rmdir
	clRename                 // Rename
	numClasses
)

var classNames = [numClasses]string{"stat", "read", "write", "readdir", "mkdir", "remove", "rename"}

// roundStats is what one round of client calls measured. Every field is a
// sum over the round's calls except lat/cls, which keep each call's latency
// and class for the percentiles.
type roundStats struct {
	lat        []int64 // ns per call
	cls        []opClass
	wall       int64 // ns inside client calls
	clsWall    [numClasses]int64
	clsCost    [numClasses]simnet.Cost
	cost       simnet.Cost // Σ cost the client surface returned
	readBytes  int64
	writeBytes int64
}

func (r *roundStats) reset() {
	*r = roundStats{lat: r.lat[:0], cls: r.cls[:0]}
}

// roundSummary is a finished round reduced to what the metrics need.
type roundSummary struct {
	calls                 int
	wall                  int64 // ns inside client calls
	p50, p99              int64 // ns
	readBytes, writeBytes int64
	cost                  simnet.Cost
	clsCalls              [numClasses]int
	clsWall               [numClasses]int64
	clsCost               [numClasses]simnet.Cost
	clsP50                [numClasses]int64
}

// summarize reduces the round.
func (r *roundStats) summarize() roundSummary {
	s := roundSummary{calls: len(r.lat), wall: r.wall, readBytes: r.readBytes, writeBytes: r.writeBytes,
		cost: r.cost, clsWall: r.clsWall, clsCost: r.clsCost}
	for _, c := range r.cls {
		s.clsCalls[c]++
	}
	sorted := append([]int64(nil), r.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.p50, s.p99 = percentile(sorted, 0.50), percentile(sorted, 0.99)
	for c := range s.clsP50 {
		sorted = sorted[:0]
		for i, l := range r.lat {
			if int(r.cls[i]) == c {
				sorted = append(sorted, l)
			}
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.clsP50[c] = percentile(sorted, 0.50)
	}
	return s
}

// meter times client calls. A workload brackets every call on the client
// surface with begin/end; harness work between calls (payload generation,
// verification) is outside every clock. With a tracer attached, begin/end
// also open and close the operation's root span.
type meter struct {
	t       *tracer
	cur     roundStats
	failed  int // failed calls plus oracle mismatches
	checked int // oracle comparisons made
	calls   int // client calls in finished rounds
	span    int32
}

func newMeter(t *tracer) *meter {
	return &meter{t: t, cur: roundStats{lat: make([]int64, 0, 1<<13), cls: make([]opClass, 0, 1<<13)}}
}

func (m *meter) begin(name string) time.Time {
	if m.t != nil {
		m.span = m.t.push(layerClient, m.t.intern(name))
	}
	return time.Now()
}

// end closes the call begin opened: its class, the simulated cost it
// returned, the user bytes it read and wrote, and its error.
func (m *meter) end(start time.Time, cl opClass, cost simnet.Cost, rd, wr int, err error) {
	d := int64(time.Since(start))
	if m.t != nil {
		m.t.pop(m.span, 0)
	}
	r := &m.cur
	r.lat = append(r.lat, d)
	r.cls = append(r.cls, cl)
	r.wall += d
	r.clsWall[cl] += d
	r.clsCost[cl] += cost
	r.cost += cost
	r.readBytes += int64(rd)
	r.writeBytes += int64(wr)
	if err != nil {
		m.fail(err)
	}
}

// fail counts one failed call or oracle mismatch; the first few are logged.
func (m *meter) fail(err error) {
	m.failed++
	if m.failed <= 5 {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
	}
}

// verify counts one oracle comparison and its outcome.
func (m *meter) verify(err error) {
	m.checked++
	if err != nil {
		m.fail(err)
	}
}

// add folds another meter's tallies into m.
func (m *meter) add(o *meter) {
	m.failed += o.failed
	m.checked += o.checked
	m.calls += o.calls
}

// take summarizes the finished round and starts a new one.
func (m *meter) take() roundSummary {
	s := m.cur.summarize()
	m.calls += s.calls
	m.cur.reset()
	return s
}
