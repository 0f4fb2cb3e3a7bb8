package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// LatencyOptions parameterizes the per-operation latency experiment: a mixed
// metadata/data workload on the paper's 8-node cluster shape, reported as
// latency percentiles straight from the obs histograms every node maintains,
// rather than as aggregate runtimes.
type LatencyOptions struct {
	Nodes       int
	Dirs        int // distributed directories created
	FilesPerDir int // files written and read back per directory
	FileSize    int // bytes per file
	Seed        uint64
	Sample      bool // retain a cluster-wide time-series sample per phase
}

// DefaultLatencyOptions uses the Table 1/2 cluster shape.
func DefaultLatencyOptions() LatencyOptions {
	return LatencyOptions{
		Nodes:       8,
		Dirs:        6,
		FilesPerDir: 12,
		FileSize:    16 << 10,
		Seed:        11,
	}
}

// QuickLatencyOptions is the -quick shrink: a dozen small files.
func QuickLatencyOptions() LatencyOptions {
	o := DefaultLatencyOptions()
	o.Dirs = 3
	o.FilesPerDir = 4
	o.FileSize = 4 << 10
	return o
}

// OpLatency is one operation's simulated-time latency distribution, in
// milliseconds.
type OpLatency struct {
	Op     string  `json:"op"`
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// LatencyResult aggregates every node's metric registry after the workload.
type LatencyResult struct {
	Nodes         int         `json:"nodes"`
	Ops           []OpLatency `json:"ops"`
	MeanRouteHops float64     `json:"mean_route_hops"`
	Routes        uint64      `json:"routes"`
	Replications  uint64      `json:"replications"`
	Failovers     uint64      `json:"failovers"`
	Resyncs       uint64      `json:"resyncs"`
	// Replica-maintenance and streaming-I/O effectiveness counters, summed
	// over the cluster.
	SyncBytes        uint64 `json:"repl_sync_bytes"`
	SyncFilesSent    uint64 `json:"repl_sync_files_sent"`
	SyncFilesSkipped uint64 `json:"repl_sync_files_skipped"`
	SyncDigestHits   uint64 `json:"repl_sync_digest_hits"`
	SyncDigestMisses uint64 `json:"repl_sync_digest_misses"`
	ReadaheadHits    uint64 `json:"io_readahead_hits"`
	ReadaheadWasted  uint64 `json:"io_readahead_wasted"`
	WBCoalesced      uint64 `json:"io_writeback_coalesced"`
	WBFlushes        uint64 `json:"io_writeback_flushes"`
	// Samples is the per-phase cluster-wide time series (populate, one per
	// read-back directory, final sync), present when Options.Sample is set.
	Samples []obs.Sample `json:"samples,omitempty"`

	opts LatencyOptions // what the run used; the renderers read their headers from it
}

// RunLatency builds a cluster, runs a create/write/lookup/read/readdir mix
// with the client rotating across nodes (every node both serves and issues
// operations, as in the paper's testbed), and snapshots the merged histograms.
func RunLatency(opts LatencyOptions) (*LatencyResult, error) {
	c, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: koshaCfg()})
	if err != nil {
		return nil, err
	}
	ms := make([]*core.Mount, opts.Nodes)
	for i := range ms {
		ms[i] = c.Mount(i)
	}
	var sampler *obs.Sampler
	tick := func() {}
	if opts.Sample {
		sampler = obs.NewSamplerFunc(func() obs.Snapshot {
			var agg obs.Snapshot
			for _, nd := range c.Nodes {
				agg.Merge(nd.Obs().Snapshot())
			}
			return agg
		}, 0)
		tick = func() { sampler.TickNow(time.Now()) }
		tick() // baseline
	}
	for d := 0; d < opts.Dirs; d++ {
		m := ms[d%opts.Nodes]
		data := make([]byte, opts.FileSize)
		for f := 0; f < opts.FilesPerDir; f++ {
			p := fmt.Sprintf("/lat%02d/f%03d", d, f)
			if _, err := m.WriteFile(p, data); err != nil {
				return nil, fmt.Errorf("populate %s: %w", p, err)
			}
		}
	}
	tick()
	// Read everything back through a different node than the writer so the
	// resolver routes instead of answering from the writer's warm caches.
	for d := 0; d < opts.Dirs; d++ {
		m := ms[(d+1)%opts.Nodes]
		dir := fmt.Sprintf("/lat%02d", d)
		vh, _, _, err := m.LookupPath(dir)
		if err != nil {
			return nil, fmt.Errorf("lookup %s: %w", dir, err)
		}
		ents, _, err := m.Readdir(vh)
		if err != nil {
			return nil, fmt.Errorf("readdir %s: %w", dir, err)
		}
		for _, e := range ents {
			if _, _, err := m.ReadFile(dir + "/" + e.Name); err != nil {
				return nil, fmt.Errorf("read %s/%s: %w", dir, e.Name, err)
			}
		}
		tick()
	}
	for _, nd := range c.Nodes {
		nd.SyncReplicas()
	}
	tick()

	res := &LatencyResult{opts: opts, Nodes: opts.Nodes}
	var agg obs.Snapshot
	var ev obs.EventsSnapshot
	for _, nd := range c.Nodes {
		agg.Merge(nd.Obs().Snapshot())
		ev.Merge(nd.Events().Snapshot(0))
	}
	for _, name := range agg.HistNames() {
		op := strings.TrimPrefix(name, "op.")
		if op == name {
			continue
		}
		h := agg.Hists[name]
		if h.Count == 0 {
			continue
		}
		res.Ops = append(res.Ops, OpLatency{
			Op:     op,
			Count:  h.Count,
			MeanMS: toMS(h.Mean()),
			P50MS:  toMS(h.Quantile(50)),
			P95MS:  toMS(h.Quantile(95)),
			P99MS:  toMS(h.Quantile(99)),
			MaxMS:  toMS(time.Duration(h.MaxNS)),
		})
	}
	res.MeanRouteHops = agg.MeanRatio("route.hops", "route.count")
	res.Routes = agg.Counters["route.count"]
	res.Replications = agg.Counters["replicate.count"]
	res.Failovers = ev.Counts[obs.EvFailover]
	res.Resyncs = ev.Counts[obs.EvResync]
	res.SyncBytes = agg.Counters["repl.sync.bytes"]
	res.SyncFilesSent = agg.Counters["repl.sync.files.sent"]
	res.SyncFilesSkipped = agg.Counters["repl.sync.files.skipped"]
	res.SyncDigestHits = agg.Counters["repl.sync.digest.hits"]
	res.SyncDigestMisses = agg.Counters["repl.sync.digest.misses"]
	res.ReadaheadHits = agg.Counters["io.readahead.hits"]
	res.ReadaheadWasted = agg.Counters["io.readahead.wasted"]
	res.WBCoalesced = agg.Counters["io.writeback.coalesced"]
	res.WBFlushes = agg.Counters["io.writeback.flushes"]
	if sampler != nil {
		res.Samples = sampler.Recent(0)
	}
	return res, nil
}

func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Fprint renders the result as a text table.
func (r *LatencyResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Per-operation latency, %d nodes (%d dirs x %d files, %d B each)\n",
		r.Nodes, r.opts.Dirs, r.opts.FilesPerDir, r.opts.FileSize)
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %10s %10s\n",
		"op", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, o := range r.Ops {
		fmt.Fprintf(w, "%-14s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			o.Op, o.Count, o.MeanMS, o.P50MS, o.P95MS, o.P99MS, o.MaxMS)
	}
	fmt.Fprintf(w, "mean route hops %.2f over %d routes; %d replications, %d failovers, %d resyncs\n",
		r.MeanRouteHops, r.Routes, r.Replications, r.Failovers, r.Resyncs)
	if hm := r.SyncDigestHits + r.SyncDigestMisses; hm > 0 {
		fmt.Fprintf(w, "replica sync: %d bytes, %d files sent, %d skipped, digest hit %.1f%% (%d/%d)\n",
			r.SyncBytes, r.SyncFilesSent, r.SyncFilesSkipped,
			float64(r.SyncDigestHits)/float64(hm)*100, r.SyncDigestHits, hm)
	}
	if r.ReadaheadHits+r.ReadaheadWasted+r.WBFlushes > 0 {
		fmt.Fprintf(w, "streaming io: readahead %d hits / %d wasted; write-back %d coalesced over %d flushes\n",
			r.ReadaheadHits, r.ReadaheadWasted, r.WBCoalesced, r.WBFlushes)
	}
	if len(r.Samples) > 0 {
		fmt.Fprintf(w, "retained %d time-series samples (emit with -sample -format csv)\n", len(r.Samples))
	}
}

// FprintCSV renders the per-op rows as CSV, followed by comment lines for
// the cluster-summed maintenance counters (and the time-series samples in
// long form when retained, so one capture feeds a plotting pipeline).
func (r *LatencyResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "op,count,mean_ms,p50_ms,p95_ms,p99_ms,max_ms")
	for _, o := range r.Ops {
		fmt.Fprintf(w, "%s,%d,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			o.Op, o.Count, o.MeanMS, o.P50MS, o.P95MS, o.P99MS, o.MaxMS)
	}
	fmt.Fprintf(w, "# repl.sync.bytes=%d repl.sync.files.sent=%d repl.sync.files.skipped=%d repl.sync.digest.hits=%d repl.sync.digest.misses=%d\n",
		r.SyncBytes, r.SyncFilesSent, r.SyncFilesSkipped, r.SyncDigestHits, r.SyncDigestMisses)
	fmt.Fprintf(w, "# io.readahead.hits=%d io.readahead.wasted=%d io.writeback.coalesced=%d io.writeback.flushes=%d\n",
		r.ReadaheadHits, r.ReadaheadWasted, r.WBCoalesced, r.WBFlushes)
	if len(r.Samples) > 0 {
		obs.WriteSamplesCSV(w, r.Samples)
	}
}
