package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/cluster"
)

// ChurnOptions parameterizes the availability-under-failure sweep, echoing
// the paper's Figure 8: the percentage of successful file accesses as nodes
// fail, for different replication factors K. Reads are issued immediately
// after the simultaneous failures — before any repair round — so the sweep
// measures what replication plus transparent failover (Section 4.4) buys on
// its own.
type ChurnOptions struct {
	Nodes    int
	Replicas []int // K values swept
	Failed   []int // simultaneous node failures swept
	Files    int
	Runs     int
	Seed     int64
}

// DefaultChurnOptions mirrors the chaos harness's default topology: 8 nodes
// with the client mounted on node 0.
func DefaultChurnOptions() ChurnOptions {
	return ChurnOptions{
		Nodes:    8,
		Replicas: []int{1, 2, 3},
		Failed:   []int{0, 1, 2, 3},
		Files:    48,
		Runs:     3,
		Seed:     17,
	}
}

// QuickChurnOptions is the -quick shrink: one replica count, at most one
// failure, one run.
func QuickChurnOptions() ChurnOptions {
	o := DefaultChurnOptions()
	o.Replicas = []int{2}
	o.Failed = []int{0, 1}
	o.Files = 16
	o.Runs = 1
	return o
}

// ChurnRow is one (K, failed-nodes) cell, aggregated over runs.
type ChurnRow struct {
	Replicas     int     `json:"replicas"`
	Failed       int     `json:"failed"`
	Reads        int     `json:"reads"`
	Missed       int     `json:"missed"`
	Availability float64 `json:"availability_pct"`
}

// ChurnResult carries the sweep.
type ChurnResult struct {
	Rows []ChurnRow `json:"rows"`

	opts ChurnOptions // what the run used; the renderers read their headers from it
}

// RunChurn executes the sweep. Each cell builds a fresh cluster, populates
// it through the mount, stabilizes, crashes the requested number of storage
// nodes at once, and replays every acknowledged file through the chaos
// harness's oracle: a read that fails or returns stale-but-acknowledged
// contents is a miss; contents never acknowledged abort the experiment.
func RunChurn(opts ChurnOptions) (*ChurnResult, error) {
	res := &ChurnResult{opts: opts}
	for _, k := range opts.Replicas {
		for _, failed := range opts.Failed {
			if failed >= opts.Nodes {
				continue
			}
			var reads, missed int
			for run := 0; run < opts.Runs; run++ {
				seed := opts.Seed + int64(run)*65537 + int64(k)*257 + int64(failed)
				cfg := koshaCfg()
				cfg.Replicas = k
				cfg.Seed = uint64(seed)
				// Wall-clock TTL caches would make results timing-dependent.
				cfg.AttrCacheTTL = -1
				cfg.NameCacheTTL = -1
				c, err := cluster.New(cluster.Options{
					Nodes:  opts.Nodes,
					Seed:   uint64(seed),
					Config: cfg,
				})
				if err != nil {
					return nil, fmt.Errorf("churn k=%d f=%d: %w", k, failed, err)
				}
				m := c.Mount(0)
				r := rand.New(rand.NewSource(seed))
				model := chaos.NewOracle()
				for i := 0; i < opts.Files; i++ {
					p := fmt.Sprintf("/d%d/f%d", i%4, i)
					data := make([]byte, 64+r.Intn(1024))
					r.Read(data)
					if _, err := m.WriteFile(p, data); err != nil {
						return nil, fmt.Errorf("churn k=%d f=%d populate %s: %w", k, failed, p, err)
					}
					model.WriteFile(p, data)
				}
				c.Stabilize()
				// Crash storage nodes only — node 0 hosts the client's koshad.
				victims := r.Perm(opts.Nodes - 1)[:failed]
				for _, v := range victims {
					c.Fail(v + 1)
				}
				miss, err := model.CheckFilesLenient(m)
				if err != nil {
					return nil, fmt.Errorf("churn k=%d f=%d: %w", k, failed, err)
				}
				reads += opts.Files
				missed += miss
			}
			res.Rows = append(res.Rows, ChurnRow{
				Replicas:     k,
				Failed:       failed,
				Reads:        reads,
				Missed:       missed,
				Availability: 100 * float64(reads-missed) / float64(reads),
			})
		}
	}
	return res, nil
}

// Fprint renders the sweep as an availability matrix.
func (r *ChurnResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Churn sweep: read availability vs simultaneous failures (Fig 8 echo, %d nodes, %d files, %d runs)\n",
		r.opts.Nodes, r.opts.Files, r.opts.Runs)
	fmt.Fprintf(w, "%-4s %-8s %8s %8s %14s\n", "K", "failed", "reads", "missed", "availability")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-4d %-8d %8d %8d %13.2f%%\n",
			row.Replicas, row.Failed, row.Reads, row.Missed, row.Availability)
	}
}

// FprintCSV renders the sweep as replicas,failed,reads,missed,availability rows.
func (r *ChurnResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "replicas,failed,reads,missed,availability_pct")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d,%d,%d,%d,%.2f\n",
			row.Replicas, row.Failed, row.Reads, row.Missed, row.Availability)
	}
}
