// Package experiments regenerates every table and figure in the paper's
// evaluation (Section 6): Table 1 (MAB scalability vs NFS), Table 2 (MAB vs
// distribution level), Figure 5 (load distribution), Figure 6 (redirection
// vs utilization), Figure 7 (availability under the machine trace), and the
// Section 6.1.2 analytic overhead model. Each experiment returns structured
// rows and can print itself in the paper's layout.
//
// Absolute times come from the simulated cost model (internal/simnet), so
// they will not match the paper's wall-clock seconds; the comparisons the
// paper draws — overhead percentages, trends across nodes/levels, who wins
// where — are the reproduced quantities.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mab"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Table1Options parameterizes the scalability experiment.
type Table1Options struct {
	NodeCounts []int // overlay sizes; the paper uses 1, 2, 4, 8
	Runs       int   // nodeId-assignment seeds averaged ("50 runs")
	Workload   mab.Config
	Seed       uint64
}

// DefaultTable1Options mirrors Section 6.1.1: distribution level 1,
// replication factor 1, 35 GB contributed per node (no redirection), MAB
// with the 51 MB distribution.
func DefaultTable1Options() Table1Options {
	return Table1Options{
		NodeCounts: []int{1, 2, 4, 8},
		Runs:       5,
		Workload:   mab.Paper51MB(),
		Seed:       1,
	}
}

// QuickTable1Options is the -quick shrink: the tiny MAB tree, two seeds.
func QuickTable1Options() Table1Options {
	o := DefaultTable1Options()
	o.Workload = mab.Tiny()
	o.Runs = 2
	return o
}

// Table1Cell is one (phase, configuration) measurement.
type Table1Cell struct {
	Seconds  float64 `json:"seconds"`
	Overhead float64 `json:"overhead_pct"` // percent vs the NFS baseline; NaN for the baseline
}

// Table1Result carries the full table.
type Table1Result struct {
	Phases     []mab.Phase                      `json:"phases"`
	NFS        map[mab.Phase]float64            `json:"nfs"` // baseline seconds per phase
	NFSTotal   float64                          `json:"nfs_total"`
	Kosha      map[int]map[mab.Phase]Table1Cell `json:"kosha"` // node count -> phase -> cell
	KoshaTotal map[int]Table1Cell               `json:"kosha_total"`

	opts Table1Options // what the run used; the renderers read their headers from it
}

// koshaCfg is the Table 1/2 node configuration: replication factor 1,
// 35 GB contributed per node. Trace retention is off — experiments read
// the metric histograms, and per-op trace building would tax every arm of
// every benchmark for records nothing dumps.
func koshaCfg() core.Config {
	return core.Config{
		DistributionLevel: 1,
		Replicas:          1,
		Capacity:          35 << 30,
		TraceBufSize:      -1,
	}
}

// RunTable1 executes the Table 1 experiment.
func RunTable1(opts Table1Options) (*Table1Result, error) {
	res := &Table1Result{
		opts:       opts,
		Phases:     mab.Phases,
		NFS:        make(map[mab.Phase]float64),
		Kosha:      make(map[int]map[mab.Phase]Table1Cell),
		KoshaTotal: make(map[int]Table1Cell),
	}

	// Baseline: two machines, client and NFS server.
	w := mab.Generate(opts.Workload, opts.Seed)
	base, err := mab.Run(mab.NewBaseline(simnet.LAN100, simnet.Disk7200), w)
	if err != nil {
		return nil, fmt.Errorf("table1 baseline: %w", err)
	}
	for _, p := range mab.Phases {
		res.NFS[p] = base.Seconds(p)
	}
	res.NFSTotal = base.Total().Seconds()

	for _, n := range opts.NodeCounts {
		perPhase := make(map[mab.Phase]*stats.Accum)
		for _, p := range mab.Phases {
			perPhase[p] = &stats.Accum{}
		}
		total := &stats.Accum{}
		for run := 0; run < opts.Runs; run++ {
			c, err := cluster.New(cluster.Options{
				Nodes:  n,
				Seed:   opts.Seed + uint64(run)*7919,
				Config: koshaCfg(),
			})
			if err != nil {
				return nil, fmt.Errorf("table1 n=%d run=%d: %w", n, run, err)
			}
			r, err := mab.Run(mab.NewKoshaFS(c.Mount(0)), mab.Generate(opts.Workload, opts.Seed))
			if err != nil {
				return nil, fmt.Errorf("table1 n=%d run=%d: %w", n, run, err)
			}
			for _, p := range mab.Phases {
				perPhase[p].Add(r.Seconds(p))
			}
			total.Add(r.Total().Seconds())
		}
		cells := make(map[mab.Phase]Table1Cell)
		for _, p := range mab.Phases {
			sec := perPhase[p].Mean()
			cells[p] = Table1Cell{
				Seconds:  sec,
				Overhead: (sec/res.NFS[p] - 1) * 100,
			}
		}
		res.Kosha[n] = cells
		res.KoshaTotal[n] = Table1Cell{
			Seconds:  total.Mean(),
			Overhead: (total.Mean()/res.NFSTotal - 1) * 100,
		}
	}
	return res, nil
}

// Fprint renders the table in the paper's row layout.
func (r *Table1Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Table 1: MAB on Kosha with increasing number of nodes (simulated seconds)\n")
	fmt.Fprintf(w, "%-10s %10s", "Benchmark", "NFS")
	for _, n := range r.opts.NodeCounts {
		fmt.Fprintf(w, " %9s-%d%6s", "Kosha", n, "ovhd")
	}
	fmt.Fprintln(w)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-10s %10.2f", p, r.NFS[p])
		for _, n := range r.opts.NodeCounts {
			c := r.Kosha[n][p]
			fmt.Fprintf(w, " %11.2f %5.1f%%", c.Seconds, c.Overhead)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s %10.2f", "Total", r.NFSTotal)
	for _, n := range r.opts.NodeCounts {
		c := r.KoshaTotal[n]
		fmt.Fprintf(w, " %11.2f %5.1f%%", c.Seconds, c.Overhead)
	}
	fmt.Fprintln(w)
}
