package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/mab"
	"repro/internal/stats"
)

// Table2Options parameterizes the distribution-level experiment.
type Table2Options struct {
	Nodes    int   // fixed at 4 in the paper
	Levels   []int // distribution levels swept; the paper uses 1..4
	Runs     int
	Workload mab.Config
	Seed     uint64
}

// DefaultTable2Options mirrors Section 6.1.3: 4 nodes, levels 1-4.
func DefaultTable2Options() Table2Options {
	return Table2Options{
		Nodes:    4,
		Levels:   []int{1, 2, 3, 4},
		Runs:     5,
		Workload: mab.Paper51MB(),
		Seed:     2,
	}
}

// QuickTable2Options is the -quick shrink: the tiny MAB tree, two seeds.
func QuickTable2Options() Table2Options {
	o := DefaultTable2Options()
	o.Workload = mab.Tiny()
	o.Runs = 2
	return o
}

// Table2Result carries per-level, per-phase times and the overhead of each
// level relative to level 1.
type Table2Result struct {
	Phases   []mab.Phase                   `json:"phases"`
	Seconds  map[int]map[mab.Phase]float64 `json:"seconds"` // level -> phase -> seconds
	Totals   map[int]float64               `json:"totals"`
	Overhead map[int]float64               `json:"overhead_pct"` // percent vs level 1 (level 1 -> 0)

	opts Table2Options // what the run used; the renderers read their headers from it
}

// RunTable2 executes the Table 2 experiment.
func RunTable2(opts Table2Options) (*Table2Result, error) {
	res := &Table2Result{
		opts:     opts,
		Phases:   mab.Phases,
		Seconds:  make(map[int]map[mab.Phase]float64),
		Totals:   make(map[int]float64),
		Overhead: make(map[int]float64),
	}
	for _, level := range opts.Levels {
		perPhase := make(map[mab.Phase]*stats.Accum)
		for _, p := range mab.Phases {
			perPhase[p] = &stats.Accum{}
		}
		total := &stats.Accum{}
		for run := 0; run < opts.Runs; run++ {
			cfg := koshaCfg()
			cfg.DistributionLevel = level
			c, err := cluster.New(cluster.Options{
				Nodes:  opts.Nodes,
				Seed:   opts.Seed + uint64(run)*104729,
				Config: cfg,
			})
			if err != nil {
				return nil, fmt.Errorf("table2 level=%d run=%d: %w", level, run, err)
			}
			r, err := mab.Run(mab.NewKoshaFS(c.Mount(0)), mab.Generate(opts.Workload, opts.Seed))
			if err != nil {
				return nil, fmt.Errorf("table2 level=%d run=%d: %w", level, run, err)
			}
			for _, p := range mab.Phases {
				perPhase[p].Add(r.Seconds(p))
			}
			total.Add(r.Total().Seconds())
		}
		cells := make(map[mab.Phase]float64)
		for _, p := range mab.Phases {
			cells[p] = perPhase[p].Mean()
		}
		res.Seconds[level] = cells
		res.Totals[level] = total.Mean()
	}
	base := res.Totals[opts.Levels[0]]
	for _, level := range opts.Levels {
		res.Overhead[level] = (res.Totals[level]/base - 1) * 100
	}
	return res, nil
}

// Fprint renders the table in the paper's row layout.
func (r *Table2Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Table 2: MAB on Kosha as the distribution level increases (%d nodes, simulated seconds)\n", r.opts.Nodes)
	fmt.Fprintf(w, "%-10s", "Benchmark")
	for _, l := range r.opts.Levels {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("Dist-lvl %d", l))
	}
	fmt.Fprintln(w)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-10s", p)
		for _, l := range r.opts.Levels {
			fmt.Fprintf(w, " %10.2f", r.Seconds[l][p])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "Total")
	for _, l := range r.opts.Levels {
		fmt.Fprintf(w, " %10.2f", r.Totals[l])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "overhead")
	for _, l := range r.opts.Levels {
		fmt.Fprintf(w, " %9.1f%%", r.Overhead[l])
	}
	fmt.Fprintln(w)
}
