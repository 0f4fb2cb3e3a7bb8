package experiments

import (
	"fmt"
	"io"
)

// CSV emitters for every experiment, so results can be piped straight into
// plotting tools (`koshabench -exp fig6 -format csv > fig6.csv`).

// FprintCSV writes Table 1 as rows of phase,config,seconds,overhead_pct.
func (r *Table1Result) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "phase,config,seconds,overhead_pct")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%s,NFS,%.4f,\n", p, r.NFS[p])
		for _, n := range r.opts.NodeCounts {
			c := r.Kosha[n][p]
			fmt.Fprintf(w, "%s,Kosha-%d,%.4f,%.2f\n", p, n, c.Seconds, c.Overhead)
		}
	}
	fmt.Fprintf(w, "total,NFS,%.4f,\n", r.NFSTotal)
	for _, n := range r.opts.NodeCounts {
		c := r.KoshaTotal[n]
		fmt.Fprintf(w, "total,Kosha-%d,%.4f,%.2f\n", n, c.Seconds, c.Overhead)
	}
}

// FprintCSV writes Table 2 as rows of phase,level,seconds.
func (r *Table2Result) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "phase,level,seconds")
	for _, p := range r.Phases {
		for _, l := range r.opts.Levels {
			fmt.Fprintf(w, "%s,%d,%.4f\n", p, l, r.Seconds[l][p])
		}
	}
	for _, l := range r.opts.Levels {
		fmt.Fprintf(w, "total,%d,%.4f\n", l, r.Totals[l])
	}
	for _, l := range r.opts.Levels {
		fmt.Fprintf(w, "overhead_pct,%d,%.2f\n", l, r.Overhead[l])
	}
}

// FprintCSV writes Figure 5 as rows of
// level,files_mean_pct,files_std_pct,bytes_mean_pct,bytes_std_pct
// with level -1 for the per-file bound.
func (r *Figure5Result) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "level,files_mean_pct,files_std_pct,bytes_mean_pct,bytes_std_pct")
	rows := append(append([]Figure5Row(nil), r.Rows...), r.PerFile)
	for _, row := range rows {
		fmt.Fprintf(w, "%d,%.4f,%.4f,%.4f,%.4f\n",
			row.Level, row.MeanFilesPct, row.StdFilesPct, row.MeanBytesPct, row.StdBytesPct)
	}
}

// FprintCSV writes Figure 6 as rows of utilization,attempts,failure_ratio.
func (r *Figure6Result) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "utilization,attempts,failure_ratio")
	for _, c := range r.Curves {
		for b := range c.Util {
			fmt.Fprintf(w, "%.3f,%d,%.6f\n", c.Util[b], c.Attempts, c.Failure[b])
		}
	}
}

// FprintCSV writes Figure 7 as rows of hour,replicas,available_pct.
func (r *Figure7Result) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "hour,replicas,available_pct")
	for _, s := range r.Series {
		for h, v := range s.HourlyPct {
			fmt.Fprintf(w, "%d,%d,%.6f\n", h, s.Replicas, v)
		}
	}
}

// FprintCSV writes the analytic model as rows of n,hops,remote_frac,d_us.
func (r *ModelResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "n,hops,remote_frac,d_us")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d,%d,%.6f,%d\n", row.N, row.Hops, row.RemoteFrac, row.D.Microseconds())
	}
}
