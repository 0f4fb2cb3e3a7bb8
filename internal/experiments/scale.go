package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/scale"
	"repro/internal/trace"
)

// ScaleOptions parameterizes the scale-out sweep: each point runs the
// internal/scale soak — sustained Purdue-trace traffic under diurnal
// availability churn with the overlay invariant oracle enforced — and
// records how routing, latency, replication fan-out, and join convergence
// behave as the overlay grows from LAN scale to the thousand-node
// population Pastry was designed for. The paper measures 1..8 nodes
// (Section 6) and argues O(log16 N) scaling; this experiment measures it.
type ScaleOptions struct {
	NodeCounts []int
	// Epochs/Ops are per sweep point (see scale.Options).
	Epochs int
	Ops    int
	Seed   uint64
	FS     trace.FSConfig
}

// DefaultScaleOptions sweeps 100 to 1000 nodes.
func DefaultScaleOptions() ScaleOptions {
	return ScaleOptions{
		NodeCounts: []int{100, 250, 500, 1000},
		Epochs:     12,
		Ops:        600,
		Seed:       9,
		FS:         trace.PurdueFSConfig(),
	}
}

// QuickScaleOptions is the -quick shrink (<= 100 nodes): two soak points
// over the small trace.
func QuickScaleOptions() ScaleOptions {
	o := DefaultScaleOptions()
	o.NodeCounts = []int{50, 100}
	o.Epochs = 6
	o.Ops = 180
	o.FS = trace.SmallFSConfig()
	return o
}

// ScaleRow is one overlay size's soak summary.
type ScaleRow struct {
	Nodes int `json:"nodes"`
	// MeanRouteHops averages over the workload's actual routes;
	// ProbeMeanHops/ProbeMaxHops over the invariant oracle's uniform
	// key samples at final quiesce. Log16N is the model's prediction.
	MeanRouteHops float64 `json:"mean_route_hops"`
	ProbeMeanHops float64 `json:"probe_mean_hops"`
	ProbeMaxHops  int     `json:"probe_max_hops"`
	Log16N        float64 `json:"log16_n"`
	MeanOpMS      float64 `json:"mean_op_ms"`
	ReplicaFanout float64 `json:"replica_fanout"`
	MeanJoinMS    float64 `json:"mean_join_ms"`
	// RootReaddirMsgs is the message cost of listing "/" once the soak has
	// quiesced; it must not depend on Nodes.
	RootReaddirMsgs uint64 `json:"root_readdir_msgs"`
	Crashes         int    `json:"crashes"`
	Revives         int    `json:"revives"`
}

// ScaleResult carries the sweep.
type ScaleResult struct {
	Rows []ScaleRow `json:"rows"`

	opts ScaleOptions // what the run used; the renderers read their headers from it
}

// RunScale executes the sweep. Every point must pass the soak's oracle and
// invariant checks; a violation fails the experiment.
func RunScale(opts ScaleOptions) (*ScaleResult, error) {
	res := &ScaleResult{opts: opts}
	for _, n := range opts.NodeCounts {
		rep, err := scale.Run(scale.Options{
			Nodes:  n,
			Seed:   opts.Seed + uint64(n)*65537,
			Epochs: opts.Epochs,
			Ops:    opts.Ops,
			FS:     opts.FS,
		})
		if err != nil {
			return nil, fmt.Errorf("scale n=%d: %w", n, err)
		}
		row := ScaleRow{
			Nodes:           n,
			MeanRouteHops:   rep.MeanRouteHops,
			ProbeMeanHops:   rep.ProbeMeanHops,
			ProbeMaxHops:    rep.ProbeMaxHops,
			Log16N:          math.Log(float64(n)) / math.Log(16),
			ReplicaFanout:   rep.ReplicaFanout,
			RootReaddirMsgs: rep.RootReaddirMsgs,
			Crashes:         rep.Crashes,
			Revives:         rep.Revives,
		}
		if rep.Ops > 0 {
			row.MeanOpMS = rep.OpCost.Duration().Seconds() * 1e3 / float64(rep.Ops)
		}
		if rep.Joins > 0 {
			row.MeanJoinMS = float64(rep.MeanJoinCost.Duration()) / float64(time.Millisecond)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fprint renders the sweep.
func (r *ScaleResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Scale-out sweep: soak metrics vs overlay size (%d epochs, %d ops per point)\n",
		r.opts.Epochs, r.opts.Ops)
	fmt.Fprintf(w, "%-7s %9s %10s %9s %8s %9s %8s %9s %9s %8s %8s\n",
		"nodes", "hops", "probehops", "maxhops", "log16N", "op_ms", "fanout", "join_ms", "ls_/_msgs", "crashes", "revives")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-7d %9.2f %10.2f %9d %8.2f %9.3f %8.2f %9.3f %9d %8d %8d\n",
			row.Nodes, row.MeanRouteHops, row.ProbeMeanHops, row.ProbeMaxHops, row.Log16N,
			row.MeanOpMS, row.ReplicaFanout, row.MeanJoinMS, row.RootReaddirMsgs, row.Crashes, row.Revives)
	}
}

// FprintCSV renders the sweep as CSV rows.
func (r *ScaleResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "nodes,mean_route_hops,probe_mean_hops,probe_max_hops,log16_n,mean_op_ms,replica_fanout,mean_join_ms,root_readdir_msgs,crashes,revives")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d,%.4f,%.4f,%d,%.4f,%.4f,%.4f,%.4f,%d,%d,%d\n",
			row.Nodes, row.MeanRouteHops, row.ProbeMeanHops, row.ProbeMaxHops, row.Log16N,
			row.MeanOpMS, row.ReplicaFanout, row.MeanJoinMS, row.RootReaddirMsgs, row.Crashes, row.Revives)
	}
}
