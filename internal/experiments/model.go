package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// ModelOptions parameterizes the Section 6.1.2 analytic overhead model:
//
//	D = I + (H · hc) · (N-1)/N
//
// where I is the interposition constant, H = ceil(log_{2^b}(N)) the overlay
// hop count, hc the per-hop latency, and (N-1)/N the fraction of files
// served from remote nodes.
type ModelOptions struct {
	I           time.Duration
	HopCost     time.Duration
	Base        int // 2^b, Pastry digit base (16)
	NodeCounts  []int
	PerHopModel simnet.LinkModel
}

// DefaultModelOptions uses the reproduction's calibrated constants and the
// paper's 10^4-node target scale.
func DefaultModelOptions() ModelOptions {
	return ModelOptions{
		I:          time.Duration(core.InterposeCost),
		HopCost:    700 * time.Microsecond, // one overlay RPC round trip
		Base:       16,
		NodeCounts: []int{1, 2, 4, 8, 16, 64, 256, 1024, 4096, 10000},
	}
}

// ModelRow is the predicted per-operation overhead at one overlay size.
type ModelRow struct {
	N          int           `json:"n"`
	Hops       int           `json:"hops"`
	RemoteFrac float64       `json:"remote_frac"`
	D          time.Duration `json:"d_ns"`
}

// ModelResult is the model evaluated at every overlay size.
type ModelResult struct {
	Rows []ModelRow `json:"rows"`

	opts ModelOptions // what the run used; the renderers read their headers from it
}

// RunModel evaluates the analytic model.
func RunModel(opts ModelOptions) *ModelResult {
	res := &ModelResult{opts: opts}
	for _, n := range opts.NodeCounts {
		h := 0
		if n > 1 {
			h = int(math.Ceil(math.Log(float64(n)) / math.Log(float64(opts.Base))))
			if h < 1 {
				h = 1
			}
		}
		rf := float64(n-1) / float64(n)
		d := opts.I + time.Duration(float64(h)*float64(opts.HopCost)*rf)
		res.Rows = append(res.Rows, ModelRow{N: n, Hops: h, RemoteFrac: rf, D: d})
	}
	return res
}

// Fprint renders the model table; the paper's conclusion — "the overhead D
// does not exceed 4ms plus a constant factor" for 10^4 nodes — is directly
// visible in the final row.
func (r *ModelResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Section 6.1.2 overhead model: D = I + H*hc*(N-1)/N  (I=%v, hc=%v, base %d)\n",
		r.opts.I, r.opts.HopCost, r.opts.Base)
	fmt.Fprintf(w, "%-8s %6s %12s %14s\n", "N", "H", "(N-1)/N", "D")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %6d %12.4f %14v\n", row.N, row.Hops, row.RemoteFrac, row.D)
	}
}
