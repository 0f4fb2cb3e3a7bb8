package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
)

// CacheAblationOptions parameterizes the client-cache ablation: a
// readdir+stat-all-entries scan (the `ls -l` pattern dominating the MAB
// stat/readdir phases) over a pre-built tree, run with the mount's
// attribute/name caches enabled and disabled.
type CacheAblationOptions struct {
	Nodes       int
	Dirs        int // directories scanned
	FilesPerDir int // entries per directory
	Sweeps      int // full scans of the tree
	Seed        uint64
}

// DefaultCacheAblationOptions uses the Table 1/2 cluster shape with a tree
// big enough that per-entry round trips dominate.
func DefaultCacheAblationOptions() CacheAblationOptions {
	return CacheAblationOptions{
		Nodes:       8,
		Dirs:        8,
		FilesPerDir: 24,
		Sweeps:      3,
		Seed:        9,
	}
}

// QuickCacheAblationOptions is the -quick shrink: two small directories,
// two sweeps.
func QuickCacheAblationOptions() CacheAblationOptions {
	o := DefaultCacheAblationOptions()
	o.Dirs = 2
	o.FilesPerDir = 8
	o.Sweeps = 2
	return o
}

// CacheArm is one side of the ablation.
type CacheArm struct {
	RPCs    uint64  `json:"rpcs"`        // NFS round trips issued by the scanning node
	Bytes   uint64  `json:"bytes"`       // request+response payload bytes of those RPCs
	Ops     int     `json:"ops"`         // client operations (1 per readdir, 1 per stat)
	RPCsOp  float64 `json:"rpcs_per_op"` // RPCs / Ops
	Seconds float64 `json:"sim_seconds"` // simulated time of the scan
}

// CacheAblationResult compares the two arms.
type CacheAblationResult struct {
	On              CacheArm `json:"on"`
	Off             CacheArm `json:"off"`
	RPCReductionPct float64  `json:"rpc_reduction_pct"` // fewer RPCs with caching, percent of Off
	TimeSavedPct    float64  `json:"time_saved_pct"`    // simulated-time saving, percent of Off

	opts CacheAblationOptions // what the run used; the renderers read their headers from it
}

// RunCacheAblation builds the same tree under both configurations and
// measures only the scan: for every directory, one Readdir followed by a
// Lookup+Getattr of each entry, repeated Sweeps times. Directory handles are
// resolved before counters reset so both arms start from identical state.
func RunCacheAblation(opts CacheAblationOptions) (*CacheAblationResult, error) {
	run := func(noCache bool) (CacheArm, error) {
		cfg := koshaCfg()
		cfg.NoMetadataCache = noCache
		c, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
		if err != nil {
			return CacheArm{}, err
		}
		m := c.Mount(0)
		dirs := make([]core.VH, opts.Dirs)
		names := make([][]string, opts.Dirs)
		for d := 0; d < opts.Dirs; d++ {
			for f := 0; f < opts.FilesPerDir; f++ {
				name := fmt.Sprintf("/scan%02d/f%03d", d, f)
				if _, err := m.WriteFile(name, []byte(name)); err != nil {
					return CacheArm{}, fmt.Errorf("populate %s: %w", name, err)
				}
			}
			vh, _, _, err := m.LookupPath(fmt.Sprintf("/scan%02d", d))
			if err != nil {
				return CacheArm{}, err
			}
			dirs[d] = vh
		}

		nd := c.Nodes[0]
		nd.ResetNFSStats()
		var arm CacheArm
		var total simnet.Cost
		for s := 0; s < opts.Sweeps; s++ {
			for d, dvh := range dirs {
				ents, cost, err := m.Readdir(dvh)
				if err != nil {
					return CacheArm{}, err
				}
				total += cost
				arm.Ops++
				if s == 0 {
					for _, e := range ents {
						names[d] = append(names[d], e.Name)
					}
				}
				for _, name := range names[d] {
					vh, _, lcost, err := m.Lookup(dvh, name)
					if err != nil {
						return CacheArm{}, fmt.Errorf("lookup %s: %w", name, err)
					}
					_, gcost, err := m.Getattr(vh)
					if err != nil {
						return CacheArm{}, fmt.Errorf("getattr %s: %w", name, err)
					}
					total += lcost + gcost
					arm.Ops++
				}
			}
		}
		st := nd.NFSStats()
		arm.RPCs = st.RPCs
		arm.Bytes = st.Bytes
		arm.Seconds = total.Seconds()
		if arm.Ops > 0 {
			arm.RPCsOp = float64(arm.RPCs) / float64(arm.Ops)
		}
		return arm, nil
	}

	on, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("cache ablation (on): %w", err)
	}
	off, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("cache ablation (off): %w", err)
	}
	res := &CacheAblationResult{opts: opts, On: on, Off: off}
	if off.RPCs > 0 {
		res.RPCReductionPct = (1 - float64(on.RPCs)/float64(off.RPCs)) * 100
	}
	if off.Seconds > 0 {
		res.TimeSavedPct = (1 - on.Seconds/off.Seconds) * 100
	}
	return res, nil
}

// Fprint renders the comparison.
func (r *CacheAblationResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Cache ablation: readdir + stat-all-entries, %d dirs x %d files x %d sweeps\n",
		r.opts.Dirs, r.opts.FilesPerDir, r.opts.Sweeps)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s\n", "Caching", "NFS RPCs", "rpcs/op", "sim-sec", "bytes")
	for _, row := range []struct {
		name string
		arm  CacheArm
	}{{"off", r.Off}, {"on", r.On}} {
		fmt.Fprintf(w, "%-10s %10d %10.2f %10.3f %12d\n",
			row.name, row.arm.RPCs, row.arm.RPCsOp, row.arm.Seconds, row.arm.Bytes)
	}
	fmt.Fprintf(w, "RPC reduction: %.1f%%   simulated-time saving: %.1f%%\n",
		r.RPCReductionPct, r.TimeSavedPct)
}

// FprintCSV renders the comparison as CSV.
func (r *CacheAblationResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "caching,rpcs,rpcs_per_op,sim_seconds,bytes")
	fmt.Fprintf(w, "off,%d,%.4f,%.4f,%d\n", r.Off.RPCs, r.Off.RPCsOp, r.Off.Seconds, r.Off.Bytes)
	fmt.Fprintf(w, "on,%d,%.4f,%.4f,%d\n", r.On.RPCs, r.On.RPCsOp, r.On.Seconds, r.On.Bytes)
}
