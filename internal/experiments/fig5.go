package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/pastry"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Figure5Options parameterizes the load-distribution simulation (Section
// 6.2): "we simulated a Kosha cluster of 16 nodes and fixed the number of
// replicas to 3 ... The distribution level was varied from 1 to 10 ... The
// simulation was repeated 50 times varying the nodeId assignments".
type Figure5Options struct {
	Nodes    int
	Replicas int
	Levels   []int
	Seeds    int
	Trace    trace.FSConfig
	Seed     uint64
}

// DefaultFigure5Options mirrors the paper's setup.
func DefaultFigure5Options() Figure5Options {
	return Figure5Options{
		Nodes:    16,
		Replicas: 3,
		Levels:   []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Seeds:    50,
		Trace:    trace.PurdueFSConfig(),
		Seed:     5,
	}
}

// QuickFigure5Options is the -quick shrink: the small trace, five seeds.
func QuickFigure5Options() Figure5Options {
	o := DefaultFigure5Options()
	o.Trace = trace.SmallFSConfig()
	o.Seeds = 5
	return o
}

// Figure5Row is the per-level result: mean and standard deviation of the
// per-node percentage of file count and of bytes, across nodes and seeds.
type Figure5Row struct {
	Level        int     `json:"level"`
	MeanFilesPct float64 `json:"files_mean_pct"`
	StdFilesPct  float64 `json:"files_std_pct"`
	MeanBytesPct float64 `json:"bytes_mean_pct"`
	StdBytesPct  float64 `json:"bytes_std_pct"`
}

// Figure5Result carries the directory-level rows plus the per-file-hashing
// bound (the dotted lines in the paper's figure: "the upper bound on the
// best load balancing ... using DHTs").
type Figure5Result struct {
	Rows    []Figure5Row `json:"rows"`
	PerFile Figure5Row   `json:"per_file"` // Level is -1

	opts Figure5Options // what the run used; the renderers read their headers from it
}

// dirGroup aggregates a controlling placement name's files and bytes.
type dirGroup struct {
	files int64
	bytes int64
}

// controllingName returns the placement name controlling a file path at
// distribution level L: the name of its depth-min(d, L) ancestor directory
// (Sections 3.1-3.2; no redirection here — "Each node contributed 10 GB of
// disk space to avoid file redirection").
func controllingName(filePath string, level int) string {
	dir := trace.DirOf(filePath)
	parts := strings.Split(strings.TrimPrefix(dir, "/"), "/")
	d := core.ControllingDepth(len(parts), level)
	if d == 0 {
		return ""
	}
	return parts[d-1]
}

// RunFigure5 executes the load-distribution simulation.
func RunFigure5(opts Figure5Options) (*Figure5Result, error) {
	tr := trace.GenFS(opts.Trace, opts.Seed)

	// Pre-aggregate the trace by controlling name per level, and by full
	// path for the per-file bound. Name collisions colocate by design.
	perLevel := make(map[int]map[id.ID]*dirGroup, len(opts.Levels))
	for _, l := range opts.Levels {
		groups := make(map[id.ID]*dirGroup)
		for _, f := range tr.Files {
			key := core.Key(controllingName(f.Path, l))
			g := groups[key]
			if g == nil {
				g = &dirGroup{}
				groups[key] = g
			}
			g.files++
			g.bytes += f.Size
		}
		perLevel[l] = groups
	}

	res := &Figure5Result{opts: opts}
	totFiles := float64(len(tr.Files))
	totBytes := float64(tr.TotalBytes())

	place := func(groups map[id.ID]*dirGroup, seed uint64) ([]float64, []float64) {
		ring := pastry.RandomRing(opts.Nodes, seed)
		files := make([]int64, opts.Nodes)
		bytes := make([]int64, opts.Nodes)
		var allF, allB int64
		for key, g := range groups {
			for _, h := range ring.Holders(key, opts.Replicas) {
				files[h] += g.files
				bytes[h] += g.bytes
				allF += g.files
				allB += g.bytes
			}
		}
		fp := make([]float64, opts.Nodes)
		bp := make([]float64, opts.Nodes)
		for i := range files {
			fp[i] = float64(files[i]) / float64(allF) * 100
			bp[i] = float64(bytes[i]) / float64(allB) * 100
		}
		return fp, bp
	}

	for _, l := range opts.Levels {
		var fAcc, bAcc stats.Accum
		for s := 0; s < opts.Seeds; s++ {
			fp, bp := place(perLevel[l], opts.Seed*1_000_003+uint64(s))
			for i := range fp {
				fAcc.Add(fp[i])
				bAcc.Add(bp[i])
			}
		}
		res.Rows = append(res.Rows, Figure5Row{
			Level:        l,
			MeanFilesPct: fAcc.Mean(),
			StdFilesPct:  fAcc.StdDev(),
			MeanBytesPct: bAcc.Mean(),
			StdBytesPct:  bAcc.StdDev(),
		})
	}

	// Per-file hashing bound: each file keyed by its full path.
	fileGroups := make(map[id.ID]*dirGroup, len(tr.Files))
	for _, f := range tr.Files {
		key := id.HashKey(f.Path)
		g := fileGroups[key]
		if g == nil {
			g = &dirGroup{}
			fileGroups[key] = g
		}
		g.files++
		g.bytes += f.Size
	}
	var fAcc, bAcc stats.Accum
	for s := 0; s < opts.Seeds; s++ {
		fp, bp := place(fileGroups, opts.Seed*1_000_003+uint64(s))
		for i := range fp {
			fAcc.Add(fp[i])
			bAcc.Add(bp[i])
		}
	}
	res.PerFile = Figure5Row{
		Level:        -1,
		MeanFilesPct: fAcc.Mean(),
		StdFilesPct:  fAcc.StdDev(),
		MeanBytesPct: bAcc.Mean(),
		StdBytesPct:  bAcc.StdDev(),
	}
	_ = totFiles
	_ = totBytes
	return res, nil
}

// Fprint renders the two series with the per-file bound.
func (r *Figure5Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: per-node load distribution, %d nodes, %d replicas, %d seeds\n",
		r.opts.Nodes, r.opts.Replicas, r.opts.Seeds)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n",
		"dist-level", "files mean%", "files std%", "bytes mean%", "bytes std%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12d %12.2f %12.2f %12.2f %12.2f\n",
			row.Level, row.MeanFilesPct, row.StdFilesPct, row.MeanBytesPct, row.StdBytesPct)
	}
	fmt.Fprintf(w, "%-12s %12.2f %12.2f %12.2f %12.2f   (finest-grained bound)\n",
		"per-file", r.PerFile.MeanFilesPct, r.PerFile.StdFilesPct,
		r.PerFile.MeanBytesPct, r.PerFile.StdBytesPct)
}
