package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pastry"
	"repro/internal/trace"
)

// Figure6Options parameterizes the redirection/utilization simulation
// (Section 6.2): "a cluster of 16 nodes, 8 of which contributed 3 GB each,
// 4 nodes contributed 4 GB each, and 4 nodes contributed 5 GB each ... The
// distribution level was fixed at 4, and the number of the replicas was
// fixed at 3 ... repeated with file redirection attempts varying from 1 to
// 15 ... run 50 times varying the nodeId assignment".
type Figure6Options struct {
	Capacities []int64
	Level      int
	Replicas   int
	Attempts   []int // redirection attempt budgets; 0 = no redirection
	Seeds      int
	Trace      trace.FSConfig
	UtilLimit  float64 // utilization beyond which new placements redirect
	Seed       uint64
	Buckets    int // utilization sample points on the x axis
}

// DefaultFigure6Options mirrors the paper's setup.
func DefaultFigure6Options() Figure6Options {
	caps := make([]int64, 0, 16)
	for i := 0; i < 8; i++ {
		caps = append(caps, 3<<30)
	}
	for i := 0; i < 4; i++ {
		caps = append(caps, 4<<30)
	}
	for i := 0; i < 4; i++ {
		caps = append(caps, 5<<30)
	}
	return Figure6Options{
		Capacities: caps,
		Level:      4,
		Replicas:   3,
		Attempts:   []int{0, 1, 2, 4, 8, 15},
		Seeds:      50,
		Trace:      trace.PurdueFSConfig(),
		UtilLimit:  0.9,
		Seed:       6,
		Buckets:    20,
	}
}

// QuickFigure6Options is the -quick shrink: the small trace, five seeds, and
// capacities scaled down with the trace (keeping the 3:4:5 mix).
func QuickFigure6Options() Figure6Options {
	o := DefaultFigure6Options()
	o.Trace = trace.SmallFSConfig()
	for i := range o.Capacities {
		o.Capacities[i] /= 256
	}
	o.Seeds = 5
	return o
}

// Figure6Curve is one redirection budget's cumulative-failure-ratio curve,
// sampled at utilization buckets.
type Figure6Curve struct {
	Attempts int       `json:"attempts"`
	Util     []float64 `json:"utilization"`   // bucket upper edges, 0..1
	Failure  []float64 `json:"failure_ratio"` // cumulative failure ratio when that utilization was reached
}

// Figure6Result carries one curve per attempt budget (averaged over seeds).
type Figure6Result struct {
	Curves []Figure6Curve `json:"curves"`

	opts Figure6Options // what the run used; the renderers read their headers from it
}

// fig6Dir tracks one virtual directory's current placement.
type fig6Dir struct {
	name string // controlling directory name
	salt int    // current redirection attempt level
	node int    // ring index currently hosting the directory
}

// RunFigure6 executes the redirection simulation.
func RunFigure6(opts Figure6Options) (*Figure6Result, error) {
	tr := trace.GenFS(opts.Trace, opts.Seed)
	n := len(opts.Capacities)

	// Precompute each file's controlling directory path and name.
	type fileRec struct {
		dirPath string
		name    string
		size    int64
	}
	recs := make([]fileRec, len(tr.Files))
	for i, f := range tr.Files {
		dir := trace.DirOf(f.Path)
		parts := strings.Split(strings.TrimPrefix(dir, "/"), "/")
		d := core.ControllingDepth(len(parts), opts.Level)
		name := ""
		if d > 0 {
			name = parts[d-1]
		}
		recs[i] = fileRec{
			dirPath: "/" + strings.Join(parts[:d], "/"),
			name:    name,
			size:    f.Size,
		}
	}

	var totalCap int64
	for _, c := range opts.Capacities {
		totalCap += c
	}

	res := &Figure6Result{opts: opts}
	for _, attempts := range opts.Attempts {
		sumFail := make([]float64, opts.Buckets)
		cnt := make([]int, opts.Buckets)
		for s := 0; s < opts.Seeds; s++ {
			ring := pastry.RandomRing(n, opts.Seed*7_000_003+uint64(s))
			used := make([]int64, n)
			var stored int64
			dirs := make(map[string]*fig6Dir)
			inserts, failures := 0, 0
			curve := make([]float64, opts.Buckets)
			seen := make([]bool, opts.Buckets)

			utilOK := func(node int) bool {
				cap := opts.Capacities[node]
				return float64(used[node])/float64(cap) < opts.UtilLimit
			}
			fits := func(node int, size int64) bool {
				return used[node]+size <= opts.Capacities[node]
			}

			for _, rec := range recs {
				d := dirs[rec.dirPath]
				if d == nil {
					// Place the directory: hash the name, redirect while
					// the target exceeds the utilization limit.
					d = &fig6Dir{name: rec.name}
					d.node = ring.Root(core.Key(core.Salted(rec.name, 0)))
					for a := 1; a <= attempts && !utilOK(d.node); a++ {
						d.salt = a
						d.node = ring.Root(core.Key(core.Salted(rec.name, a)))
					}
					dirs[rec.dirPath] = d
				}
				inserts++
				// The file goes to the directory's node; if it no longer
				// fits, redirection retries salted placements (iterative,
				// after PAST) before declaring an insertion failure.
				target := d.node
				if !fits(target, rec.size) {
					ok := false
					for a := d.salt + 1; a <= d.salt+attempts; a++ {
						cand := ring.Root(core.Key(core.Salted(rec.name, a)))
						if fits(cand, rec.size) && utilOK(cand) {
							d.salt, d.node, target = a, cand, cand
							ok = true
							break
						}
					}
					if !ok {
						failures++
						recordBucket(curve, seen, stored, totalCap, inserts, failures, opts.Buckets)
						continue
					}
				}
				used[target] += rec.size
				stored += rec.size
				// Replicas land on the ring-adjacent neighbors with space;
				// a full replica target drops that copy (repair would move
				// it later) rather than failing the insert.
				for _, rep := range ring.Replicas(target, opts.Replicas) {
					if fits(rep, rec.size) {
						used[rep] += rec.size
						stored += rec.size
					}
				}
				recordBucket(curve, seen, stored, totalCap, inserts, failures, opts.Buckets)
			}
			// Propagate the last seen value into later buckets so curves
			// that stop early still report their final ratio.
			last := 0.0
			for b := 0; b < opts.Buckets; b++ {
				if seen[b] {
					last = curve[b]
				} else {
					curve[b] = last
				}
				sumFail[b] += curve[b]
				cnt[b]++
			}
		}
		c := Figure6Curve{Attempts: attempts}
		for b := 0; b < opts.Buckets; b++ {
			c.Util = append(c.Util, float64(b+1)/float64(opts.Buckets))
			c.Failure = append(c.Failure, sumFail[b]/float64(cnt[b]))
		}
		res.Curves = append(res.Curves, c)
	}
	sort.Slice(res.Curves, func(i, j int) bool { return res.Curves[i].Attempts < res.Curves[j].Attempts })
	return res, nil
}

// recordBucket stores the cumulative failure ratio at the utilization
// bucket the simulation currently occupies.
func recordBucket(curve []float64, seen []bool, stored, totalCap int64, inserts, failures, buckets int) {
	util := float64(stored) / float64(totalCap)
	b := int(util * float64(buckets))
	if b >= buckets {
		b = buckets - 1
	}
	curve[b] = float64(failures) / float64(inserts)
	seen[b] = true
}

// Fprint renders the curves: one row per utilization bucket, one column per
// redirection budget.
func (r *Figure6Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: cumulative failure ratio vs utilization (level %d, %d replicas, %d seeds)\n",
		r.opts.Level, r.opts.Replicas, r.opts.Seeds)
	fmt.Fprintf(w, "%-12s", "utilization")
	for _, c := range r.Curves {
		label := fmt.Sprintf("redir %d", c.Attempts)
		if c.Attempts == 0 {
			label = "no redir"
		}
		fmt.Fprintf(w, " %10s", label)
	}
	fmt.Fprintln(w)
	for b := range r.Curves[0].Util {
		fmt.Fprintf(w, "%-12.2f", r.Curves[0].Util[b])
		for _, c := range r.Curves {
			fmt.Fprintf(w, " %10.4f", c.Failure[b])
		}
		fmt.Fprintln(w)
	}
}
