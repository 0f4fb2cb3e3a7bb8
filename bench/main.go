// Command bench is the Kosha benchmark: three closed-loop, single-client
// simnet workloads, 8 bounded end-to-end metrics, and — with --trace 1 — the
// wall clock, a traced pass of the same op stream and a small layer ledger for
// the per-layer numbers. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	repeat   int
	outDir   string
}

// box is the time the set-up samples (--trace 0) or the measured rounds
// (--trace 1) may take; quick runs one set-up and only the fixed rounds.
func (o options) box() time.Duration {
	if o.quick {
		return 0
	}
	return time.Duration(o.seconds) * time.Second
}

var workloadNames = []string{"mab", "meta", "stream"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "mab, meta or stream")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: op order and payload bytes")
	flag.IntVar(&o.seconds, "seconds", 20, "time box: of the set-up samples (--trace 0), of the measured rounds (--trace 1)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced pass + layer ledger, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: one small round each, numbers meaningless")
	flag.IntVar(&o.repeat, "repeat", 0, "self-check: N runs per workload on N seeds, spreads against BENCHMARK.json bounds (--trace 1: per-layer spreads, unbounded)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for the span file and ledger scratch")
	flag.Parse()
	o.trace = trace != 0

	fmt.Printf("# kosha-bench seed=%d workload=%s seconds=%d trace=%d quick=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		o.seed, o.workload, o.seconds, trace, o.quick, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	if o.repeat > 0 {
		os.Exit(repeatCheck(o))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res.print(os.Stdout)
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print lists every metric by name with its unit, then the result line.
func (r *result) print(w *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}

// run executes one workload: the timed pass (--trace 0) or the traced pass
// and the ledger (--trace 1).
func run(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.quick)
	if err != nil {
		return nil, err
	}
	var metrics map[string]metric
	var m *meter
	if o.trace {
		metrics, m, err = perLayer(w, o)
	} else {
		metrics, m, err = endToEnd(w, o)
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: m.failed == 0, Attempted: m.calls + m.checked, Failed: m.failed, Metrics: metrics}, nil
}

// commit names the source revision: the VCS stamp when the toolchain left
// one, else git, else "unknown" (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
