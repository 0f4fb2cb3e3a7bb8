// Command koshatrace emits the synthetic workload traces the experiments
// consume (file-system contents and node availability), for inspection or
// for use by external tooling. These are inputs to the benchmarks — for the
// operation traces a running cluster records, see "koshactl trace dump".
//
//	koshatrace -kind fs -seed 1            # file-system trace (CSV: path,bytes)
//	koshatrace -kind fs -small             # scaled-down variant
//	koshatrace -kind avail -nodes 200      # availability trace (CSV: hour,up-count)
//	koshatrace -kind avail -full           # full per-node up/down matrix
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	kind := flag.String("kind", "fs", "trace kind: fs or avail")
	seed := flag.Uint64("seed", 1, "generator seed")
	small := flag.Bool("small", false, "use the scaled-down fs config")
	nodes := flag.Int("nodes", 200, "machine count for the availability trace")
	full := flag.Bool("full", false, "availability: emit the full per-node matrix")
	flag.Parse()
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "koshatrace: -nodes %d: want at least 1 machine\n", *nodes)
		os.Exit(2)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	switch *kind {
	case "fs":
		cfg := trace.PurdueFSConfig()
		if *small {
			cfg = trace.SmallFSConfig()
		}
		tr := trace.GenFS(cfg, *seed)
		fmt.Fprintf(w, "# users=%d files=%d bytes=%d seed=%d\n",
			tr.Users, len(tr.Files), tr.TotalBytes(), *seed)
		for _, f := range tr.Files {
			fmt.Fprintf(w, "%s,%d\n", f.Path, f.Size)
		}

	case "avail":
		cfg := trace.CorporateAvailConfig(*nodes)
		tr := trace.GenAvail(cfg, *seed)
		hour, down := tr.MaxSimultaneousFailures()
		fmt.Fprintf(w, "# hours=%d nodes=%d seed=%d max-down=%d@hour%d\n",
			tr.Hours, tr.Nodes, *seed, down, hour)
		for h := 0; h < tr.Hours; h++ {
			if *full {
				fmt.Fprintf(w, "%d", h)
				for _, up := range tr.Up[h] {
					if up {
						fmt.Fprint(w, ",1")
					} else {
						fmt.Fprint(w, ",0")
					}
				}
				fmt.Fprintln(w)
			} else {
				fmt.Fprintf(w, "%d,%d\n", h, tr.UpCount(h))
			}
		}

	default:
		fmt.Fprintf(os.Stderr, "koshatrace: unknown kind %q\n", *kind)
		os.Exit(2)
	}
}
