// Command koshabench regenerates the paper's tables and figures.
//
// Usage:
//
//	koshabench -exp table1|table2|fig5|fig6|fig7|scale|model|cache|latency|sync|dedup|stream|churn|rebalance|all [-runs N] [-quick] [-format table|csv|json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/mab"
	"repro/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig5, fig6, fig7, scale, model, cache, latency, sync, dedup, stream, churn, rebalance, all")
	runs := flag.Int("runs", 0, "override the number of averaged runs (0 = default)")
	quick := flag.Bool("quick", false, "scaled-down workloads for a fast smoke run")
	format := flag.String("format", "table", "output format: table, csv, or json (json: latency only)")
	sample := flag.Bool("sample", false, "latency: retain per-phase time-series samples in the output")
	flag.Parse()
	csv := *format == "csv"

	var names []string
	ran := false
	run := func(name string, fn func() error) {
		names = append(names, name)
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		opts := experiments.DefaultTable1Options()
		if *runs > 0 {
			opts.Runs = *runs
		}
		if *quick {
			opts.Workload = mab.Tiny()
			opts.Runs = 2
		}
		res, err := experiments.RunTable1(opts)
		if err != nil {
			return err
		}
		if csv {
			res.FprintCSV(os.Stdout, opts)
		} else {
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("fig5", func() error {
		opts := experiments.DefaultFigure5Options()
		if *runs > 0 {
			opts.Seeds = *runs
		}
		if *quick {
			opts.Trace = trace.SmallFSConfig()
			opts.Seeds = 5
		}
		res, err := experiments.RunFigure5(opts)
		if err != nil {
			return err
		}
		if csv {
			res.FprintCSV(os.Stdout, opts)
		} else {
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("fig6", func() error {
		opts := experiments.DefaultFigure6Options()
		if *runs > 0 {
			opts.Seeds = *runs
		}
		if *quick {
			opts.Trace = trace.SmallFSConfig()
			// Scale capacities with the smaller trace (keep the 3:4:5 mix).
			for i := range opts.Capacities {
				opts.Capacities[i] /= 256
			}
			opts.Seeds = 5
		}
		res, err := experiments.RunFigure6(opts)
		if err != nil {
			return err
		}
		if csv {
			res.FprintCSV(os.Stdout, opts)
		} else {
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("fig7", func() error {
		opts := experiments.DefaultFigure7Options()
		if *runs > 0 {
			opts.Runs = *runs
		}
		if *quick {
			opts.Trace = trace.SmallFSConfig()
			opts.Nodes = 50
			opts.Avail = trace.CorporateAvailConfig(50)
			opts.Runs = 3
		}
		res, err := experiments.RunFigure7(opts)
		if err != nil {
			return err
		}
		if csv {
			res.FprintCSV(os.Stdout, opts)
		} else {
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("scale", func() error {
		opts := experiments.DefaultScaleOptions()
		if *quick {
			opts.NodeCounts = []int{50, 100}
			opts.Epochs = 6
			opts.Ops = 180
			opts.FS = trace.SmallFSConfig()
		}
		res, err := experiments.RunScale(opts)
		if err != nil {
			return err
		}
		switch {
		case *format == "json":
			return res.FprintJSON(os.Stdout)
		case csv:
			res.FprintCSV(os.Stdout, opts)
		default:
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("model", func() error {
		opts := experiments.DefaultModelOptions()
		rows := experiments.RunModel(opts)
		if csv {
			experiments.FprintModelCSV(os.Stdout, rows)
		} else {
			experiments.FprintModel(os.Stdout, rows, opts)
		}
		return nil
	})

	run("table2", func() error {
		opts := experiments.DefaultTable2Options()
		if *runs > 0 {
			opts.Runs = *runs
		}
		if *quick {
			opts.Workload = mab.Tiny()
			opts.Runs = 2
		}
		res, err := experiments.RunTable2(opts)
		if err != nil {
			return err
		}
		if csv {
			res.FprintCSV(os.Stdout, opts)
		} else {
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("latency", func() error {
		opts := experiments.DefaultLatencyOptions()
		opts.Sample = *sample
		if *quick {
			opts.Dirs = 3
			opts.FilesPerDir = 4
			opts.FileSize = 4 << 10
		}
		res, err := experiments.RunLatency(opts)
		if err != nil {
			return err
		}
		switch *format {
		case "json":
			return res.FprintJSON(os.Stdout)
		case "csv":
			res.FprintCSV(os.Stdout, opts)
		default:
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("sync", func() error {
		opts := experiments.DefaultSyncOptions()
		if *quick {
			opts.Files = 32
			opts.FileSize = 2 << 10
		}
		res, err := experiments.RunSync(opts)
		if err != nil {
			return err
		}
		switch *format {
		case "json":
			return res.FprintJSON(os.Stdout)
		case "csv":
			res.FprintCSV(os.Stdout, opts)
		default:
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("dedup", func() error {
		opts := experiments.DefaultDedupOptions()
		if *quick {
			opts.Users = 2
			opts.FilesPerUser = 8
			opts.FileSize = 64 << 10
			opts.EditFileSize = 1 << 20
		}
		res, err := experiments.RunDedup(opts)
		if err != nil {
			return err
		}
		switch *format {
		case "json":
			return res.FprintJSON(os.Stdout)
		case "csv":
			res.FprintCSV(os.Stdout, opts)
		default:
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("stream", func() error {
		opts := experiments.DefaultStreamOptions()
		if *quick {
			opts.FileBytes = 8 << 20
			opts.RandReads = 8
			opts.WriteCount = 64
		}
		res, err := experiments.RunStream(opts)
		if err != nil {
			return err
		}
		switch *format {
		case "json":
			return res.FprintJSON(os.Stdout)
		case "csv":
			res.FprintCSV(os.Stdout, opts)
		default:
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("rebalance", func() error {
		opts := experiments.DefaultRebalanceOptions()
		if *quick {
			opts.Trees = 24
			opts.BigFile = 48 << 10
			opts.SmallFile = 6 << 10
		}
		res, err := experiments.RunRebalance(opts)
		if err != nil {
			return err
		}
		switch *format {
		case "json":
			return res.FprintJSON(os.Stdout)
		case "csv":
			res.FprintCSV(os.Stdout, opts)
		default:
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("churn", func() error {
		opts := experiments.DefaultChurnOptions()
		if *runs > 0 {
			opts.Runs = *runs
		}
		if *quick {
			opts.Replicas = []int{2}
			opts.Failed = []int{0, 1}
			opts.Files = 16
			opts.Runs = 1
		}
		res, err := experiments.RunChurn(opts)
		if err != nil {
			return err
		}
		if csv {
			res.FprintCSV(os.Stdout, opts)
		} else {
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	run("cache", func() error {
		opts := experiments.DefaultCacheAblationOptions()
		if *quick {
			opts.Dirs = 2
			opts.FilesPerDir = 8
			opts.Sweeps = 2
		}
		res, err := experiments.RunCacheAblation(opts)
		if err != nil {
			return err
		}
		if csv {
			res.FprintCSV(os.Stdout, opts)
		} else {
			res.Fprint(os.Stdout, opts)
		}
		return nil
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "koshabench: unknown experiment %q; valid: %s, all\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}
