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
)

// settings are the flags an experiment's options depend on.
type settings struct {
	runs   int  // -runs: averaged runs or seeds; 0 keeps the experiment's default
	quick  bool // -quick: the experiment's scaled-down options; -runs is then ignored
	sample bool // -sample: latency only
}

// pick returns an experiment's default options, or its -quick shrink.
func pick[O any](s settings, def, quick func() O) O {
	if s.quick {
		return quick()
	}
	return def()
}

// orRuns is the averaged-run count an experiment uses: its own, unless -runs
// overrides it on a full-size run.
func (s settings) orRuns(own int) int {
	if s.runs > 0 && !s.quick {
		return s.runs
	}
	return own
}

// table lists every experiment in the order -exp all runs them.
var table = []struct {
	name string
	run  func(settings) (experiments.Result, error)
}{
	{"table1", func(s settings) (experiments.Result, error) {
		o := pick(s, experiments.DefaultTable1Options, experiments.QuickTable1Options)
		o.Runs = s.orRuns(o.Runs)
		return experiments.RunTable1(o)
	}},
	{"fig5", func(s settings) (experiments.Result, error) {
		o := pick(s, experiments.DefaultFigure5Options, experiments.QuickFigure5Options)
		o.Seeds = s.orRuns(o.Seeds)
		return experiments.RunFigure5(o)
	}},
	{"fig6", func(s settings) (experiments.Result, error) {
		o := pick(s, experiments.DefaultFigure6Options, experiments.QuickFigure6Options)
		o.Seeds = s.orRuns(o.Seeds)
		return experiments.RunFigure6(o)
	}},
	{"fig7", func(s settings) (experiments.Result, error) {
		o := pick(s, experiments.DefaultFigure7Options, experiments.QuickFigure7Options)
		o.Runs = s.orRuns(o.Runs)
		return experiments.RunFigure7(o)
	}},
	{"scale", func(s settings) (experiments.Result, error) {
		return experiments.RunScale(pick(s, experiments.DefaultScaleOptions, experiments.QuickScaleOptions))
	}},
	{"model", func(settings) (experiments.Result, error) {
		return experiments.RunModel(experiments.DefaultModelOptions()), nil
	}},
	{"table2", func(s settings) (experiments.Result, error) {
		o := pick(s, experiments.DefaultTable2Options, experiments.QuickTable2Options)
		o.Runs = s.orRuns(o.Runs)
		return experiments.RunTable2(o)
	}},
	{"latency", func(s settings) (experiments.Result, error) {
		o := pick(s, experiments.DefaultLatencyOptions, experiments.QuickLatencyOptions)
		o.Sample = s.sample
		return experiments.RunLatency(o)
	}},
	{"sync", func(s settings) (experiments.Result, error) {
		return experiments.RunSync(pick(s, experiments.DefaultSyncOptions, experiments.QuickSyncOptions))
	}},
	{"dedup", func(s settings) (experiments.Result, error) {
		return experiments.RunDedup(pick(s, experiments.DefaultDedupOptions, experiments.QuickDedupOptions))
	}},
	{"stream", func(s settings) (experiments.Result, error) {
		return experiments.RunStream(pick(s, experiments.DefaultStreamOptions, experiments.QuickStreamOptions))
	}},
	{"rebalance", func(s settings) (experiments.Result, error) {
		return experiments.RunRebalance(pick(s, experiments.DefaultRebalanceOptions, experiments.QuickRebalanceOptions))
	}},
	{"churn", func(s settings) (experiments.Result, error) {
		o := pick(s, experiments.DefaultChurnOptions, experiments.QuickChurnOptions)
		o.Runs = s.orRuns(o.Runs)
		return experiments.RunChurn(o)
	}},
	{"cache", func(s settings) (experiments.Result, error) {
		return experiments.RunCacheAblation(pick(s, experiments.DefaultCacheAblationOptions, experiments.QuickCacheAblationOptions))
	}},
}

// usage reports a bad flag value with the valid ones and exits 2.
func usage(what, got, valid string) {
	fmt.Fprintf(os.Stderr, "koshabench: unknown %s %q; valid: %s\n", what, got, valid)
	os.Exit(2)
}

func main() {
	names := make([]string, 0, len(table)+1)
	for _, e := range table {
		names = append(names, e.name)
	}
	names = append(names, "all")

	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	format := flag.String("format", "table", "output format: table, csv, or json")
	var s settings
	flag.IntVar(&s.runs, "runs", 0, "override the number of averaged runs (0 = default)")
	flag.BoolVar(&s.quick, "quick", false, "scaled-down workloads for a fast smoke run")
	flag.BoolVar(&s.sample, "sample", false, "latency: retain per-phase time-series samples in the output")
	flag.Parse()

	var emit func(experiments.Result) error
	switch *format {
	case "table":
		emit = func(r experiments.Result) error { r.Fprint(os.Stdout); return nil }
	case "csv":
		emit = func(r experiments.Result) error { r.FprintCSV(os.Stdout); return nil }
	case "json":
		emit = func(r experiments.Result) error { return experiments.FprintJSON(os.Stdout, r) }
	default:
		usage("format", *format, "table, csv, json")
	}

	ran := false
	for _, e := range table {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		res, err := e.run(s)
		if err == nil {
			err = emit(res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		usage("experiment", *exp, strings.Join(names, ", "))
	}
}
