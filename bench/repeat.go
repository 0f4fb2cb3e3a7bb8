package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// repeatCheck is the benchmark's own steadiness check, the one the driver
// applies: N runs per workload, each a fresh process on its own seed, and per
// metric the interquartile spread ÷ median; for the end-to-end metrics
// (--trace 0) beside its bound. It returns the exit code: 1 when a spread
// exceeds its bound or a run fails. The per-layer metrics (--trace 1) have no
// bound, so their spreads are only listed.
func repeatCheck(o options) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	for _, wl := range names {
		values := map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			args := []string{"--workload", wl, "--seed", strconv.FormatUint(o.seed+uint64(i), 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--out", o.outDir}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl, o.seed+uint64(i), err)
				return 1
			}
			res, err := lastLine(out)
			if err != nil || !res.Correct || res.Failed != 0 {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: bad result (%v)\n", wl, o.seed+uint64(i), err)
				return 1
			}
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
			}
		}
		fmt.Printf("%-8s %-36s %14s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
		if o.trace {
			for _, e := range bf.PerLayer {
				fmt.Printf("%-8s %-36s %14.6g %8.2f%% %7s\n", wl, e.Name, median(values[e.Name]), spread(values[e.Name])*100, "-")
			}
			continue
		}
		for _, e := range bf.EndToEnd {
			sp := spread(values[e.Name])
			verdict := "ok"
			switch {
			case sp > e.Bound:
				verdict = "EXCEEDS BOUND"
				code = 1
			case sp > e.Bound/3:
				verdict = "over a third of the bound"
			}
			fmt.Printf("%-8s %-36s %14.6g %8.2f%% %6.0f%%  %s\n", wl, e.Name, median(values[e.Name]), sp*100, e.Bound*100, verdict)
		}
	}
	return code
}

// lastLine decodes the result line: the last line of a run's stdout.
func lastLine(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
