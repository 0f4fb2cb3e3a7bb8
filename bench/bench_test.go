package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/mab"
)

func TestPercentile(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	if got := percentile(v, 0.50); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	// Nearest rank: exactly ten samples lie beyond the 99th percentile of 1000.
	if got := percentile(v, 0.99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}
	q1, q3 := quartiles(v)
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if m := median(v); m != 13.5 {
		t.Errorf("median = %v, want 13.5", m)
	}
	if s := spread(v); math.Abs(s-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", s, 27.5/13.5)
	}
}

// A box that runs at half speed for most of a run stretches set-up and
// calibration alike and leaves setup_s where it was; work added to the set-up
// alone shows in full.
func TestSetupSecondsCancelsBoxSpeed(t *testing.T) {
	calm := []setupSample{{0.20, 0.010}, {0.21, 0.010}, {0.19, 0.010}, {0.20, 0.010}, {0.20, 0.010}}
	slowed := append([]setupSample(nil), calm...)
	heavier := append([]setupSample(nil), calm...)
	for i := range calm {
		if i > 0 {
			slowed[i].setup, slowed[i].calib = 2*calm[i].setup, 2*calm[i].calib
		}
		heavier[i].setup *= 1.5
	}
	if got := setupSeconds(calm); math.Abs(got-0.20) > 1e-12 {
		t.Errorf("setup_s = %v, want 0.20", got)
	}
	if got := setupSeconds(slowed); math.Abs(got-0.20) > 1e-12 {
		t.Errorf("setup_s on a slowed box = %v, want 0.20", got)
	}
	if got := setupSeconds(heavier); math.Abs(got-0.30) > 1e-12 {
		t.Errorf("setup_s of a 1.5x set-up = %v, want 0.30", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},   // client op
		{ID: 2, Parent: 1, Start: 10, End: 40},   // first call
		{ID: 3, Parent: 2, Start: 15, End: 35},   // its handler
		{ID: 4, Parent: 3, Start: 20, End: 25},   // store call inside the handler
		{ID: 5, Parent: 1, Start: 50, End: 80},   // second call
		{ID: 6, Parent: 1, Start: 70, End: 90},   // overlaps the second: union is 50..90
		{ID: 7, Parent: 0, Start: 200, End: 230}, // an op with no children
	}
	want := []int64{100 - 30 - 40, 30 - 20, 20 - 5, 5, 30, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
	// Without overlap the self times of a trace add up to its root's duration.
	var sum int64
	for i := 0; i < 5; i++ {
		sum += selfTimes(spans[:5])[i]
	}
	if sum != 100 {
		t.Errorf("self times of the first op sum to %d, want its 100 ns", sum)
	}
}

func TestPayloadOracle(t *testing.T) {
	key := contentKey(9, "/u001/a/f00001", 3)
	whole := make([]byte, 4099)
	fill(whole, key, 0)
	for _, r := range [][2]int{{0, 4099}, {1, 8}, {5, 4000}, {8, 16}, {4090, 9}, {13, 1}} {
		part := make([]byte, r[1])
		fill(part, key, int64(r[0]))
		if string(part) != string(whole[r[0]:r[0]+r[1]]) {
			t.Errorf("fill at %d+%d disagrees with the whole-file payload", r[0], r[1])
		}
		if !check(whole[r[0]:r[0]+r[1]], key, int64(r[0])) {
			t.Errorf("check at %d+%d rejects the payload", r[0], r[1])
		}
	}
	whole[77] ^= 1
	if check(whole, key, 0) {
		t.Error("check accepts a flipped bit")
	}
	if contentKey(9, "/u001/a/f00001", 4) == key || contentKey(10, "/u001/a/f00001", 3) == key {
		t.Error("content key ignores version or seed")
	}
}

func quickOpts(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 11, seconds: 1, quick: true, trace: trace, outDir: t.TempDir()}
}

// The simulated and count metrics are a pure function of the seed.
func TestSeedDeterminism(t *testing.T) {
	pure := []string{"sim_ms_per_op", "sim_vs_nfs_ratio", "rpcs_per_op", "net_bytes_per_user_byte"}
	for _, wl := range workloadNames {
		a, err := run(quickOpts(t, wl, false))
		if err != nil {
			t.Fatal(wl, err)
		}
		b, err := run(quickOpts(t, wl, false))
		if err != nil {
			t.Fatal(wl, err)
		}
		if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", wl, a.Correct, a.Failed, a.Attempted)
		}
		for _, name := range pure {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s %s: %v then %v on the same seed", wl, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		o := quickOpts(t, wl, false)
		o.seed++
		c, err := run(o)
		if err != nil {
			t.Fatal(wl, err)
		}
		if wl != "mab" && c.Metrics["net_bytes_per_user_byte"].Value == a.Metrics["net_bytes_per_user_byte"].Value &&
			c.Metrics["sim_ms_per_op"].Value == a.Metrics["sim_ms_per_op"].Value {
			t.Errorf("%s: another seed produced the very same op stream", wl)
		}
	}
}

// mab's simulated totals are experiments.RunTable1's 8-node cell.
func TestMABMatchesTable1(t *testing.T) {
	w, err := newWorkload("mab", 11, true)
	if err != nil {
		t.Fatal(err)
	}
	fixedRounds := func(baseline bool) *pass {
		p, err := newPass(w, nil, baseline)
		if err == nil {
			err = p.untilBox(time.Now(), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	kosha, base := fixedRounds(false), fixedRounds(true)
	res, err := experiments.RunTable1(experiments.Table1Options{
		NodeCounts: []int{8}, Runs: w.fixedRounds(), Workload: mab.Tiny(), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := float64(w.fixedRounds())
	if got, want := kosha.fixed.ratioCost.Seconds()/rounds, res.KoshaTotal[8].Seconds; math.Abs(got-want) > 1e-9*want {
		t.Errorf("Kosha total %.9f s per round, Table 1 says %.9f", got, want)
	}
	if got, want := base.fixed.ratioCost.Seconds()/rounds, res.NFSTotal; math.Abs(got-want) > 1e-9*want {
		t.Errorf("NFS total %.9f s per round, Table 1 says %.9f", got, want)
	}
}

// Every name in BENCHMARK.json is printed, with its unit, and nothing else:
// end-to-end with --trace 0, per-layer with --trace 1. No end-to-end value is 0.
func TestMetricNames(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloadNames))
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, e := range bf.EndToEnd {
		e2e[e.Name] = e.Unit
	}
	for _, e := range bf.PerLayer {
		layers[e.Name] = e.Unit
	}
	same := func(wl string, got map[string]metric, want map[string]string) {
		for name, unit := range want {
			if m, ok := got[name]; !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but not printed", wl, name)
			} else if m.Unit != unit {
				t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", wl, name, m.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: %s is printed but not in BENCHMARK.json", wl, name)
			}
		}
	}
	for i, wl := range workloadNames {
		if bf.Workloads[i].Name != wl {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, bf.Workloads[i].Name, wl)
		}
		res, err := run(quickOpts(t, wl, false))
		if err != nil {
			t.Fatal(wl, err)
		}
		same(wl, res.Metrics, e2e)
		for name, m := range res.Metrics {
			if m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end %s = %v", wl, name, m.Value)
			}
		}
		res, err = run(quickOpts(t, wl, true))
		if err != nil {
			t.Fatal(wl, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", wl, res.Correct, res.Failed)
		}
		same(wl, res.Metrics, layers)
	}
}
