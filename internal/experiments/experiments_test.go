package experiments

import (
	"strings"
	"testing"

	"repro/internal/mab"
	"repro/internal/trace"
)

func quickTable1Options() Table1Options {
	return Table1Options{
		NodeCounts: []int{1, 4},
		Runs:       2,
		Workload:   mab.Tiny(),
		Seed:       11,
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	opts := quickTable1Options()
	res, err := RunTable1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NFSTotal <= 0 {
		t.Fatal("baseline total not positive")
	}
	// Kosha is never faster than NFS, and more nodes never reduce the
	// total (the (N-1)/N term grows).
	t1 := res.KoshaTotal[1]
	t4 := res.KoshaTotal[4]
	if t1.Overhead < 0 {
		t.Fatalf("Kosha-1 faster than NFS: %+v", t1)
	}
	if t4.Seconds < t1.Seconds {
		t.Fatalf("Kosha-4 (%.2fs) faster than Kosha-1 (%.2fs)", t4.Seconds, t1.Seconds)
	}
	// Printing works and mentions every phase.
	var sb strings.Builder
	res.Fprint(&sb)
	for _, p := range mab.Phases {
		if !strings.Contains(sb.String(), p.String()) {
			t.Fatalf("printout missing phase %v", p)
		}
	}
}

func TestTable1PaperScaleCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale workload")
	}
	opts := DefaultTable1Options()
	opts.Runs = 8
	res, err := RunTable1(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The reproduced quantities (Section 6.1.1): a small fixed overhead
	// (paper: 4.1%) plus a slowly growing term with node count (paper:
	// +1.5% from 1 to 8, total < 6%-ish). Accept a generous band.
	fixed := res.KoshaTotal[1].Overhead
	total8 := res.KoshaTotal[8].Overhead
	if fixed < 1 || fixed > 9 {
		t.Errorf("fixed overhead %.1f%% outside [1,9]", fixed)
	}
	if total8 < fixed {
		t.Errorf("8-node overhead %.1f%% below fixed %.1f%%", total8, fixed)
	}
	if total8 > 12 {
		t.Errorf("8-node overhead %.1f%% implausibly high", total8)
	}
	if marginal := total8 - fixed; marginal > 5 {
		t.Errorf("marginal overhead %.1f%% too large", marginal)
	}
}

func TestTable2LevelsMonotoneCost(t *testing.T) {
	opts := Table2Options{
		Nodes:    4,
		Levels:   []int{1, 3},
		Runs:     2,
		Workload: mab.Tiny(),
		Seed:     12,
	}
	res, err := RunTable2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead[1] != 0 {
		t.Fatalf("level-1 overhead = %v, want 0", res.Overhead[1])
	}
	if res.Overhead[3] < 0 {
		t.Fatalf("level-3 cheaper than level-1: %v", res.Overhead[3])
	}
	// mkdir is the phase hit hardest by deeper distribution (Section
	// 6.1.3 explains the two hashes + link creation).
	mk1, mk3 := res.Seconds[1][mab.PhaseMkdir], res.Seconds[3][mab.PhaseMkdir]
	if mk3 <= mk1 {
		t.Fatalf("mkdir not penalized at level 3: %.3f vs %.3f", mk3, mk1)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "overhead") {
		t.Fatal("printout missing overhead row")
	}
}

func TestFigure5ConvergesTowardPerFileBound(t *testing.T) {
	opts := Figure5Options{
		Nodes:    16,
		Replicas: 3,
		Levels:   []int{1, 4, 8},
		Seeds:    10,
		Trace:    trace.SmallFSConfig(),
		Seed:     13,
	}
	res, err := RunFigure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Means are pinned at 100/16 by construction.
	for _, row := range res.Rows {
		if row.MeanFilesPct < 6.2 || row.MeanFilesPct > 6.3 {
			t.Fatalf("level %d mean files %% = %v", row.Level, row.MeanFilesPct)
		}
	}
	// Balance improves (stddev shrinks) from level 1 to level 8, and the
	// per-file bound is at least as good as any directory-level row.
	l1, l8 := res.Rows[0], res.Rows[2]
	if l8.StdFilesPct >= l1.StdFilesPct {
		t.Fatalf("file-count stddev did not shrink: L1 %.2f vs L8 %.2f", l1.StdFilesPct, l8.StdFilesPct)
	}
	for _, row := range res.Rows {
		if res.PerFile.StdFilesPct > row.StdFilesPct+0.3 {
			t.Fatalf("per-file bound %.2f worse than level %d (%.2f)",
				res.PerFile.StdFilesPct, row.Level, row.StdFilesPct)
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "per-file") {
		t.Fatal("printout missing bound row")
	}
}

func TestFigure6MoreAttemptsFewerFailures(t *testing.T) {
	opts := DefaultFigure6Options()
	opts.Trace = trace.SmallFSConfig()
	for i := range opts.Capacities {
		opts.Capacities[i] /= 256 // scale with the smaller trace
	}
	opts.Attempts = []int{0, 4}
	opts.Seeds = 6
	res, err := RunFigure6(opts)
	if err != nil {
		t.Fatal(err)
	}
	noRedir, redir4 := res.Curves[0], res.Curves[1]
	last := len(noRedir.Failure) - 1
	if noRedir.Failure[last] <= 0 {
		t.Fatal("no-redirection run never failed despite overcommit")
	}
	if redir4.Failure[last] >= noRedir.Failure[last] {
		t.Fatalf("4 redirects (%.4f) not better than none (%.4f)",
			redir4.Failure[last], noRedir.Failure[last])
	}
	// With redirection, failures stay near zero through 60%% utilization.
	for b, u := range redir4.Util {
		if u <= 0.6 && redir4.Failure[b] > 0.01 {
			t.Fatalf("failure ratio %.4f at %.0f%%%% utilization with 4 redirects",
				redir4.Failure[b], u*100)
		}
	}
	// The final bucket carries the worst cumulative ratio region; it
	// must stay within the paper's "does not exceed 12%" observation for
	// the 4-redirect configuration.
	if redir4.Failure[last] > 0.12 {
		t.Fatalf("4-redirect terminal failure ratio %.4f > 0.12", redir4.Failure[last])
	}
}

func TestFigure7ReplicationRaisesAvailability(t *testing.T) {
	opts := Figure7Options{
		Nodes:    100,
		Level:    3,
		Replicas: []int{0, 1, 3},
		Runs:     4,
		Trace:    trace.SmallFSConfig(),
		Avail:    trace.CorporateAvailConfig(100),
		Seed:     14,
	}
	res, err := RunFigure7(opts)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, k3 := res.Series[0], res.Series[1], res.Series[2]
	if k0.AveragePct >= k1.AveragePct || k1.AveragePct > k3.AveragePct {
		t.Fatalf("availability not monotone in replicas: %v %v %v",
			k0.AveragePct, k1.AveragePct, k3.AveragePct)
	}
	// Kosha-0 dips hard at the spike; Kosha-3 effectively does not.
	if k0.SpikeUnavail < 5 {
		t.Fatalf("Kosha-0 spike unavailability only %.2f%%", k0.SpikeUnavail)
	}
	if k3.SpikeUnavail > 1 {
		t.Fatalf("Kosha-3 spike unavailability %.2f%%", k3.SpikeUnavail)
	}
	// Near-100%% availability with three replicas (the paper's 99.99%).
	if k3.AveragePct < 99.9 {
		t.Fatalf("Kosha-3 average availability %.4f%%", k3.AveragePct)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "Kosha-3") {
		t.Fatal("printout missing series")
	}
}

func TestModelMatchesPaperDiscussion(t *testing.T) {
	res := RunModel(DefaultModelOptions())
	rows := res.Rows
	last := rows[len(rows)-1]
	if last.N != 10000 {
		t.Fatalf("last row N = %d", last.N)
	}
	// "For a typical network of 10,000 nodes, the maximum value of H is 4"
	if last.Hops != 4 {
		t.Fatalf("H(10000) = %d, want 4", last.Hops)
	}
	// "the overhead D does not exceed 4ms plus a constant factor"
	if last.D.Milliseconds() > 4 {
		t.Fatalf("D(10000) = %v, want <= 4ms + constant", last.D)
	}
	// D is nondecreasing in N.
	for i := 1; i < len(rows); i++ {
		if rows[i].D < rows[i-1].D {
			t.Fatalf("D not monotone at N=%d", rows[i].N)
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "10000") {
		t.Fatal("printout missing 10^4 row")
	}
}

func TestScaleSweepLogarithmicHops(t *testing.T) {
	sopts := ScaleOptions{
		NodeCounts: []int{16, 48},
		Epochs:     4,
		Ops:        80,
		Seed:       19,
		FS:         trace.SmallFSConfig(),
	}
	res, err := RunScale(sopts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ProbeMeanHops <= 0 || row.MeanOpMS <= 0 {
			t.Fatalf("degenerate row: %+v", row)
		}
	}
	// The 3x population growth must cost well under 2x the hops — the
	// log16 scaling the 100->1000 threshold test in internal/scale pins
	// at full size.
	if r0, r1 := res.Rows[0], res.Rows[1]; r1.ProbeMeanHops > 2*r0.ProbeMeanHops {
		t.Fatalf("hop growth super-logarithmic: %.2f -> %.2f", r0.ProbeMeanHops, r1.ProbeMeanHops)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "48") {
		t.Fatal("printout missing 48-node row")
	}
	sb.Reset()
	if err := FprintJSON(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "probe_mean_hops") {
		t.Fatal("json missing probe_mean_hops")
	}
	sb.Reset()
	res.FprintCSV(&sb)
	if !strings.Contains(sb.String(), "nodes,mean_route_hops") {
		t.Fatal("csv header missing")
	}
}

func TestCacheAblationCutsRPCs(t *testing.T) {
	opts := CacheAblationOptions{
		Nodes:       4,
		Dirs:        3,
		FilesPerDir: 10,
		Sweeps:      2,
		Seed:        9,
	}
	res, err := RunCacheAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Off.RPCs == 0 || res.Off.Ops != res.On.Ops {
		t.Fatalf("arms not comparable: %+v vs %+v", res.Off, res.On)
	}
	// Acceptance bar: caching removes at least 40% of the NFS round
	// trips on the readdir+stat-all-entries scan.
	if res.RPCReductionPct < 40 {
		t.Fatalf("RPC reduction %.1f%% < 40%%: on=%d off=%d",
			res.RPCReductionPct, res.On.RPCs, res.Off.RPCs)
	}
	if res.On.Seconds > res.Off.Seconds {
		t.Fatalf("caching slower: %.3fs vs %.3fs", res.On.Seconds, res.Off.Seconds)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "RPC reduction") {
		t.Fatal("printout missing reduction line")
	}
}

func TestChurnAvailabilityMeetsFig8Bar(t *testing.T) {
	opts := ChurnOptions{
		Nodes:    8,
		Replicas: []int{2},
		Failed:   []int{0, 1},
		Files:    24,
		Runs:     2,
		Seed:     17,
	}
	res, err := RunChurn(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Acceptance bar (paper Fig 8): with K=2 and one failed node,
		// at least 99% of file accesses succeed via failover.
		if row.Failed <= 1 && row.Availability < 99 {
			t.Fatalf("K=%d failed=%d availability %.2f%% < 99%%",
				row.Replicas, row.Failed, row.Availability)
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "availability") {
		t.Fatal("printout missing availability column")
	}
}
