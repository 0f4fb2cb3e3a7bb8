package chaos

import (
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestRandomizedSoak sweeps randomized schedules over consecutive seeds and
// reports every red one, so a sweep's red set is one command away. The soak
// is opt-in: set KOSHA_CHAOS_SOAK to the number of runs. KOSHA_CHAOS_SEED is
// the first seed; otherwise it derives from the clock and is printed. The
// ROADMAP's sweep, seeds 1-60 at Random(40):
//
//	KOSHA_CHAOS_SOAK=60 KOSHA_CHAOS_SEED=1 go test ./internal/chaos -run TestRandomizedSoak -v
//
// It ends with a `red N of M: [seeds]` line; replay one seed with
// Run(Options{Seed: seed, Steps: Random(40)}).
func TestRandomizedSoak(t *testing.T) {
	sweep(t, "KOSHA_CHAOS_SOAK", func(seed int64) Options {
		return Options{Seed: seed, Steps: Random(40)}
	})
}

// TestSixNodeSweep is TestRandomizedSoak at the chaos fuzz target's settings
// (6 nodes, 2 operations a step, Random(40)), where most red seeds have been
// found. Opt in with KOSHA_CHAOS_SWEEP6=<runs>; the ROADMAP's sweep is
//
//	KOSHA_CHAOS_SWEEP6=400 KOSHA_CHAOS_SEED=1 go test ./internal/chaos -run TestSixNodeSweep -v
//
// Replay one seed with Run(sixNode(seed)).
func TestSixNodeSweep(t *testing.T) {
	sweep(t, "KOSHA_CHAOS_SWEEP6", sixNode)
}

// sixNode is the chaos fuzz target's random schedule on seed.
func sixNode(seed int64) Options {
	return Options{Nodes: 6, Seed: seed, OpsPerStep: 2, Steps: Random(40)}
}

// TestIslandSeeds holds the 6-node seeds whose overlay used to end in
// islands: a Sync run inside a leaf-set callback failed on a lossy link, and
// its failures purged more peers. Replica repair now runs only from the
// drivers that charge it, and each of these seeds must stay green.
func TestIslandSeeds(t *testing.T) {
	for _, seed := range []int64{18, 40, 99, 106, 115, 154, 240, 264} {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			if _, err := Run(sixNode(seed)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sweep runs the options opts gives for each of the consecutive seeds an
// opt-in sweep asks for: the environment variable runsVar holds the number
// of runs, KOSHA_CHAOS_SEED the first seed (otherwise it derives from the
// clock and is printed). It reports every red seed and ends with a
// `red N of M: [seeds]` line.
func sweep(t *testing.T, runsVar string, opts func(seed int64) Options) {
	runs := 0
	if v := os.Getenv(runsVar); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad %s %q: %v", runsVar, v, err)
		}
		runs = n
	}
	if runs <= 0 {
		t.Skipf("set %s=<runs> to enable the sweep", runsVar)
	}
	base := time.Now().UnixNano()
	if v := os.Getenv("KOSHA_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad KOSHA_CHAOS_SEED %q: %v", v, err)
		}
		base = n
	}
	t.Logf("soak seeds %d..%d", base, base+int64(runs)-1)
	var red []int64
	for seed := base; seed < base+int64(runs); seed++ {
		rep, err := Run(opts(seed))
		if err != nil {
			red = append(red, seed)
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if (seed-base)%10 == 0 {
			t.Logf("seed %d: ops=%d failed=%d applied=%d availability=%.4f",
				seed, rep.Ops, rep.FailedOps, rep.Applied, rep.Availability())
		}
	}
	t.Logf("red %d of %d: %v", len(red), runs, red)
}

// TestSoakSmoke is the tier-1 availability soak: 60 nodes through twelve
// hours of availability-trace churn under the Purdue trace workload, with
// maintenance and the overlay invariant tiers on. It keeps the churn source
// honest on every `go test ./...` without the cost of the gated 500-node run.
func TestSoakSmoke(t *testing.T) {
	rep := run(t, Options{
		Nodes:      60,
		Seed:       1001,
		Steps:      Churn(12),
		Workload:   TraceWorkload{FS: trace.SmallFSConfig()},
		OpsPerStep: 20,
		Maint:      true,
		Invariants: true,
	})
	if rep.Ops != 240 || rep.Writes == 0 || rep.Reads == 0 {
		t.Fatalf("degenerate op mix: %+v", rep)
	}
	if rep.Crashes == 0 || rep.Revives == 0 {
		t.Fatalf("trace drove no churn: %+v", rep)
	}
	if rep.ProbeMeanHops <= 0 {
		t.Fatalf("no route probes in final invariant check: %+v", rep)
	}
	if rep.ScrubRounds == 0 {
		t.Fatalf("maintenance enabled but no scrub rounds ran: %+v", rep)
	}
}

// TestSoakLarge is the gated 500-node soak: more than 10K Purdue-trace
// operations under 36 hours of availability-trace churn. Opt in with
// KOSHA_SCALE_SOAK=1 (e.g. via `make soak`); KOSHA_SCALE_SEED pins the
// seed, otherwise it derives from the clock and is logged so any failure
// replays from one number.
func TestSoakLarge(t *testing.T) {
	if os.Getenv("KOSHA_SCALE_SOAK") == "" {
		t.Skip("set KOSHA_SCALE_SOAK=1 to enable the 500-node soak")
	}
	seed := time.Now().UnixNano()
	if v := os.Getenv("KOSHA_SCALE_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad KOSHA_SCALE_SEED %q: %v", v, err)
		}
		seed = n
	}
	t.Logf("scale soak seed %d (replay: KOSHA_SCALE_SOAK=1 KOSHA_SCALE_SEED=%d)", seed, seed)
	rep := run(t, Options{
		Nodes:      500,
		Seed:       seed,
		Steps:      Churn(36),
		Workload:   TraceWorkload{FS: trace.PurdueFSConfig()},
		OpsPerStep: 278, // 36 x 278 = 10 008
		Invariants: true,
	})
	t.Logf("soak: %d ops (%d failed first attempts), churn -%d/+%d, workload hops %.2f, probe hops %.2f (max %d)",
		rep.Ops, rep.FailedOps, rep.Crashes, rep.Revives, rep.MeanRouteHops, rep.ProbeMeanHops, rep.ProbeMaxHops)
	if rep.Ops < 10000 {
		t.Fatalf("replayed only %d ops, want >= 10000", rep.Ops)
	}
}
