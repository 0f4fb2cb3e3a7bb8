package chaos

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestRandomizedSoak runs many randomized schedules on fresh seeds, logging
// every seed so a failure is reproducible with a one-line scripted run. The
// soak is opt-in: set KOSHA_CHAOS_SOAK to the number of runs (e.g.
// `KOSHA_CHAOS_SOAK=100 go test -race ./internal/chaos/ -run Soak`).
// KOSHA_CHAOS_SEED pins the base seed; otherwise it derives from the clock
// and is printed, so a red soak is replayable even without the log.
func TestRandomizedSoak(t *testing.T) {
	runs := 0
	if v := os.Getenv("KOSHA_CHAOS_SOAK"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad KOSHA_CHAOS_SOAK %q: %v", v, err)
		}
		runs = n
	}
	if runs <= 0 {
		t.Skip("set KOSHA_CHAOS_SOAK=<runs> to enable the randomized soak")
	}
	base := time.Now().UnixNano()
	if v := os.Getenv("KOSHA_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad KOSHA_CHAOS_SEED %q: %v", v, err)
		}
		base = n
	}
	t.Logf("soak base seed %d (%d runs); replay one with Options{Seed: seed, Steps: Random(40)}", base, runs)
	seeds := rand.New(rand.NewSource(base))
	for i := 0; i < runs; i++ {
		seed := seeds.Int63()
		rep, err := Run(Options{Seed: seed, Steps: Random(40)})
		if err != nil {
			t.Fatalf("run %d seed %d: %v", i, seed, err)
		}
		if i%10 == 0 {
			t.Logf("run %d seed %d: ops=%d failed=%d applied=%d availability=%.4f",
				i, seed, rep.Ops, rep.FailedOps, rep.Applied, rep.Availability())
		}
	}
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
