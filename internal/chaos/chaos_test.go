package chaos

import (
	"reflect"
	"testing"
	"time"
)

// run executes a schedule under -race-friendly sizes and fails the test with
// the seed-bearing error on any invariant violation.
func run(t *testing.T, o Options) *Report {
	t.Helper()
	o.Logf = t.Logf
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScenarioCrashDuringWrite: nodes die while the workload keeps writing;
// failover plus read-repair must keep every acknowledged byte readable, and
// replica counts must be back at K after the dust settles.
func TestScenarioCrashDuringWrite(t *testing.T) {
	run(t, Options{
		Seed: 1101,
		Steps: []Step{
			{Kind: OpCrash, A: 3},
			{Kind: OpStabilize},
			{Kind: OpCrash, A: 5},
			{Kind: OpStabilize},
			{Kind: OpRevive, A: 3},
			{Kind: OpRevive, A: 5},
			{Kind: OpStabilize},
		},
	})
}

// TestScenarioWriteBackCrash: the crash-during-write schedule with client
// write-back buffering enabled. WriteFile flushes its buffered spans before
// acknowledging, so every oracle-recorded write is durable data, and the
// acked-history invariants (no acknowledged byte lost, reads return only
// acknowledged contents) must hold exactly as in write-through mode.
func TestScenarioWriteBackCrash(t *testing.T) {
	run(t, Options{
		Seed:           1102,
		WriteBackBytes: 64 << 10,
		Steps: []Step{
			{Kind: OpCrash, A: 3},
			{Kind: OpStabilize},
			{Kind: OpCrash, A: 5},
			{Kind: OpStabilize},
			{Kind: OpRevive, A: 3},
			{Kind: OpRevive, A: 5},
			{Kind: OpStabilize},
		},
	})
}

// TestScenarioWriteBackDup: duplicated requests while write-back flushes are
// in flight and a replica holder dies. A duplicated kApply runs its handler
// twice over one request buffer, each run borrowing its spans from that
// buffer and sending one shared kMirror frame to both replicas (K=2). A
// handler writing to a frame it was sent, or a store aliasing one, would
// surface as an acknowledged byte read back wrong.
func TestScenarioWriteBackDup(t *testing.T) {
	run(t, Options{
		Seed:           1103,
		WriteBackBytes: 64 << 10,
		Steps: []Step{
			{Kind: OpDup, P: 0.50},
			{Kind: OpStabilize},
			{Kind: OpCrash, A: 4},
			{Kind: OpStabilize},
			{Kind: OpRevive, A: 4},
			{Kind: OpClearFaults},
			{Kind: OpStabilize},
		},
	})
}

// TestScenarioPartitionHeal: asymmetric partitions between storage nodes
// while clients stay connected; after healing, everything re-converges.
func TestScenarioPartitionHeal(t *testing.T) {
	run(t, Options{
		Seed: 2202,
		Steps: []Step{
			{Kind: OpPartition, A: 2, B: 4},
			{Kind: OpPartition, A: 4, B: 2},
			{Kind: OpStabilize},
			{Kind: OpPartition, A: 5, B: 2},
			{Kind: OpStabilize},
			{Kind: OpHeal},
			{Kind: OpStabilize},
		},
	})
}

// TestScenarioReplicaLoss: with K=2 (three copies of every subtree), lose
// two holders back to back — the single remaining copy must carry every
// read, and repair must rebuild the full replica set.
func TestScenarioReplicaLoss(t *testing.T) {
	run(t, Options{
		Seed: 3303,
		Steps: []Step{
			{Kind: OpCrash, A: 1},
			{Kind: OpCrash, A: 2},
			{Kind: OpCrash, A: 6},
			{Kind: OpStabilize},
			{Kind: OpRevive, A: 1},
			{Kind: OpRevive, A: 2},
			{Kind: OpRevive, A: 6},
			{Kind: OpStabilize},
		},
	})
}

// TestScenarioFlappingNode: one node repeatedly crashes and rejoins; each
// rejoin gets a fresh identifier and a purged store (Section 4.3.2), so the
// flapping must never resurrect stale state.
func TestScenarioFlappingNode(t *testing.T) {
	steps := make([]Step, 0, 8)
	for i := 0; i < 4; i++ {
		steps = append(steps,
			Step{Kind: OpCrash, A: 4},
			Step{Kind: OpRevive, A: 4},
		)
	}
	run(t, Options{Seed: 4404, Steps: steps})
}

// TestScenarioLossyLink: sustained message loss, duplication, and latency
// spikes; retries and the duplicate-request cache must mask duplication and
// bounded loss, and no surviving read may ever return wrong contents.
func TestScenarioLossyLink(t *testing.T) {
	run(t, Options{
		Seed: 5505,
		Steps: []Step{
			{Kind: OpLossy, A: 2, P: 0.20},
			{Kind: OpDup, P: 0.30},
			{Kind: OpStabilize},
			{Kind: OpLossy, A: 5, P: 0.15},
			{Kind: OpDelay, A: 3, D: 50 * time.Millisecond},
			{Kind: OpStabilize},
			{Kind: OpClearFaults},
			{Kind: OpStabilize},
		},
	})
}

// TestScenarioMixed: churn, partitions, and link faults together, plus a
// join — the full fault menu in one schedule.
func TestScenarioMixed(t *testing.T) {
	run(t, Options{
		Seed: 6606,
		Steps: []Step{
			{Kind: OpCrash, A: 3},
			{Kind: OpPartition, A: 1, B: 5},
			{Kind: OpDup, P: 0.25},
			{Kind: OpStabilize},
			{Kind: OpLossy, A: 6, P: 0.20},
			{Kind: OpRevive, A: 3},
			{Kind: OpClearFaults},
			{Kind: OpHeal},
			{Kind: OpJoin},
			{Kind: OpStabilize},
		},
	})
}

// TestRandomizedSchedule: a short randomized run on a fixed seed, the same
// generator the soak and the fuzzer lean on.
func TestRandomizedSchedule(t *testing.T) {
	rep := run(t, Options{Seed: 7707, RandomSteps: 20})
	if rep.Applied == 0 {
		t.Fatal("randomized schedule applied no steps")
	}
}

// TestDeterministicReplay: the whole harness — workload, schedule,
// injector coin flips, retry jitter — replays bit-identically from a seed,
// which is what makes every logged failure reproducible.
func TestDeterministicReplay(t *testing.T) {
	opts := Options{Seed: 8808, RandomSteps: 15}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
	if len(a.Trace) == 0 {
		t.Fatal("empty trace")
	}
}

// TestScheduleRoundTrip: Encode/Decode round-trips scripted schedules and
// maps arbitrary bytes onto valid steps.
func TestScheduleRoundTrip(t *testing.T) {
	steps := []Step{
		{Kind: OpCrash, A: 3},
		{Kind: OpPartition, A: 1, B: 5},
		{Kind: OpLossy, A: 2, P: 4.0 / 16},
		{Kind: OpDup, P: 2.0 / 16},
		{Kind: OpDelay, A: 6, D: 75 * time.Millisecond},
		{Kind: OpStabilize},
	}
	got := Decode(Encode(steps), 8)
	if !reflect.DeepEqual(steps, got) {
		t.Fatalf("round trip:\n want %v\n got  %v", steps, got)
	}
	// Arbitrary bytes decode to in-range steps.
	junk := []byte{0xff, 0xfe, 0xfd, 0xfc, 0x01, 0x80, 0x7f, 0xff, 0x00}
	for _, s := range Decode(junk, 5) {
		if s.Kind >= opKinds || s.A < 0 || s.A >= 5 || s.B < 0 || s.B >= 5 {
			t.Fatalf("decoded out-of-range step %+v", s)
		}
		if s.P < 0 || s.P > 0.25 || s.D < 0 || s.D > 200*time.Millisecond {
			t.Fatalf("decoded out-of-range params %+v", s)
		}
	}
}

// TestGuardsHoldInvariants: the scheduler refuses steps that would make the
// harness meaningless — crashing the client's node, dropping below the live
// floor, reviving a live node.
func TestGuardsHoldInvariants(t *testing.T) {
	rep := run(t, Options{
		Seed:    9909,
		MinLive: 7, // 8-node cluster: at most one node may be down
		Steps: []Step{
			{Kind: OpCrash, A: 0}, // protected (mount host)
			{Kind: OpCrash, A: 2},
			{Kind: OpCrash, A: 3},           // would drop below MinLive
			{Kind: OpRevive, A: 5},          // not down
			{Kind: OpPartition, A: 0, B: 4}, // touches protected node
			{Kind: OpRevive, A: 2},
		},
	})
	if rep.Applied != 2 || rep.Skipped != 4 {
		t.Fatalf("applied=%d skipped=%d, want 2/4\ntrace: %v", rep.Applied, rep.Skipped, rep.Trace)
	}
}
