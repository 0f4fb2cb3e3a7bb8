package chaos

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
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
		Steps: Script{
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
		Steps: Script{
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
		Steps: Script{
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
		Steps: Script{
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
		Steps: Script{
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
	run(t, Options{Seed: 4404, Steps: Script(steps)})
}

// TestScenarioLossyLink: sustained message loss, duplication, and latency
// spikes; retries and the duplicate-request cache must mask duplication and
// bounded loss, and no surviving read may ever return wrong contents.
func TestScenarioLossyLink(t *testing.T) {
	run(t, Options{
		Seed: 5505,
		Steps: Script{
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
		Steps: Script{
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
// generator the soak and the fuzzer lean on. Each step is drawn when it is
// applied, so the schedule revives nodes its own crashes took down.
func TestRandomizedSchedule(t *testing.T) {
	rep := run(t, Options{Seed: 7707, Steps: Random(20)})
	if rep.Applied == 0 {
		t.Fatal("randomized schedule applied no steps")
	}
	revived := false
	for _, line := range rep.Trace {
		revived = revived || strings.Contains(line, ": revive node") && !strings.Contains(line, "skipped")
	}
	if !revived {
		t.Fatalf("randomized schedule applied no revive\ntrace: %v", rep.Trace)
	}
}

// TestChurnGuards: a churn step whose trace row marks every node down
// still spares the mount host, keeps half the cluster alive, and takes no
// two victims within K places of each other on the live ring, with K read
// from the nodes' config. K = 0 leaves the half-cluster floor to bind.
func TestChurnGuards(t *testing.T) {
	const n = 16
	for _, k := range []int{0, 2} {
		replicas := k
		if k == 0 {
			replicas = -1 // core.Config's spelling of "no replicas"
		}
		c, err := cluster.New(cluster.Options{Nodes: n, Seed: 7, Config: core.Config{Replicas: replicas}})
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(c, 7, 0)
		ring := c.Alive()
		slices.SortFunc(ring, func(a, b int) int {
			return c.Nodes[a].Overlay().Info().ID.Cmp(c.Nodes[b].Overlay().Info().ID)
		})
		if _, _, err := s.Apply(Step{Kind: OpChurn, Up: make([]bool, n)}); err != nil {
			t.Fatal(err)
		}
		if s.Down(0) {
			t.Fatalf("K=%d: churn crashed the protected mount host", k)
		}
		if live := len(c.Alive()); live < n/2 || k == 0 && live != n/2 {
			t.Fatalf("K=%d: %d of %d nodes left alive, want the floor at %d", k, live, n, n/2)
		}
		var down []int // ring positions of the victims
		for p, i := range ring {
			if s.Down(i) {
				down = append(down, p)
			}
		}
		for a := range down {
			for b := a + 1; b < len(down); b++ {
				if d := down[b] - down[a]; min(d, n-d) <= k {
					t.Fatalf("K=%d: victims at ring positions %d and %d", k, down[a], down[b])
				}
			}
		}
		s.Close()
	}
}

// TestDeterministicReplay: the whole harness — workload, schedule,
// injector coin flips, retry jitter, maintenance — replays bit-identically
// from a seed, which is what makes every logged failure reproducible. One
// input per kind of run: random faults under the runner's own mix, and
// availability-trace churn under the trace workload with maintenance and
// the overlay invariants on.
func TestDeterministicReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"random", Options{Seed: 8808, Steps: Random(15)}},
		{"churn", Options{
			Nodes:      40,
			Seed:       2002,
			Steps:      Churn(8),
			Workload:   TraceWorkload{FS: trace.SmallFSConfig()},
			OpsPerStep: 20,
			Maint:      true,
			Invariants: true,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Run(tc.o)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(tc.o)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\n  run1: %+v\n  run2: %+v", a, b)
			}
			if len(a.Trace) == 0 {
				t.Fatal("empty trace")
			}
		})
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
		Steps: Script{
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
