package core_test

// The chaos-schedule fuzzer lives in core's external test package: the chaos
// harness imports cluster, which imports core, so an in-package fuzz test
// would be an import cycle. It extends the fuzz suite in fuzz_test.go from
// pure helpers up to whole-cluster behavior: arbitrary bytes decode into a
// guarded fault schedule, and the harness's oracle invariants — no
// acknowledged write lost, no fabricated read contents, replica counts back
// at K after quiescence — must hold for every one of them.

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

const fuzzNodes = 6

// corpusSchedules mirror the scripted scenario table in
// internal/chaos/chaos_test.go, giving the fuzzer meaningful starting points
// (crash-during-write, partition-heal, replica loss, flapping, lossy link).
func corpusSchedules() [][]chaos.Step {
	flap := make([]chaos.Step, 0, 8)
	for i := 0; i < 4; i++ {
		flap = append(flap,
			chaos.Step{Kind: chaos.OpCrash, A: 4},
			chaos.Step{Kind: chaos.OpRevive, A: 4},
		)
	}
	return [][]chaos.Step{
		{
			{Kind: chaos.OpCrash, A: 3},
			{Kind: chaos.OpStabilize},
			{Kind: chaos.OpRevive, A: 3},
			{Kind: chaos.OpStabilize},
		},
		{
			{Kind: chaos.OpPartition, A: 2, B: 4},
			{Kind: chaos.OpPartition, A: 4, B: 2},
			{Kind: chaos.OpStabilize},
			{Kind: chaos.OpHeal},
			{Kind: chaos.OpStabilize},
		},
		{
			{Kind: chaos.OpCrash, A: 1},
			{Kind: chaos.OpCrash, A: 2},
			{Kind: chaos.OpStabilize},
			{Kind: chaos.OpRevive, A: 1},
			{Kind: chaos.OpRevive, A: 2},
			{Kind: chaos.OpStabilize},
		},
		flap,
		{
			{Kind: chaos.OpLossy, A: 2, P: 3.0 / 16},
			{Kind: chaos.OpDup, P: 4.0 / 16},
			{Kind: chaos.OpStabilize},
			{Kind: chaos.OpDelay, A: 3, D: 50 * time.Millisecond},
			{Kind: chaos.OpClearFaults},
			{Kind: chaos.OpStabilize},
		},
	}
}

// FuzzChaosSchedule decodes arbitrary bytes into a fault schedule and runs it
// through the deterministic harness. Any invariant violation surfaces as an
// error carrying the seed and the decoded schedule, so every crasher in the
// corpus is replayable as a scripted scenario.
func FuzzChaosSchedule(f *testing.F) {
	for _, sched := range corpusSchedules() {
		f.Add(int64(1), chaos.Encode(sched))
	}
	f.Add(int64(1), []byte{}) // a random schedule
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 64 { // 16 steps: keep one fuzz case sub-second
			raw = raw[:64]
		}
		steps := chaos.Decode(raw, fuzzNodes)
		// An input too short for one step leaves the schedule to the
		// runner's default, Random(40), so the fuzzer explores seeds as
		// well as scripts.
		var src chaos.StepSource
		if len(steps) > 0 {
			src = chaos.Script(steps)
		}
		rep, err := chaos.Run(chaos.Options{
			Nodes:      fuzzNodes,
			Seed:       seed,
			Steps:      src,
			OpsPerStep: 2,
		})
		if err != nil {
			t.Fatalf("seed %d schedule %v: %v", seed, steps, err)
		}
		if rep.Ops > 0 && rep.Availability() < 0 {
			t.Fatalf("negative availability: %+v", rep)
		}
	})
}
