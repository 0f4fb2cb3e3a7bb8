package chaos

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// OpKind enumerates the fault operations a schedule can contain.
type OpKind uint8

const (
	// OpCrash crashes node A (SetDown; state preserved, handlers dark).
	OpCrash OpKind = iota
	// OpRevive restarts node A with a fresh identifier and purged store
	// (the paper's rejoin protocol, Section 4.3.2), then stabilizes.
	OpRevive
	// OpJoin adds a brand-new node to the cluster.
	OpJoin
	// OpPartition installs a one-way block: A can no longer reach B.
	OpPartition
	// OpHeal clears every partition.
	OpHeal
	// OpLossy sets drop probability P on every link touching node A.
	OpLossy
	// OpDup sets network-wide request duplication probability P.
	OpDup
	// OpDelay adds latency D to every link touching node A.
	OpDelay
	// OpClearFaults clears lossy/dup/delay injection (partitions stay).
	OpClearFaults
	// OpStabilize runs overlay repair and replica synchronization.
	OpStabilize
	// OpChurn moves the live population towards Up in one batch: it
	// revives the down nodes Up marks up, crashes the guarded set of live
	// nodes it marks down, then stabilizes. Only Churn schedules it.
	OpChurn

	opKinds = OpChurn // the kinds Decode draws: no byte encodes an up-set
)

func (k OpKind) String() string {
	switch k {
	case OpCrash:
		return "crash"
	case OpRevive:
		return "revive"
	case OpJoin:
		return "join"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	case OpLossy:
		return "lossy"
	case OpDup:
		return "dup"
	case OpDelay:
		return "delay"
	case OpClearFaults:
		return "clear-faults"
	case OpStabilize:
		return "stabilize"
	case OpChurn:
		return "churn"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Step is one fault operation in a schedule.
type Step struct {
	Kind OpKind
	A, B int           // node indices (crash/revive/lossy/delay use A; partition uses A->B)
	P    float64       // probability for OpLossy / OpDup
	D    time.Duration // latency for OpDelay
	Up   []bool        // OpChurn: whether each node, by index, should be up
}

func (s Step) String() string {
	switch s.Kind {
	case OpPartition:
		return fmt.Sprintf("partition %d->%d", s.A, s.B)
	case OpLossy:
		return fmt.Sprintf("lossy node %d p=%.2f", s.A, s.P)
	case OpDup:
		return fmt.Sprintf("dup p=%.2f", s.P)
	case OpDelay:
		return fmt.Sprintf("delay node %d +%v", s.A, s.D)
	case OpCrash, OpRevive:
		return fmt.Sprintf("%s node %d", s.Kind, s.A)
	default:
		return s.Kind.String()
	}
}

// StepSource is a run's fault schedule: Script, Random or Churn.
type StepSource interface {
	// steps returns the schedule's draw: step i, taken against the cluster
	// as the steps before it left it, or false once the schedule is over.
	steps(x *harness) func(i int) (Step, bool)
}

// Script is a scripted schedule, applied in order.
type Script []Step

func (sc Script) steps(*harness) func(int) (Step, bool) {
	return func(i int) (Step, bool) {
		if i < len(sc) {
			return sc[i], true
		}
		return Step{}, false
	}
}

// Random is that many guarded random steps (Scheduler.RandomStep), each
// drawn when it is applied, so that a revive can pick a node an earlier
// step took down.
type Random int

func (n Random) steps(x *harness) func(int) (Step, bool) {
	return func(i int) (Step, bool) {
		if i >= int(n) {
			return Step{}, false
		}
		return x.s.RandomStep(x.r), true
	}
}

// Churn replays that many hours of the corporate machine-availability
// trace (trace.GenAvail, the paper's Section 6.3), one OpChurn step per
// hour from hour churnStart.
type Churn int

// churnStart is Churn's first trace hour, so that a 36-hour window covers
// the hour-615 failure spike.
const churnStart = 600

func (n Churn) steps(x *harness) func(int) (Step, bool) {
	avail := trace.GenAvail(trace.CorporateAvailConfig(len(x.c.Nodes)), uint64(x.o.Seed)+1)
	return func(i int) (Step, bool) {
		if i >= int(n) {
			return Step{}, false
		}
		return Step{Kind: OpChurn, Up: avail.Up[(churnStart+i)%avail.Hours]}, true
	}
}

// Encode packs a schedule into the 4-bytes-per-step format the fuzzer
// mutates: kind, A, B, and a quantized parameter byte (probability in 1/16
// steps for lossy/dup, delay in 25ms steps for delay).
func Encode(steps []Step) []byte {
	out := make([]byte, 0, 4*len(steps))
	for _, s := range steps {
		var q byte
		switch s.Kind {
		case OpLossy, OpDup:
			q = byte(s.P * 16)
		case OpDelay:
			q = byte(s.D / (25 * time.Millisecond))
		}
		out = append(out, byte(s.Kind), byte(s.A), byte(s.B), q)
	}
	return out
}

// Decode is Encode's inverse over arbitrary bytes: every 4-byte group maps
// onto some valid step (kind and indices taken modulo their ranges), so any
// fuzzer input is a runnable schedule. Trailing bytes are ignored.
func Decode(data []byte, nodes int) []Step {
	if nodes < 1 {
		nodes = 1
	}
	var steps []Step
	for i := 0; i+4 <= len(data); i += 4 {
		s := Step{
			Kind: OpKind(data[i] % uint8(opKinds)),
			A:    int(data[i+1]) % nodes,
			B:    int(data[i+2]) % nodes,
		}
		switch s.Kind {
		case OpLossy, OpDup:
			// Cap injected loss/duplication at 4/16 so randomized schedules
			// stay within the regime the retry budget is sized for.
			s.P = float64(data[i+3]%5) / 16
		case OpDelay:
			s.D = time.Duration(data[i+3]%9) * 25 * time.Millisecond
		}
		steps = append(steps, s)
	}
	return steps
}
