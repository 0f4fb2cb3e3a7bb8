package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// Scheduler applies Steps to a live cluster, owning the composed fault state
// (one-way partitions, per-node loss/latency, network-wide duplication) it
// installs into the cluster's simnet via SetPartition and SetFaults.
//
// Probabilistic decisions inside the injector draw from a seeded splitmix64
// stream guarded by the same mutex as the fault tables, so a single-threaded
// harness run is exactly reproducible from its seed.
type Scheduler struct {
	C *cluster.Cluster

	mu     sync.Mutex
	oneway map[[2]simnet.Addr]bool
	lossy  map[simnet.Addr]float64
	delay  map[simnet.Addr]simnet.Cost
	dupP   float64
	state  uint64 // splitmix64 state for injector coin flips

	// Protected marks node indices that must never be crashed, partitioned,
	// or degraded — the client-hosting nodes whose koshad the oracle reads
	// through (a dead client machine is not a Kosha failure mode).
	Protected map[int]bool
	// MinLive bounds how many nodes guarded Apply calls may leave alive.
	// A churn step also keeps at least half the cluster alive: the trace's
	// down set persists across steps, so a floor sized for single crashes
	// would let a long run drain the ring to a handful of nodes.
	MinLive int

	crashes, revives int // nodes crashed and revived by Apply and Quiesce
}

// NewScheduler wires a scheduler to a cluster and installs its (initially
// empty) partition predicate and fault injector.
func NewScheduler(c *cluster.Cluster, seed uint64, protected ...int) *Scheduler {
	s := &Scheduler{
		C:         c,
		oneway:    map[[2]simnet.Addr]bool{},
		lossy:     map[simnet.Addr]float64{},
		delay:     map[simnet.Addr]simnet.Cost{},
		state:     seed ^ 0x6a09e667f3bcc909,
		Protected: map[int]bool{},
		MinLive:   3,
	}
	for _, i := range protected {
		s.Protected[i] = true
	}
	c.Net.SetPartition(s.blocked)
	c.Net.SetFaults(s.inject)
	return s
}

// Close clears the scheduler's hooks from the network.
func (s *Scheduler) Close() {
	s.C.Net.SetPartition(nil)
	s.C.Net.SetFaults(nil)
}

func (s *Scheduler) splitmix64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance flips a deterministic coin with probability p (mutex held).
func (s *Scheduler) chance(p float64) bool {
	return float64(s.splitmix64()>>11)/(1<<53) < p
}

// blocked is the partition predicate installed into the network.
func (s *Scheduler) blocked(a, b simnet.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oneway[[2]simnet.Addr{a, b}]
}

// inject is the fault injector installed into the network.
func (s *Scheduler) inject(from, to simnet.Addr, service string) simnet.LinkFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	var f simnet.LinkFault
	p := s.lossy[from]
	if q := s.lossy[to]; q > p {
		p = q
	}
	if p > 0 && s.chance(p) {
		f.Drop = true
	}
	if s.dupP > 0 && s.chance(s.dupP) {
		f.Dup = true
	}
	if d := s.delay[from] + s.delay[to]; d > 0 {
		f.Delay = d
	}
	return f
}

// Down reports whether node i is currently crashed.
func (s *Scheduler) Down(i int) bool {
	return s.C.Net.IsDown(s.C.Nodes[i].Addr())
}

// Apply executes one step against the cluster. Steps that would violate the
// guards — crashing a protected or already-down node, dropping below
// MinLive, reviving a live node, degrading a protected node's links — are
// skipped and reported as such, which keeps randomized and fuzzed schedules
// safe without making them unrepresentable.
func (s *Scheduler) Apply(st Step) (applied bool, desc string, err error) {
	desc = st.String()
	n := len(s.C.Nodes)
	if n == 0 {
		return false, desc, fmt.Errorf("chaos: empty cluster")
	}
	idx := func(i int) int { return ((i % n) + n) % n }
	switch st.Kind {
	case OpCrash:
		a := idx(st.A)
		if s.Protected[a] || s.Down(a) || len(s.C.Alive()) <= s.MinLive {
			return false, desc + " (skipped)", nil
		}
		// Crashing while loss or partitions impede replication could destroy
		// the last copy of a subtree whose repair never went through — that
		// violates the invariant's "at least one live replica" precondition,
		// not Kosha. Crashes only fire on a repair-capable network.
		if s.LossActive() || s.PartitionActive() {
			return false, desc + " (skipped: repair impeded)", nil
		}
		s.C.Fail(a)
		s.crashes++
	case OpRevive:
		a := idx(st.A)
		if !s.Down(a) {
			return false, desc + " (skipped)", nil
		}
		if err := s.C.Revive(a); err != nil {
			if s.LossActive() || s.PartitionActive() {
				// The rejoin handshake itself fell to injected faults; put
				// the node back down (its store is purged either way) and
				// let a later step retry.
				s.C.Net.SetDown(s.C.Nodes[a].Addr(), true)
				return false, desc + " (skipped: rejoin failed under faults)", nil
			}
			return false, desc, fmt.Errorf("chaos: %s: %w", desc, err)
		}
		s.revives++
	case OpJoin:
		// Joining through a degraded or partitioned network can legitimately
		// fail; schedules only grow the cluster on a clean network, and never
		// without bound (fuzzed schedules may be join-heavy).
		if s.LossActive() || s.PartitionActive() || n >= 16 {
			return false, desc + " (skipped)", nil
		}
		if _, err := s.C.AddNode(); err != nil {
			return false, desc, fmt.Errorf("chaos: join: %w", err)
		}
	case OpPartition:
		a, b := idx(st.A), idx(st.B)
		if a == b || s.Protected[a] || s.Protected[b] {
			return false, desc + " (skipped)", nil
		}
		s.mu.Lock()
		s.oneway[[2]simnet.Addr{s.C.Nodes[a].Addr(), s.C.Nodes[b].Addr()}] = true
		s.mu.Unlock()
	case OpHeal:
		s.mu.Lock()
		s.oneway = map[[2]simnet.Addr]bool{}
		s.mu.Unlock()
	case OpLossy:
		a := idx(st.A)
		if s.Protected[a] {
			return false, desc + " (skipped)", nil
		}
		s.mu.Lock()
		if st.P <= 0 {
			delete(s.lossy, s.C.Nodes[a].Addr())
		} else {
			s.lossy[s.C.Nodes[a].Addr()] = st.P
		}
		s.mu.Unlock()
	case OpDup:
		s.mu.Lock()
		s.dupP = st.P
		s.mu.Unlock()
	case OpDelay:
		a := idx(st.A)
		s.mu.Lock()
		if st.D <= 0 {
			delete(s.delay, s.C.Nodes[a].Addr())
		} else {
			s.delay[s.C.Nodes[a].Addr()] = simnet.Cost(st.D)
		}
		s.mu.Unlock()
	case OpClearFaults:
		s.mu.Lock()
		s.lossy = map[simnet.Addr]float64{}
		s.delay = map[simnet.Addr]simnet.Cost{}
		s.dupP = 0
		s.mu.Unlock()
	case OpStabilize:
		s.C.Stabilize()
	case OpChurn:
		var back []int
		for i := range s.C.Nodes {
			if i < len(st.Up) && st.Up[i] && s.Down(i) {
				back = append(back, i)
			}
		}
		// One batch, one stabilization: a Stabilize per revived node is the
		// O(N) scan that makes large-cluster churn intractable.
		if err := s.C.ReviveNodes(back); err != nil {
			return false, desc, fmt.Errorf("chaos: churn revive: %w", err)
		}
		victims := s.churnVictims(st.Up)
		for _, v := range victims {
			s.C.Fail(v)
		}
		if len(victims) > 0 {
			s.C.Stabilize()
		}
		s.revives += len(back)
		s.crashes += len(victims)
		desc = fmt.Sprintf("churn +%d -%d", len(back), len(victims))
	default:
		return false, desc, fmt.Errorf("chaos: unknown op %d", st.Kind)
	}
	return true, desc, nil
}

// churnVictims picks, in index order, the live nodes up marks down that
// the crash guards let go together: none protected, the live population
// kept at MinLive and half the cluster or above, and each more than K ring
// positions from every other victim, so every primary plus its K leaf-set
// replica candidates keeps a survivor and no acknowledged write loses all
// its copies in one step. Like a single crash, none fires while loss or a
// partition impedes repair.
func (s *Scheduler) churnVictims(up []bool) []int {
	if s.LossActive() || s.PartitionActive() {
		return nil
	}
	k := s.C.Nodes[0].Config().Replicas
	floor := max(s.MinLive, len(s.C.Nodes)/2)
	alive := s.C.Alive()
	ring := slices.Clone(alive)
	slices.SortFunc(ring, func(a, b int) int {
		return s.C.Nodes[a].Overlay().Info().ID.Cmp(s.C.Nodes[b].Overlay().Info().ID)
	})
	pos := make(map[int]int, len(ring)) // node index -> position on the live ring
	for p, i := range ring {
		pos[i] = p
	}
	live := len(alive)
	var victims []int
	for _, i := range alive {
		if s.Protected[i] || i >= len(up) || up[i] {
			continue
		}
		if live-1 < floor {
			break
		}
		crowded := slices.ContainsFunc(victims, func(v int) bool {
			d := (pos[i] - pos[v] + len(ring)) % len(ring)
			return min(d, len(ring)-d) <= k
		})
		if !crowded {
			victims = append(victims, i)
			live--
		}
	}
	return victims
}

// LossActive reports whether any message-drop injection is in force — the
// one fault class that can surface as an operation failure even through the
// retry budget, which is what separates strict from lenient oracle checks.
func (s *Scheduler) LossActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lossy) > 0
}

// PartitionActive reports whether any one-way partition is installed.
func (s *Scheduler) PartitionActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.oneway) > 0
}

// SuspendLoss lifts message-drop injection and returns a closure restoring
// it. The runner uses this to re-issue an operation whose first attempt
// failed under loss, so the model and the cluster agree on whether the
// operation was acknowledged.
func (s *Scheduler) SuspendLoss() (restore func()) {
	s.mu.Lock()
	saved := s.lossy
	s.lossy = map[simnet.Addr]float64{}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.lossy = saved
		s.mu.Unlock()
	}
}

// Quiesce removes all injected faults and partitions, revives every downed
// node in one batch, and stabilizes — the precondition for the replica
// re-convergence invariant.
func (s *Scheduler) Quiesce() error {
	s.mu.Lock()
	s.oneway = map[[2]simnet.Addr]bool{}
	s.lossy = map[simnet.Addr]float64{}
	s.delay = map[simnet.Addr]simnet.Cost{}
	s.dupP = 0
	s.mu.Unlock()
	var down []int
	for i := range s.C.Nodes {
		if s.Down(i) {
			down = append(down, i)
		}
	}
	if err := s.C.ReviveNodes(down); err != nil {
		return fmt.Errorf("chaos: quiesce revive: %w", err)
	}
	s.revives += len(down)
	s.C.Stabilize()
	return nil
}

// RandomStep draws one guarded random step from r. The mix leans on churn
// (crash/revive/stabilize) with a sprinkling of link faults, mirroring the
// paper's availability experiment where nodes die and rejoin while the file
// system stays in use.
func (s *Scheduler) RandomStep(r *rand.Rand) Step {
	n := len(s.C.Nodes)
	pick := func() int { return r.Intn(n) }
	switch r.Intn(10) {
	case 0, 1:
		return Step{Kind: OpCrash, A: pick()}
	case 2, 3:
		// Prefer reviving a known-down node when one exists.
		for i := range s.C.Nodes {
			if s.Down(i) {
				return Step{Kind: OpRevive, A: i}
			}
		}
		return Step{Kind: OpStabilize}
	case 4:
		return Step{Kind: OpPartition, A: pick(), B: pick()}
	case 5:
		return Step{Kind: OpHeal}
	case 6:
		return Step{Kind: OpLossy, A: pick(), P: 0.05 + 0.2*r.Float64()}
	case 7:
		return Step{Kind: OpDup, P: 0.1 + 0.3*r.Float64()}
	case 8:
		return Step{Kind: OpDelay, A: pick(), D: time.Duration(1+r.Intn(8)) * 25 * time.Millisecond}
	default:
		return Step{Kind: OpClearFaults}
	}
}
