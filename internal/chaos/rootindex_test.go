package chaos

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestScenarioRootHolderCrash: a stream of level-1 mkdirs and rmdirs keeps
// running while the node holding the root directory's name index crashes and
// later revives under a fresh identifier. The listing of "/" never stops
// answering — the first call after the crash fails over to a replica of the
// index — and after every acknowledged operation it equals the oracle's,
// through either mount. The promoted holder's own copy equals the oracle's
// too, and once the dust settles ReplicaConvergence finds the index on its
// owner and K replicas like any other hierarchy.
func TestScenarioRootHolderCrash(t *testing.T) {
	const (
		seed     = 6611
		replicas = 2
	)
	c, err := cluster.New(cluster.Options{
		Nodes:  8,
		Seed:   seed,
		Config: core.Config{Replicas: replicas, AttrCacheTTL: -1, NameCacheTTL: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	holderOf := func(via int) int {
		res, err := c.Nodes[via].Overlay().Route(core.Key(core.RootPN))
		if err != nil {
			t.Fatal(err)
		}
		for i, nd := range c.Nodes {
			if nd.Addr() == res.Node.Addr {
				return i
			}
		}
		t.Fatalf("root index routed to unknown node %s", res.Node.Addr)
		return -1
	}
	holder := holderOf(0)
	// The clients sit on two nodes that stay up.
	var clients []int
	for i := 0; len(clients) < 2; i++ {
		if i != holder {
			clients = append(clients, i)
		}
	}
	mounts := []*core.Mount{c.Mount(clients[0]), c.Mount(clients[1])}

	model := NewOracle()
	listing := func(m *core.Mount) string {
		ents, _, err := m.Readdir(m.Root())
		if err != nil {
			t.Fatalf("root listing: %v", err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name)
		}
		sort.Strings(names)
		return strings.Join(names, ",")
	}
	agree := func(when string) {
		t.Helper()
		want := strings.Join(model.List("/"), ",")
		for i, m := range mounts {
			if got := listing(m); got != want {
				t.Fatalf("%s: mount %d lists [%s], oracle [%s]", when, i, got, want)
			}
		}
	}
	// burst makes n directories and removes every third one made so far,
	// alternating mounts, checking both listings after each acknowledgement.
	made := 0
	burst := func(phase string, n int) {
		for i := 0; i < n; i++ {
			m := mounts[made%2]
			p := fmt.Sprintf("/h%02d", made)
			if _, _, err := m.MkdirAll(p); err != nil {
				t.Fatalf("%s: mkdir %s: %v", phase, p, err)
			}
			model.MkdirAll(p)
			made++
			agree(phase + " mkdir " + p)
			if made%3 == 0 {
				victim := fmt.Sprintf("/h%02d", made-3)
				if _, err := mounts[(made+1)%2].Rmdir(core.RootVH, victim[1:]); err != nil {
					t.Fatalf("%s: rmdir %s: %v", phase, victim, err)
				}
				model.RemoveAll(victim)
				agree(phase + " rmdir " + victim)
			}
		}
	}

	burst("healthy", 6)
	c.Stabilize()
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("before the crash: %v", err)
	}

	// No stabilization after the crash: the next listing is what discovers
	// the dead holder, and it must be answered from a replica.
	c.Fail(holder)
	agree("right after the crash")
	burst("holder down", 6)
	c.Stabilize()
	promoted := holderOf(clients[0])
	if promoted == holder {
		t.Fatal("the crashed node still owns the root index")
	}
	root, err := c.Nodes[promoted].Store().LookupPath(core.RootStore)
	if err != nil {
		t.Fatalf("promoted holder has no primary copy of the index: %v", err)
	}
	ents, _, err := c.Nodes[promoted].Store().Readdir(root.Ino)
	if err != nil {
		t.Fatal(err)
	}
	var held []string
	for _, e := range ents {
		held = append(held, e.Name)
	}
	sort.Strings(held)
	if got, want := strings.Join(held, ","), strings.Join(model.List("/"), ","); got != want {
		t.Fatalf("promoted holder's index holds [%s], oracle [%s]", got, want)
	}

	if err := c.Revive(holder); err != nil {
		t.Fatal(err)
	}
	c.Stabilize()
	burst("holder revived", 6)
	c.Stabilize()
	c.Stabilize()
	for i, m := range mounts {
		if err := model.Check(m); err != nil {
			t.Fatalf("final check mount %d: %v", i, err)
		}
	}
	if err := ReplicaConvergence(c, model, replicas); err != nil {
		t.Fatalf("after the revival: %v", err)
	}
}
