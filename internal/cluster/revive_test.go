package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
)

// reviveCfg is the configuration of the revive tests: replica maintenance
// runs only where a test calls Stabilize or SyncReplicas, so each assertion
// runs against a known synchronization state.
func reviveCfg() core.Config {
	return core.Config{Replicas: 2}
}

// TestReviveSkipsDeadSeed: reviving node i must not bootstrap through the
// next node in index order when that node is itself down — the rejoin has to
// find a live seed. (Regression: Revive used to hardcode (i+1) % len.)
func TestReviveSkipsDeadSeed(t *testing.T) {
	c, err := New(Options{Nodes: 6, Seed: 5, Config: reviveCfg()})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	if _, err := m.WriteFile("/u/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c.Fail(1)
	c.Fail(2)
	c.Stabilize()
	if err := c.Revive(1); err != nil {
		t.Fatalf("revive with dead index-neighbor seed: %v", err)
	}
	if got := len(c.Alive()); got != 5 {
		t.Fatalf("alive = %d, want 5", got)
	}
	data, _, err := m.ReadFile("/u/f")
	if err != nil || !bytes.Equal(data, []byte("payload")) {
		t.Fatalf("read after revive: %q err=%v", data, err)
	}
}

// TestFailedNodeNotRoutedTo: once the overlay has stabilized around a crash,
// no live node's resolution may land on the failed node — and a node that
// merely reconnects (handlers back up, same identifier, no re-announce) must
// stay invisible until it rejoins, so its stale store cannot be consulted.
func TestFailedNodeNotRoutedTo(t *testing.T) {
	c, err := New(Options{Nodes: 6, Seed: 17, Config: reviveCfg()})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	var dirs []string
	for i := 0; i < 8; i++ {
		d := fmt.Sprintf("/d%d", i)
		dirs = append(dirs, d)
		if _, err := m.WriteFile(d+"/f", []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	c.Stabilize()

	const victim = 3
	dead := c.Nodes[victim].Addr()
	c.Fail(victim)
	c.Stabilize()

	checkNoRoutesTo := func(tag string) {
		t.Helper()
		for _, i := range []int{0, 1, 2} {
			for _, d := range dirs {
				pl, _, err := c.Nodes[i].ResolvePath(d)
				if err != nil {
					t.Fatalf("[%s] resolve %s from node %d: %v", tag, d, i, err)
				}
				if pl.Node == dead {
					t.Fatalf("[%s] %s resolved to failed node %s", tag, d, dead)
				}
			}
		}
	}
	checkNoRoutesTo("after crash")

	// Reconnect without re-announcing: the machine is back on the network
	// but has not rejoined the overlay. Peers purged it; nothing may route
	// to it, so its (potentially stale) storage is never served.
	c.Net.SetDown(dead, false)
	checkNoRoutesTo("after silent reconnect")
	for _, d := range dirs {
		data, _, err := m.ReadFile(d + "/f")
		if err != nil || !bytes.Equal(data, []byte(d)) {
			t.Fatalf("read %s after silent reconnect: %q err=%v", d, data, err)
		}
	}

	// A proper rejoin (fresh identifier, purged store, announce) makes the
	// node eligible again without perturbing observable contents.
	c.Net.SetDown(dead, true)
	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		data, _, err := m.ReadFile(d + "/f")
		if err != nil || !bytes.Equal(data, []byte(d)) {
			t.Fatalf("read %s after revive: %q err=%v", d, data, err)
		}
	}
}

// TestStaleStoreRevalidatedAfterReconnect: a node that crashes, misses
// writes, and reconnects with its old identifier and old storage intact must
// not win back ownership with stale data — replica synchronization has to
// reconcile versions so every client reads the acknowledged state.
func TestStaleStoreRevalidatedAfterReconnect(t *testing.T) {
	c, err := New(Options{Nodes: 6, Seed: 23, Config: reviveCfg()})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	if _, err := m.WriteFile("/u/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.Stabilize()

	pl, _, err := c.Nodes[0].ResolvePath("/u")
	if err != nil {
		t.Fatal(err)
	}
	primary := -1
	for i, nd := range c.Nodes {
		if nd.Addr() == pl.Node {
			primary = i
		}
	}
	if primary < 0 {
		t.Fatalf("primary %s not in cluster", pl.Node)
	}
	// Drive writes from a node other than the primary so the client side
	// survives the crash.
	client := (primary + 1) % len(c.Nodes)
	mc := c.Mount(client)

	c.Fail(primary)
	c.Stabilize()
	if _, err := mc.WriteFile("/u/f", []byte("v2-after-crash")); err != nil {
		t.Fatalf("write during primary outage: %v", err)
	}

	// Silent reconnect: same identifier, stale store. Before the node
	// re-announces, other clients must keep reading the new version.
	c.Net.SetDown(pl.Node, false)
	data, _, err := mc.ReadFile("/u/f")
	if err != nil || !bytes.Equal(data, []byte("v2-after-crash")) {
		t.Fatalf("read after silent reconnect: %q err=%v", data, err)
	}

	// Once the cluster stabilizes (the node re-announces and replica
	// synchronization runs), version arbitration must converge every copy
	// onto the acknowledged write — even if ownership returns to the
	// reconnected node, its stale v1 loses to the replicas' v2.
	c.Stabilize()
	for _, i := range []int{0, client, primary} {
		got, _, err := c.Mount(i).ReadFile("/u/f")
		if err != nil || !bytes.Equal(got, []byte("v2-after-crash")) {
			t.Fatalf("node %d read after restabilize: %q err=%v", i, got, err)
		}
	}
}
