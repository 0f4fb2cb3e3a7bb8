package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/nfs"
)

func TestBuildAndBasicIO(t *testing.T) {
	c, err := New(Options{Nodes: 8, Seed: 1, Config: core.Config{Replicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 8 || len(c.Alive()) != 8 {
		t.Fatalf("nodes=%d alive=%d", len(c.Nodes), len(c.Alive()))
	}
	m := c.Mount(0)
	if _, err := m.WriteFile("/home/readme", []byte("cluster up")); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Mount(7).ReadFile("/home/readme")
	if err != nil || string(data) != "cluster up" {
		t.Fatalf("read %q err=%v", data, err)
	}
}

func TestPerNodeCapacities(t *testing.T) {
	caps := []int64{3 << 30, 3 << 30, 4 << 30, 5 << 30}
	c, err := New(Options{Nodes: 4, Seed: 2, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range c.Nodes {
		if nd.Store().Capacity() != caps[i] {
			t.Fatalf("node %d capacity = %d", i, nd.Store().Capacity())
		}
	}
}

func TestChurnJoinFailRevive(t *testing.T) {
	c, err := New(Options{Nodes: 5, Seed: 3, Config: core.Config{Replicas: 2}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(1)
	for i := 0; i < 6; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/d%d/f", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Join two more nodes.
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	// Fail one non-client node, data stays available.
	c.Fail(3)
	c.Stabilize()
	for i := 0; i < 6; i++ {
		if _, _, err := m.ReadFile(fmt.Sprintf("/d%d/f", i)); err != nil {
			t.Fatalf("read d%d after failure: %v", i, err)
		}
	}
	// Revive with a fresh identity; everything still readable.
	if err := c.Revive(3); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[3].Store().NumFiles() != 0 && len(c.Nodes[3].Repl().Tracks()) == 0 {
		t.Fatal("revived node kept files without tracking")
	}
	for i := 0; i < 6; i++ {
		if _, _, err := m.ReadFile(fmt.Sprintf("/d%d/f", i)); err != nil {
			t.Fatalf("read d%d after revive: %v", i, err)
		}
	}
}

func TestStoreStatsReflectPlacement(t *testing.T) {
	c, err := New(Options{Nodes: 4, Seed: 4, Config: core.Config{Replicas: -1}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	payload := make([]byte, 1000)
	for i := 0; i < 12; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/u%d/f", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.StoreStats()
	var files, bytes int64
	for _, s := range stats {
		files += s.Files
		bytes += s.Bytes
	}
	if files != 12 {
		t.Fatalf("total files = %d", files)
	}
	if bytes != 12*1000 {
		t.Fatalf("total bytes = %d", bytes)
	}
}

func TestConcurrentClientsSequentialOps(t *testing.T) {
	c, err := New(Options{Nodes: 4, Seed: 5, Config: core.Config{Replicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Two mounts interleave writes to distinct files in one directory;
	// both see all files afterwards.
	m1, m2 := c.Mount(0), c.Mount(2)
	for i := 0; i < 5; i++ {
		if _, err := m1.WriteFile(fmt.Sprintf("/mix/a%d", i), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if _, err := m2.WriteFile(fmt.Sprintf("/mix/b%d", i), []byte("2")); err != nil {
			t.Fatal(err)
		}
	}
	vh, _, _, err := m1.LookupPath("/mix")
	if err != nil {
		t.Fatal(err)
	}
	ents, _, err := m1.Readdir(vh)
	if err != nil || len(ents) != 10 {
		t.Fatalf("listing %d entries err=%v", len(ents), err)
	}
	if _, _, _, err := m2.LookupPath("/mix/a3"); err != nil {
		t.Fatalf("m2 sees m1's file: %v", err)
	}
}

func TestMissingFileError(t *testing.T) {
	c, err := New(Options{Nodes: 3, Seed: 6, Config: core.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Mount(0).ReadFile("/nope/missing"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("err = %v", err)
	}
}
