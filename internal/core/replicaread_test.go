package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// TestReadFromReplicasSpreadsLoad exercises the Section 4.2 extension:
// with ReadFromReplicas on, repeated reads of one file rotate across the
// primary and its K replica holders, through a handle and through ReadFile
// alike (whose walk then asks for no data: the READ picks the holder).
func TestReadFromReplicasSpreadsLoad(t *testing.T) {
	_, nodes := testCluster(t, 6, 71, Config{Replicas: 2, ReadFromReplicas: true})
	m := nodes[0].NewMount()
	payload := bytes.Repeat([]byte{0x5a}, 8192)
	if _, err := m.WriteFile("/spread/data.bin", payload); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/spread/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		data, eof, _, err := m.Read(fvh, 0, len(payload))
		if err != nil || !eof || !bytes.Equal(data, payload) {
			t.Fatalf("read %d: eof=%v err=%v", i, eof, err)
		}
	}
	whole := nodes[0].NewMount()
	for i := 0; i < 30; i++ {
		if data, _, err := whole.ReadFile("/spread/data.bin"); err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("ReadFile %d: %d bytes err=%v", i, len(data), err)
		}
	}
	for name, spread := range map[string]map[simnet.Addr]int64{"Read": m.ReadSpread(), "ReadFile": whole.ReadSpread()} {
		if len(spread) != 3 {
			t.Fatalf("%s hit %d nodes (%v), want primary + 2 replicas", name, len(spread), spread)
		}
		for addr, cnt := range spread {
			if cnt < 5 {
				t.Fatalf("%s: node %s served only %d of 30 reads: %v", name, addr, cnt, spread)
			}
		}
	}
}

// TestReadFromReplicasFallsBack verifies that a dead replica never breaks a
// read: the rotation transparently falls back to the primary.
func TestReadFromReplicasFallsBack(t *testing.T) {
	net, nodes := testCluster(t, 6, 72, Config{Replicas: 2, ReadFromReplicas: true})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/fb/f", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/fb/f")
	if err != nil {
		t.Fatal(err)
	}
	killReplica(t, net, nodes, "/fb")

	for i := 0; i < 20; i++ {
		data, _, _, err := m.Read(fvh, 0, 100)
		if err != nil || string(data) != "still here" {
			t.Fatalf("read %d with dead replica: %q err=%v", i, data, err)
		}
	}
}

// killReplica takes down one replica holder of dir's hierarchy that is
// neither its primary nor nodes[0], the client, and returns its address.
func killReplica(t *testing.T, net *simnet.Network, nodes []*Node, dir string) simnet.Addr {
	t.Helper()
	pl, _, err := nodes[0].ResolvePath(dir)
	if err != nil {
		t.Fatal(err)
	}
	var primary *Node
	for _, nd := range nodes {
		if nd.Addr() == pl.Node {
			primary = nd
		}
	}
	reps := primary.Overlay().ReplicaCandidates(2)
	victim := reps[0].Addr
	if victim == nodes[0].Addr() {
		victim = reps[1].Addr
	}
	net.SetDown(victim, true)
	return victim
}

// TestReadFromReplicasChargesDeadHolderOnce pins what a dead replica holder
// costs a handle: the one read whose turn lands on it pays for the failed
// attempt — a timeout at least — on top of the primary's answer, and every
// later turn skips it.
func TestReadFromReplicasChargesDeadHolderOnce(t *testing.T) {
	net, nodes := testCluster(t, 6, 72, Config{Replicas: 2, ReadFromReplicas: true})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/fb/f", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/fb/f")
	if err != nil {
		t.Fatal(err)
	}
	victim := killReplica(t, net, nodes, "/fb")

	charged := 0
	for i := 0; i < 20; i++ {
		data, _, cost, err := m.Read(fvh, 0, 100)
		if err != nil || string(data) != "still here" {
			t.Fatalf("read %d with dead replica: %q err=%v", i, data, err)
		}
		if cost >= net.Timeout {
			charged++
		}
	}
	if charged != 1 {
		t.Fatalf("%d of 20 reads paid a timeout, want exactly 1: the dead holder's one attempt", charged)
	}
	if n := m.ReadSpread()[victim]; n != 0 {
		t.Fatalf("dead holder %s served %d reads", victim, n)
	}
}

// TestReadFromReplicasWalksEachHolderOnce pins the handle's holder list: 30
// stop-and-wait reads rotating over the primary and two replica holders walk
// to each replica's copy once, the first time a read lands there, not once
// per turn.
func TestReadFromReplicasWalksEachHolderOnce(t *testing.T) {
	_, nodes := testCluster(t, 6, 71, Config{Replicas: 2, ReadFromReplicas: true})
	m := nodes[0].NewMount()
	payload := bytes.Repeat([]byte{0x5a}, 8192)
	if _, err := m.WriteFile("/spread/data.bin", payload); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/spread/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	walks := nodes[0].NFSProcCount(nfs.ProcLookupPath)
	for i := 0; i < 30; i++ {
		if data, _, _, err := m.Read(fvh, 0, len(payload)); err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("read %d: %d bytes err=%v", i, len(data), err)
		}
	}
	if spread := m.ReadSpread(); len(spread) != 3 {
		t.Fatalf("reads hit %d nodes (%v), want primary + 2 replicas", len(spread), spread)
	}
	if n := nodes[0].NFSProcCount(nfs.ProcLookupPath) - walks; n != 2 {
		t.Fatalf("30 reads over 3 holders issued %d LOOKUPPATHs, want 2: one per replica holder", n)
	}
}

// TestReadFromReplicasConsistentAfterWrite checks that replica reads never
// return stale data under the synchronous mirror path.
func TestReadFromReplicasConsistentAfterWrite(t *testing.T) {
	_, nodes := testCluster(t, 5, 73, Config{Replicas: 2, ReadFromReplicas: true})
	m := nodes[1].NewMount()
	if _, err := m.WriteFile("/c/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/c/f")
	if err != nil {
		t.Fatal(err)
	}
	for round := 2; round < 10; round++ {
		content := []byte(fmt.Sprintf("v%d", round))
		if _, _, err := m.Write(fvh, 0, content); err != nil {
			t.Fatal(err)
		}
		// Several reads, all rotations must see the newest write.
		for i := 0; i < 6; i++ {
			data, _, _, err := m.Read(fvh, 0, 10)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(content) {
				t.Fatalf("round %d read %d: got %q want %q", round, i, data, content)
			}
		}
	}
}

// TestReplicaSetRPC covers the kReplicas protocol directly.
func TestReplicaSetRPC(t *testing.T) {
	_, nodes := testCluster(t, 6, 74, Config{Replicas: 3})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/rs/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pl, _, _ := nodes[0].ResolvePath("/rs")
	reps, _, err := nodes[0].replicaSet(obs.TraceContext{}, pl.Node, Key(pl.PN()), pl.SubtreeRoot())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("replica set size %d, want 3", len(reps))
	}
	for _, r := range reps {
		if r == pl.Node {
			t.Fatal("primary listed as its own replica")
		}
	}
	// Asking a non-primary yields NotPrimary.
	var wrong simnet.Addr
	for _, nd := range nodes {
		if nd.Addr() != pl.Node {
			wrong = nd.Addr()
			break
		}
	}
	if _, _, err := nodes[0].replicaSet(obs.TraceContext{}, wrong, Key(pl.PN()), "/different-root"); err != ErrNotPrimary {
		t.Fatalf("non-primary replicaSet err = %v", err)
	}
}
