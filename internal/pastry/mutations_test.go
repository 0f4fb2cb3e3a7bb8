package pastry

import (
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/simnet"
)

// TestMutationsCountOnlyChanges: the mutation count moves on every change
// to the overlay state (a table-only add, a leaf add, a purge, a changed
// peer Load) and on nothing else (a repeated NOTIFY, an update that merges
// only peers already known, a re-gossip of the same Load).
func TestMutationsCountOnlyChanges(t *testing.T) {
	net := simnet.New(simnet.LAN100)
	node := func(v uint64, addr simnet.Addr) *Node {
		n := NewNode(id.FromUint64(v), addr, net, 4) // two successors, two predecessors
		n.Attach()
		return n
	}
	// a is 0x3e8. x and y share its first 30 digits and take the same table
	// slot (row 30, column f); p1 and p2 precede it; b (row 29) and far
	// (row 21) lie beyond the two nearest successors.
	a, b := node(0x3e8, "a"), node(0x400, "b")
	peer := func(v uint64, addr simnet.Addr) NodeInfo { return NodeInfo{ID: id.FromUint64(v), Addr: addr} }
	x, y, p1, p2, far := peer(0x3f0, "x"), peer(0x3f1, "y"), peer(0x3e7, "p1"), peer(0x3e6, "p2"), peer(1<<40, "f")

	step := func(what string, wantA, wantB bool, do func()) {
		t.Helper()
		a0, b0 := a.Mutations(), b.Mutations()
		do()
		if moved := a.Mutations() != a0; moved != wantA {
			t.Errorf("%s: a's count moved %v, want %v", what, moved, wantA)
		}
		if moved := b.Mutations() != b0; moved != wantB {
			t.Errorf("%s: b's count moved %v, want %v", what, moved, wantB)
		}
	}
	notify := func() {
		if _, err := a.rpcNotify("b", a.Info()); err != nil {
			t.Fatal(err)
		}
	}
	inTable := func(p NodeInfo) bool {
		return slices.ContainsFunc(a.TableEntries(), func(te TableEntry) bool { return te.Node == p })
	}

	step("table and leaf add", true, false, func() {
		if !a.update([]NodeInfo{x, p1, p2}, nil) {
			t.Error("x, p1 and p2 did not join a's leaf set")
		}
	})
	step("leaf-only add", true, false, func() {
		if !a.update([]NodeInfo{y}, nil) || inTable(y) {
			t.Error("y did not join a's leaf set alone")
		}
	})
	step("first NOTIFY", true, true, notify)
	step("repeated NOTIFY, same loads both ways", false, false, notify)
	step("table-only add", true, false, func() {
		if a.update([]NodeInfo{far}, nil) || !inTable(far) {
			t.Error("far did not join a's table alone")
		}
	})
	step("update merging only known peers", false, false, func() {
		a.update(a.Known(), nil)
	})
	b.SetLoadProvider(func() Load { return Load{Used: 1, Capacity: 10} })
	step("changed load", true, false, notify)
	step("re-gossip of the same load", false, false, notify)
	step("leaf-only purge", true, false, func() {
		if !a.update(nil, []NodeInfo{y}) {
			t.Error("purging y left a's leaf set as it was")
		}
	})
	step("table-only purge", true, false, func() {
		if a.update(nil, []NodeInfo{far}) || inTable(far) {
			t.Error("purging far did not empty its table slot alone")
		}
	})
}
