package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestNothingKeepsALentMutationPath runs the store's real mutation
// subscribers, each node's digest cache (merkle.Cache) and the block index it
// keeps in step (cas.Store), at K = 2 with wire's poisoning on: write-through
// writes at the primary and its two replicas, a mirrored rename and remove,
// and replica syncs that memoise digests and manifests before the mutations
// and after them. localfs lends each hook a path in a scratch that it fills
// with wire.Poison once the hooks have returned, so a subscriber that kept a
// path would leave poison in a memo key, a manifest key, an indexed file name
// or a tracking record.
func TestNothingKeepsALentMutationPath(t *testing.T) {
	defer wire.PoisonFreed(wire.PoisonFreed(true))
	net := simnet.New(simnet.LAN100)
	state := uint64(47)
	nodes := make([]*Node, 5)
	for i := range nodes {
		nodes[i] = NewNode(simnet.Addr(fmt.Sprintf("k%d", i)), id.Rand128(&state), net, Config{Replicas: 2})
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nodes[i].Join(boot); err != nil {
			t.Fatal(err)
		}
	}
	stabilizeAll(nodes)

	m := nodes[1].NewMount()
	payload := []byte(strings.Repeat("lent path ", 2000))
	for _, p := range []string{"/lent/a", "/lent/b", "/lent/sub/c", "/lent/sub/d"} {
		if _, err := m.WriteFile(p, payload); err != nil {
			t.Fatal(err)
		}
	}
	syncAll := func() {
		for _, nd := range nodes {
			nd.SyncReplicas()
		}
	}
	syncAll() // digests and manifests memoised before the mutations below

	dir, _, _, err := m.LookupPath("/lent")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/lent/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Write(fvh, 100, []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rename(dir, "a", dir, "renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Remove(dir, "b"); err != nil {
		t.Fatal(err)
	}
	syncAll()

	poisoned := func(s string) bool { return strings.IndexByte(s, wire.Poison) >= 0 }
	var memo, manifests, indexed int
	for _, nd := range nodes {
		eng := reflect.ValueOf(nd.Repl()).Elem()
		mk := derefField(t, eng, "mk")
		for _, held := range []struct {
			what string
			keys []string
			n    *int
		}{
			{"memoises a digest at", mapKeys(t, mk, "memo"), &memo},
			{"memoises a manifest at", mapKeys(t, mk, "manifests"), &manifests},
			{"indexes the blocks of", mapKeys(t, derefField(t, eng, "cas"), "files"), &indexed},
		} {
			*held.n += len(held.keys)
			for _, k := range held.keys {
				if poisoned(k) {
					t.Errorf("%s %s %q: a path kept from a mutation hook", nd.Addr(), held.what, k)
				}
			}
		}
		for _, tr := range nd.Repl().Tracks() {
			if poisoned(tr.PN) || poisoned(tr.Root) {
				t.Errorf("%s tracks %+v: a name kept from a mutation hook", nd.Addr(), tr)
			}
		}
	}
	if memo == 0 || manifests == 0 || indexed == 0 {
		t.Fatalf("the caches hold %d digests, %d manifests and %d indexed files: the syncs memoised nothing to check", memo, manifests, indexed)
	}
}

// derefField returns the struct the pointer field name of v points to.
func derefField(t *testing.T, v reflect.Value, name string) reflect.Value {
	t.Helper()
	f := v.FieldByName(name)
	if f.Kind() != reflect.Pointer || f.IsNil() {
		t.Fatalf("%s has no pointer field %q", v.Type(), name)
	}
	return f.Elem()
}

// mapKeys returns the keys of the string-keyed map field name of v.
func mapKeys(t *testing.T, v reflect.Value, name string) []string {
	t.Helper()
	f := v.FieldByName(name)
	if f.Kind() != reflect.Map || f.Type().Key().Kind() != reflect.String {
		t.Fatalf("%s has no string-keyed map field %q", v.Type(), name)
	}
	keys := make([]string, 0, f.Len())
	for _, k := range f.MapKeys() {
		keys = append(keys, k.String())
	}
	return keys
}
