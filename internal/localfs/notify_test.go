package localfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/racetest"
	"repro/internal/wire"
)

// recordPaths subscribes to f and returns the log of notified paths, each
// cloned as the MutationNotifier borrow rule asks of a hook that keeps one.
func recordPaths(f *FS) *[]string {
	var log []string
	f.OnMutation(func(p string) { log = append(log, strings.Clone(p)) })
	return &log
}

// The path a hook is lent is built in the store's own scratch: with a
// subscriber attached, a Write, a Setattr and a Create allocate no more than
// with none. Each store gets the same setup and the same names, so map growth
// is the same on both sides.
func TestLentPathAllocatesNothing(t *testing.T) {
	const runs = 100
	names := make([]string, runs+1) // AllocsPerRun calls once more to warm up
	for i := range names {
		names[i] = fmt.Sprintf("new-%04d", i)
	}
	measure := func(subscribe bool) (write, setattr, create float64) {
		f := newFS(0)
		if subscribe {
			n := 0
			f.OnMutation(func(p string) { n += len(p) })
		}
		d := mustMkdir(t, f, RootIno, "home")
		d = mustMkdir(t, f, d.Ino, "alice")
		a := mustCreate(t, f, d.Ino, "notes.txt")
		buf := make([]byte, 512)
		mode := uint32(0o600)
		i := 0
		write = testing.AllocsPerRun(runs, func() {
			if _, _, err := f.Write(a.Ino, 0, buf); err != nil {
				t.Fatal(err)
			}
		})
		setattr = testing.AllocsPerRun(runs, func() {
			if _, _, err := f.Setattr(a.Ino, SetAttr{Mode: &mode}); err != nil {
				t.Fatal(err)
			}
		})
		create = testing.AllocsPerRun(runs, func() {
			if _, _, err := f.Create(d.Ino, names[i], 0o644, true); err != nil {
				t.Fatal(err)
			}
			i++
		})
		return write, setattr, create
	}
	racetest.SkipAllocs(t)
	w0, s0, c0 := measure(false)
	w1, s1, c1 := measure(true)
	for _, c := range []struct {
		op         string
		none, hook float64
	}{{"Write", w0, w1}, {"Setattr", s0, s1}, {"Create", c0, c1}} {
		if c.hook > c.none {
			t.Errorf("%s allocates %.1f objects with a subscriber, %.1f with none: the notified path is allocated", c.op, c.hook, c.none)
		}
	}
}

// A hook that clones what it is lent sees each mutation's exact path, in
// order: a rename reports the old path, then the new one, and a rename over
// a destination reports the destination's removal first. All three are built
// in the one scratch.
func TestLentPathsAreExact(t *testing.T) {
	f := newFS(0)
	d := mustMkdir(t, f, RootIno, "d")
	e := mustMkdir(t, f, RootIno, "e")
	sub := mustMkdir(t, f, d.Ino, "sub")
	mustCreate(t, f, sub.Ino, "x")
	mustMkdir(t, f, e.Ino, "moved")
	log := recordPaths(f)

	a := mustCreate(t, f, d.Ino, "f")
	if _, _, err := f.Write(a.Ino, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Remove(d.Ino, "f"); err != nil {
		t.Fatal(err)
	}
	mustMkdir(t, f, d.Ino, "empty")
	if _, err := f.Rmdir(d.Ino, "empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Rename(d.Ino, "sub", e.Ino, "moved"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, f, sub.Ino, "y") // sub is /e/moved now
	want := []string{
		"/d/f", "/d/f", "/d/f",
		"/d/empty", "/d/empty",
		"/e/moved", "/d/sub", "/e/moved",
		"/e/moved/y",
	}
	if !slices.Equal(*log, want) {
		t.Errorf("notified paths %q, want %q", *log, want)
	}
}

// A path longer than any before grows the scratch, and is lent whole.
func TestLentPathLongerThanTheScratch(t *testing.T) {
	f := newFS(0)
	log := recordPaths(f)
	mustCreate(t, f, RootIno, "a") // the scratch's first capacity: 2 bytes
	dir, want := RootIno, ""
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("%02d-%s", i, strings.Repeat("n", 60))
		dir = mustMkdir(t, f, dir, name).Ino
		want += "/" + name
	}
	a := mustCreate(t, f, dir, "leaf")
	want += "/leaf"
	*log = nil
	if _, _, err := f.Write(a.Ino, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 1 || (*log)[0] != want {
		t.Fatalf("a write at a %d-byte path notified %q, want the path", len(want), *log)
	}
	if _, _, err := f.Write(mustCreate(t, f, RootIno, "a").Ino, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := (*log)[len(*log)-1]; got != "/a" {
		t.Errorf("a short path after the long one notified %q, want /a", got)
	}
}

// With wire's poisoning on, the scratch is filled with wire.Poison once the
// last hook has returned, so a hook that keeps its path without cloning it
// reads poison, not a path.
func TestKeptPathIsPoisoned(t *testing.T) {
	defer wire.PoisonFreed(wire.PoisonFreed(true))
	f := newFS(0)
	var kept string
	f.OnMutation(func(p string) { kept = p })
	d := mustMkdir(t, f, RootIno, "d")
	a := mustCreate(t, f, d.Ino, "f")
	for _, mutate := range []func() error{
		func() error { _, _, err := f.Write(a.Ino, 0, []byte("data")); return err },
		func() error { _, err := f.Rename(d.Ino, "f", d.Ino, "g"); return err },
	} {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		if kept == "" || strings.Count(kept, string([]byte{wire.Poison})) != len(kept) {
			t.Errorf("a kept path reads %q after its mutation, want only wire.Poison", kept)
		}
	}
}
