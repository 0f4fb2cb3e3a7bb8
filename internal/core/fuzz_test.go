package core

import (
	"path"
	"strings"
	"testing"

	"repro/internal/localfs"
)

// FuzzPlacementFunctions checks that path/placement helpers never panic and
// preserve their invariants on arbitrary input.
func FuzzPlacementFunctions(f *testing.F) {
	f.Add("/alice/docs/file.txt", 2)
	f.Add("", 0)
	f.Add("///a//b/../c", 9)
	f.Add("name#12345678", 1)
	f.Fuzz(func(t *testing.T, vpath string, level int) {
		parts := SplitVirtual(vpath)
		joined := JoinVirtual(parts)
		// Re-splitting the join is a fixed point.
		again := SplitVirtual(joined)
		if len(again) != len(parts) {
			t.Fatalf("split/join not stable: %v vs %v", parts, again)
		}
		for i := range parts {
			if parts[i] != again[i] {
				t.Fatalf("component %d changed", i)
			}
		}
		d := ControllingDepth(len(parts), level)
		if d < 0 || d > len(parts) {
			t.Fatalf("depth %d out of range for %d parts", d, len(parts))
		}
		if len(parts) > 0 && d == 0 {
			t.Fatal("non-empty path with zero controlling depth")
		}
		// Salting round-trips for any VALID name (names matching the
		// salted pattern are rejected by ValidName at creation time, so
		// the ambiguity cannot arise in a live system).
		if len(parts) > 0 && ValidName(parts[0]) == nil {
			name := parts[0]
			for a := 0; a < 3; a++ {
				pn := Salted(name, a)
				if BaseName(pn) != name {
					t.Fatalf("BaseName(Salted(%q,%d)) = %q", name, a, BaseName(pn))
				}
			}
		}
		// Link targets round-trip unless the name itself embeds the
		// separator byte (reserved, rejected by ValidName).
		if !strings.Contains(vpath, "\x03") {
			pn, store, ok := ParseLinkTarget(MakeLinkTarget(vpath, "/store"))
			if !ok || pn != vpath || store != "/store" {
				t.Fatal("link target round trip failed")
			}
		}
		if _, _, ok := ParseLinkTarget(strings.TrimPrefix(vpath, LinkMarker)); ok && !strings.HasPrefix(strings.TrimPrefix(vpath, LinkMarker), LinkMarker) {
			t.Fatal("unmarked target recognized as special")
		}
	})
}

// FuzzLevels: the resolver's levels of a clean path are its prefixes, each
// equal to joining its first i components, and the helpers that count, split
// and extend a clean path agree with SplitVirtual, path.Split and path.Join.
// The metadata cache's subtree test matches other against a joined path
// without building it, as localfs.InTree would against the built one.
func FuzzLevels(f *testing.F) {
	for _, p := range []string{"", "/", "//", "a", "/a/b/c", "/a/b/", "a//b/./c/..", "/..", "/\x01root/u1/f", "/#/x#12345678"} {
		f.Add(p, "/a/b/c/d")
		f.Add(p, p+"x")
	}
	f.Fuzz(func(t *testing.T, vpath, other string) {
		clean := localfs.CleanPath(vpath)
		parts := SplitVirtual(vpath)
		if n := pathComponents(clean); n != len(parts) {
			t.Fatalf("pathComponents(%q) = %d, SplitVirtual has %d", clean, n, len(parts))
		}
		for i := 0; i <= len(parts); i++ {
			if got, want := level(clean, i), JoinVirtual(parts[:i]); got != want {
				t.Fatalf("level(%q, %d) = %q, want %q", clean, i, got, want)
			}
		}
		if level(clean, len(parts)+1) != clean {
			t.Fatalf("level(%q) past its depth is not the path", clean)
		}
		dir, name := parentOf(clean)
		if d, n := path.Split(clean); path.Clean(d) != dir || n != name {
			t.Fatalf("parentOf(%q) = %q, %q; path.Split: %q, %q", clean, dir, name, d, n)
		}
		if name != "" && childPath(dir, name) != clean {
			t.Fatalf("childPath(parentOf(%q)) = %q", clean, childPath(dir, name))
		}
		other = localfs.CleanPath(other)
		if got, want := inTree(other, dir, name), localfs.InTree(other, clean); got != want {
			t.Fatalf("inTree(%q, %q, %q) = %v, InTree against %q says %v", other, dir, name, got, clean, want)
		}
		if got, want := inTree(other, clean, ""), localfs.InTree(other, clean); got != want {
			t.Fatalf("inTree(%q, %q, \"\") = %v, want %v", other, clean, got, want)
		}
	})
}
