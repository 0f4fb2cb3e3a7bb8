package localfs

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestLookupPathAllocs: resolving a path that exists steps through its
// components in place and allocates nothing. (Splitting the path first cost
// one slice per call.)
func TestLookupPathAllocs(t *testing.T) {
	fs := newFS(0)
	if err := fs.WriteFile("/\x01root/u001/proj/src/main.c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/", "/\x01root", "/\x01root/u001/proj/src/main.c"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := fs.LookupPath(p); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("LookupPath(%q) allocates %.0f times, want 0", p, n)
		}
	}
}

// TestLookupMissAllocatesNothing: a name missing from its directory is
// ErrNoEnt itself, by string or by bytes, and costs no allocation. (It was
// wrapped with the name and the directory's inode on every miss, text that
// every caller reduced to a status.)
func TestLookupMissAllocatesNothing(t *testing.T) {
	fs := newFS(0)
	dir, err := fs.MkdirAll("/d")
	if err != nil {
		t.Fatal(err)
	}
	name := []byte("missing")
	var errs [2]error
	if n := testing.AllocsPerRun(100, func() {
		_, _, errs[0] = fs.Lookup(dir.Ino, "missing")
		_, _, errs[1] = fs.LookupName(dir.Ino, name)
	}); n != 0 {
		t.Errorf("two lookup misses allocate %.0f times, want 0", n)
	}
	for _, err := range errs {
		if err != ErrNoEnt {
			t.Errorf("lookup miss = %v, want ErrNoEnt itself", err)
		}
	}
}

// splitPath is the component split the walker replaced: the clean path split
// on its separators, each component checked with checkName.
func splitPath(p string) ([]string, error) {
	clean := CleanPath(p)
	if clean == "/" {
		return nil, nil
	}
	parts := strings.Split(clean[1:], "/")
	for _, part := range parts {
		if err := checkName(part); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// FuzzComponents: for any string, the walker yields the components splitPath
// yields, or fails where it fails, with the same error.
func FuzzComponents(f *testing.F) {
	long := strings.Repeat("n", MaxNameLen+1)
	for _, p := range []string{"", "/", "//", "a", "/a/b", "/a/b/", "a//b", "/./a", "/a/.", "/a/../b", "..", "/..",
		"/\x01root/u\x01/f", "\x01", "/" + long, "/a/" + long + "/b", "/a/" + long[1:]} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		want, wantErr := splitPath(p)
		c, err := componentsOf(p)
		if (err == nil) != (wantErr == nil) || err != nil && (err.Error() != wantErr.Error() || !errors.Is(err, ErrInval)) {
			t.Fatalf("componentsOf(%q) err = %v, splitPath's %v", p, err, wantErr)
		}
		if err != nil {
			return
		}
		var got []string
		for name, ok := c.next(); ok; name, ok = c.next() {
			got = append(got, name)
		}
		if !reflect.DeepEqual(got, want) || c.clean != CleanPath(p) {
			t.Fatalf("componentsOf(%q) = %q at %q, splitPath's %q", p, got, c.clean, want)
		}
	})
}
