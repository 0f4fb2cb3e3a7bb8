package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSaltDeterministic(t *testing.T) {
	if Salt("beta", 1) != Salt("beta", 1) {
		t.Fatal("salt not deterministic")
	}
	if Salt("beta", 1) == Salt("beta", 2) {
		t.Fatal("salts for different attempts should differ")
	}
	if Salt("beta", 1) == Salt("gamma", 1) {
		t.Fatal("salts for different names should differ")
	}
	if len(Salt("x", 3)) != saltLen {
		t.Fatalf("salt length = %d", len(Salt("x", 3)))
	}
}

func TestSaltedRoundTrip(t *testing.T) {
	if Salted("docs", 0) != "docs" {
		t.Fatal("attempt 0 must be unsalted")
	}
	s := Salted("docs", 3)
	if !IsSalted(s) {
		t.Fatalf("%q not recognized as salted", s)
	}
	if BaseName(s) != "docs" {
		t.Fatalf("BaseName(%q) = %q", s, BaseName(s))
	}
	if IsSalted("docs") {
		t.Fatal("plain name flagged as salted")
	}
	if BaseName("docs") != "docs" {
		t.Fatal("BaseName of plain name changed it")
	}
}

func TestIsSaltedEdgeCases(t *testing.T) {
	cases := map[string]bool{
		"a#12345678":     true,
		"a#1234567":      false, // 7 hex digits
		"a#123456789":    false, // 9 hex digits
		"a#1234567g":     false, // non-hex
		"#12345678":      true,  // empty base is still salted shape
		"a#b#12345678":   true,  // salt applies to last segment
		"plain":          false,
		"trailing#":      false,
		"a#1234567G":     false, // uppercase not produced by Salt
		"MIGRATION_FLAG": false,
	}
	for s, want := range cases {
		if got := IsSalted(s); got != want {
			t.Errorf("IsSalted(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestKeyMatchesHash(t *testing.T) {
	if Key("beta") != Key("beta") {
		t.Fatal("Key not deterministic")
	}
	if Key("beta") == Key("beta#12345678") {
		t.Fatal("salted name must hash differently")
	}
}

func TestSplitJoinVirtual(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"/", nil},
		{"", nil},
		{"/a", []string{"a"}},
		{"/a/b/c", []string{"a", "b", "c"}},
		{"a/b", []string{"a", "b"}},
		{"/a//b/", []string{"a", "b"}},
		{"/a/./b", []string{"a", "b"}},
		{"/a/../b", []string{"b"}},
	}
	for _, c := range cases {
		got := SplitVirtual(c.in)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("SplitVirtual(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if JoinVirtual(nil) != "/" {
		t.Error("JoinVirtual(nil)")
	}
	if JoinVirtual([]string{"a", "b"}) != "/a/b" {
		t.Error("JoinVirtual(a,b)")
	}
}

func TestControllingDepth(t *testing.T) {
	cases := []struct {
		dirDepth, level, want int
	}{
		{0, 1, 0},
		{1, 1, 1},
		{3, 1, 1},
		{3, 2, 2},
		{2, 4, 2},
		{5, 4, 4},
		{3, 0, 1}, // level clamped to 1
	}
	for _, c := range cases {
		if got := ControllingDepth(c.dirDepth, c.level); got != c.want {
			t.Errorf("ControllingDepth(%d,%d) = %d, want %d", c.dirDepth, c.level, got, c.want)
		}
	}
}

// TestPhysPath pins how a storage root joins the components below it.
func TestPhysPath(t *testing.T) {
	if got := (Place{Store: "/"}).PhysDir(); got != "/" {
		t.Errorf("empty = %q", got)
	}
	if got := (Place{Store: "/a#12345678"}).PhysDir(); got != "/a#12345678" {
		t.Errorf("root only = %q", got)
	}
	want := "/a" + ChainSep + "b#12345678/x/y"
	if got := (Place{Store: "/a" + ChainSep + "b#12345678", Rest: []string{"x", "y"}}).PhysDir(); got != want {
		t.Errorf("root+rest = %q, want %q", got, want)
	}
}

func TestHidden(t *testing.T) {
	if !Hidden(MigrationFlag) {
		t.Error("flag must be hidden")
	}
	if !Hidden("dir#12345678") {
		t.Error("salted dirs must be hidden")
	}
	if Hidden("normal.txt") || Hidden("a#b") {
		t.Error("normal names must not be hidden")
	}
	if !Hidden("a" + ChainSep + "b") {
		t.Error("chain-encoded subtree roots must be hidden")
	}
	if !Hidden(RepArea[1:]) {
		t.Error("replica area must be hidden")
	}
}

func TestPropSaltedBaseNameInverse(t *testing.T) {
	f := func(name string, attempt uint8) bool {
		if strings.ContainsRune(name, '/') {
			return true
		}
		a := int(attempt % 16)
		pn := Salted(name, a)
		if a == 0 {
			return pn == name
		}
		return IsSalted(pn) && BaseName(pn) == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSaltedKeysSpread(t *testing.T) {
	// Different attempts must (essentially always) map to different keys.
	name := "victim"
	seen := map[string]bool{}
	for a := 0; a < 16; a++ {
		k := Key(Salted(name, a)).String()
		if seen[k] {
			t.Fatalf("key collision at attempt %d", a)
		}
		seen[k] = true
	}
}

func TestValidName(t *testing.T) {
	good := []string{"alice", "notes.txt", "a#b", "x-y_z", "file#1234567"}
	for _, n := range good {
		if err := ValidName(n); err != nil {
			t.Errorf("ValidName(%q) = %v, want nil", n, err)
		}
	}
	bad := []string{
		"", ".", "..", "a/b",
		"dir#12345678",       // reserved redirection pattern
		"a" + ChainSep + "b", // chain separator
		LinkMarker + "evil",  // link marker
		MigrationFlag,        // migration sentinel
		RepArea[1:],          // replica area
		strings.Repeat("x", 300),
	}
	for _, n := range bad {
		if err := ValidName(n); err == nil {
			t.Errorf("ValidName(%q) accepted", n)
		}
	}
}

func TestLinkTargetMarker(t *testing.T) {
	pn, store, ok := ParseLinkTarget(MakeLinkTarget("docs#deadbeef", "/\x01docs.12ab"))
	if !ok || pn != "docs#deadbeef" || store != "/\x01docs.12ab" {
		t.Fatalf("round trip: %q %q %v", pn, store, ok)
	}
	if _, _, ok := ParseLinkTarget("plain-user-target"); ok {
		t.Fatal("user target recognized as special")
	}
	if _, _, ok := ParseLinkTarget(""); ok {
		t.Fatal("empty target recognized as special")
	}
	if _, _, ok := ParseLinkTarget(LinkMarker + "no-separator"); ok {
		t.Fatal("marker without separator recognized as special")
	}
}
