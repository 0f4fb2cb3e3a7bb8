// Package core implements Kosha itself (Sections 3-5): the koshad loopback
// daemon that interposes on NFS operations for the virtual mount, hashes
// directory names onto the Pastry overlay, forwards NFS RPCs to the node
// that stores each directory, maintains K replicas on leaf-set neighbors,
// and transparently fails over when nodes die.
//
// Layout of each node's contributed store (its /kosha_store): the store's
// root corresponds to the virtual root /kosha. A distributed directory is
// identified by its placement name (the directory name, optionally carrying
// a "#salt" redirection suffix, Section 3.3); its subtree is stored on the
// node owning hash(pn), rooted at a store-level directory the creating node
// allocates (Node.newStoreRoot). Files and deeper (non-distributed)
// subdirectories nest below that root under their plain names (Section
// 3.1; Place.PhysDir joins the two). The parent directory lists a
// distributed child via a special link — a symlink named `name` whose
// target carries the child's placement name and storage root — which
// resolution follows before rehashing, exactly as in Section 3.3.
package core

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"path"
	"strings"

	"repro/internal/id"
	"repro/internal/repl"
)

// SaltSep separates a directory name from its redirection salt in placement
// names. Names containing it are reserved by Kosha.
const SaltSep = "#"

// MigrationFlag is the sentinel file created at the root of a replicated
// hierarchy while content migration is in flight (see repl.MigrationFlag).
const MigrationFlag = repl.MigrationFlag

// saltLen is the number of hex digits in a redirection salt.
const saltLen = 8

// Salt derives the deterministic salt for the attempt'th redirection of a
// directory name. The paper concatenates "a random salt"; a deterministic
// per-attempt salt has the same placement properties (uniform rehash) while
// keeping simulations reproducible across the 50-seed sweeps.
func Salt(name string, attempt int) string {
	sum := sha1.Sum([]byte(fmt.Sprintf("%s|salt|%d", name, attempt)))
	return hex.EncodeToString(sum[:])[:saltLen]
}

// Salted returns the placement name for the attempt'th redirection of name;
// attempt 0 is the unsalted name.
func Salted(name string, attempt int) string {
	if attempt == 0 {
		return name
	}
	return name + SaltSep + Salt(name, attempt)
}

// IsSalted reports whether s looks like a salted placement name.
func IsSalted(s string) bool {
	i := strings.LastIndex(s, SaltSep)
	if i < 0 || len(s)-i-1 != saltLen {
		return false
	}
	for _, c := range s[i+1:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// BaseName strips the salt from a placement name.
func BaseName(pn string) string {
	if IsSalted(pn) {
		return pn[:strings.LastIndex(pn, SaltSep)]
	}
	return pn
}

// Key returns the DHT key for a placement name: "a 128-bit unique key is
// created via a SHA-1 hash of the directory name" (Section 3.1).
func Key(pn string) id.ID { return id.HashKey(pn) }

// SplitVirtual normalizes a virtual path (relative to the mount point) and
// returns its components. "/" yields nil.
func SplitVirtual(vpath string) []string {
	if !strings.HasPrefix(vpath, "/") {
		vpath = "/" + vpath
	}
	clean := path.Clean(vpath) // allocates nothing for a path already clean
	if clean == "/" {
		return nil
	}
	return strings.Split(clean[1:], "/")
}

// JoinVirtual reassembles components into a canonical virtual path.
func JoinVirtual(parts []string) string {
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// level returns the directory at depth i on the clean virtual path p, which is
// JoinVirtual(SplitVirtual(p)[:i]): "/" for 0, p itself from its depth on.
// Every level of a clean path is a prefix of it, so no level is allocated.
func level(p string, i int) string {
	if i <= 0 {
		return "/"
	}
	for j := 1; j < len(p); j++ {
		if p[j] == '/' {
			if i--; i == 0 {
				return p[:j]
			}
		}
	}
	return p
}

// parentOf splits a clean path into its parent directory and its last
// component, as path.Split does but with no slash left on the directory:
// ("/", "") for the root.
func parentOf(p string) (dir, name string) {
	i := strings.LastIndexByte(p, '/')
	return p[:max(i, 1)], p[i+1:]
}

// childPath is path.Join(dir, name) for a clean directory and a valid name,
// built in one allocation.
func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// physRef is a physical store path held in the parts a handle row keeps: the
// storage root of its hierarchy, the "/"-led tail of its virtual path below
// the controlling directory ("" at it), and an optional last name. Its bytes
// are those Place.PhysDir builds for root and tail, with name joined on as
// childPath joins it, so a request encodes the path from the parts
// (appendTo, putPhys) and no string of it is built. A path that is already a
// string is its root alone (physOf).
type physRef struct{ root, tail, name string }

// physOf is the physRef of a whole physical path.
func physOf(p string) physRef { return physRef{root: p} }

// child is the path of name in the directory p names (p has no name of its
// own), as path.Join(p, name) would build it. A name that is not one
// component — "." or "..", or one holding a slash, which Remove, Rmdir and
// Rename take unchecked — is joined and cleaned that way; any other is kept
// as the last part.
func (p physRef) child(name string) physRef {
	if name != "" && !oneComponent(name) {
		return physOf(path.Join(p.String(), name))
	}
	p.name = name
	return p
}

// oneComponent reports whether name is one path component as it stands: not
// empty, "." or "..", and holding no slash.
func oneComponent(name string) bool {
	return name != "" && name != "." && name != ".." && strings.IndexByte(name, '/') < 0
}

// dir returns the path's directory part in up to two pieces: the tail alone
// below the "/" store, whose root adds nothing; otherwise root then tail.
func (p physRef) dir() (string, string) {
	if p.root == "/" && p.tail != "" {
		return "", p.tail
	}
	return p.root, p.tail
}

// joinsName reports whether the name is joined on with a slash: it is, but
// to the "/" store itself.
func (p physRef) joinsName() bool {
	a, b := p.dir()
	return p.name != "" && !(a == "/" && b == "")
}

// appendTo appends the joined path to dst.
func (p physRef) appendTo(dst []byte) []byte {
	a, b := p.dir()
	dst = append(append(dst, a...), b...)
	if p.joinsName() {
		dst = append(dst, '/')
	}
	return append(dst, p.name...)
}

// String returns the joined path; it allocates unless the path is one part.
func (p physRef) String() string {
	a, b := p.dir()
	switch {
	case p.name == "" && b == "":
		return a
	case p.name == "" && a == "":
		return b
	}
	return string(p.appendTo(nil))
}

// components counts the components of the joined path.
func (p physRef) components() int {
	n := pathComponents(p.root) + pathComponents(p.tail)
	if p.name != "" {
		n++
	}
	return n
}

// ControllingDepth returns the depth (1-based component index) of the
// directory that controls placement of a path whose directory chain has
// dirDepth components, under distribution level L: subdirectories deeper
// than L stay on the same node as their depth-L ancestor (Section 3.2).
func ControllingDepth(dirDepth, level int) int {
	if level < 1 {
		level = 1
	}
	if dirDepth < level {
		return dirDepth
	}
	return level
}

// ChainSep is the reserved control byte prefixing every allocated storage
// root (see Node.newStoreRoot): it keeps subtree storage out of virtual
// listings and out of reach of user names, so a hierarchy's data can never
// collide with a parent directory's own content when one node hosts both —
// the parent's entry for a distributed child is always the special link.
const ChainSep = "\x01"

// RootPN is the reserved placement name of the root directory's name index:
// Key(RootPN) picks its primary, and ValidName refuses '/' in a name, so no
// user directory can hash from it. RootStore is the index's storage root, a
// ChainSep name like every other allocated root (unsalted: there is one). It
// holds one empty directory per visible level-1 name and nothing else; see
// DESIGN.md §4 "The root directory".
const (
	RootPN    = "/"
	RootStore = "/" + ChainSep + "root"
)

// LinkMarker prefixes every special link's target, distinguishing Kosha's
// placement links from user-created symlinks regardless of how the link is
// later renamed (a renamed link keeps pointing at the original placement
// name, Section 4.1.4).
const LinkMarker = "\x02"

// linkSep separates the placement name from the storage root inside a
// special link's target.
const linkSep = "\x03"

// MakeLinkTarget encodes a special-link target: the placement name (whose
// hash selects the storage node) plus the hierarchy's physical storage
// root on that node. Decoupling the storage root from the name is what
// makes renames cheap AND safe: a rename relocates the root to a fresh
// path (a local rename on the holder), so any resolver cache still mapping
// the old virtual name to the old storage path dangles harmlessly instead
// of aliasing the renamed directory.
func MakeLinkTarget(pn, storeRoot string) string {
	return LinkMarker + pn + linkSep + storeRoot
}

// ParseLinkTarget decodes a symlink target; ok is false for user symlinks.
func ParseLinkTarget(target string) (pn, storeRoot string, ok bool) {
	if !strings.HasPrefix(target, LinkMarker) {
		return "", "", false
	}
	rest := target[len(LinkMarker):]
	i := strings.Index(rest, linkSep)
	if i < 0 {
		return "", "", false
	}
	return rest[:i], rest[i+len(linkSep):], true
}

// RepArea is the reserved store subtree holding replica copies (see
// repl.RepArea).
const RepArea = repl.RepArea

// RepPath translates a primary-relative physical path into the replica
// area.
func RepPath(p string) string { return repl.RepPath(p) }

// ValidName reports whether a name may be created in the virtual file
// system. Besides the usual component rules, names matching the salted
// placement pattern and names containing Kosha's reserved control bytes
// are rejected: they would be ambiguous with redirection artifacts
// (Section 3.3's "#salt" concatenation reserves that shape).
func ValidName(name string) error {
	switch {
	case name == "" || name == "." || name == "..":
		return fmt.Errorf("kosha: invalid name %q", name)
	case len(name) > 255:
		return fmt.Errorf("kosha: name too long (%d bytes)", len(name))
	case strings.ContainsRune(name, '/'):
		return fmt.Errorf("kosha: name %q contains '/'", name)
	case strings.Contains(name, ChainSep) || strings.Contains(name, LinkMarker) || strings.Contains(name, linkSep):
		return fmt.Errorf("kosha: name %q contains a reserved control byte", name)
	case IsSalted(name):
		return fmt.Errorf("kosha: name %q matches the reserved redirection pattern", name)
	case name == MigrationFlag:
		return fmt.Errorf("kosha: name %q is reserved", name)
	case name == RepArea[1:]:
		return fmt.Errorf("kosha: name %q is reserved", name)
	}
	return nil
}

// Hidden reports whether a physical directory entry must be hidden from
// virtual listings: salted placement directories (their special link
// already lists them under the plain name), the migration flag, and the
// replica area.
func Hidden(name string) bool {
	return name == MigrationFlag || name == RepArea[1:] || IsSalted(name) ||
		strings.Contains(name, ChainSep)
}
