// Package localfs implements the per-node local file system that backs each
// Kosha node's contributed partition (/kosha_store, Section 5: "A local disk
// partition is created and used for space contribution. The size of the
// partition provides control over the amount of disk space contributed").
//
// It is an in-memory POSIX-ish tree with inodes, directories, regular files,
// and symbolic links (Kosha's special links are symlinks, Section 3.3),
// plus capacity accounting so that insertions fail with ErrNoSpace exactly
// as a full partition would — the mechanism Kosha's redirection reacts to.
// Every mutating or data-moving operation returns a simulated disk Cost.
package localfs

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// File types, mirroring NFSv3 ftype3 values we support.
type FileType uint32

const (
	TypeRegular FileType = 1 // NF3REG
	TypeDir     FileType = 2 // NF3DIR
	TypeSymlink FileType = 5 // NF3LNK
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("ftype(%d)", uint32(t))
	}
}

// Errors map one-to-one onto NFSv3 status codes in internal/nfs.
var (
	ErrNoEnt    = errors.New("localfs: no such file or directory")
	ErrExist    = errors.New("localfs: file exists")
	ErrNotDir   = errors.New("localfs: not a directory")
	ErrIsDir    = errors.New("localfs: is a directory")
	ErrNotEmpty = errors.New("localfs: directory not empty")
	ErrNoSpace  = errors.New("localfs: no space left on contributed partition")
	ErrStale    = errors.New("localfs: stale file handle")
	ErrInval    = errors.New("localfs: invalid argument")
	ErrTooBig   = errors.New("localfs: file too large")
)

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// MaxFileSize bounds one file (NFSv3 uses 64-bit sizes; we cap for safety).
const MaxFileSize = int64(1) << 40

// Attr is the subset of NFSv3 fattr3 the system uses.
type Attr struct {
	Ino   uint64
	Type  FileType
	Mode  uint32
	Nlink uint32
	UID   uint32
	GID   uint32
	Size  int64
	Atime time.Time
	Mtime time.Time
	Ctime time.Time
}

// SetAttr carries the mutable attributes for Setattr; nil fields are left
// unchanged.
type SetAttr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *int64
	Mtime *time.Time
	Atime *time.Time
}

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name string
	Ino  uint64
	Type FileType
}

type inode struct {
	ino      uint64
	typ      FileType
	mode     uint32
	uid, gid uint32
	atime    time.Time
	mtime    time.Time
	ctime    time.Time

	data     extents           // TypeRegular
	children map[string]*inode // TypeDir
	subdirs  uint32            // TypeDir: the children that are directories
	target   string            // TypeSymlink

	parent *inode
	name   string
}

func (in *inode) size() int64 {
	switch in.typ {
	case TypeRegular:
		return in.data.size()
	case TypeSymlink:
		return int64(len(in.target))
	default:
		return 0
	}
}

// Slack bounds for a piece added by an append: an append to an n-byte file
// reserves n/16 spare bytes, clamped to [minSlack, maxSlack].
const (
	minSlack = 4 << 10
	maxSlack = 1 << 20
)

// extents holds a regular file's bytes as pieces in file order, so growing a
// file allocates only the bytes it adds and never re-copies what is stored.
// Growth first fills the last piece's spare capacity; the rest becomes one
// new piece sized to the bytes added, or to the append slack when that is
// larger. A 32 KiB write-through client therefore allocates what it stores,
// a byte-at-a-time writer gets amortised slack, and a big file settles at
// about one piece per MiB, plus the 60-95 that growing to 16 MiB adds. A
// file that fits one piece lives in a slot inside its inode: no header
// allocation. Zeros the file was extended by — a size set past the end, a
// write past the end — are a hole: a piece that records its length and holds
// no bytes, so a sparse file costs what was written into it, and a write
// into a hole allocates only the bytes it writes. A truncation to zero keeps
// the first piece's storage, up to maxSlack, as the empty file's spare room,
// which the next append fills when it fits: a whole-file rewrite of the same
// size or shorter allocates nothing, and a longer one allocates one piece
// for itself, which the next truncation keeps in turn.
type extents struct {
	list []piece
	one  [1]piece // backs list while the file is one piece; while it is empty, holds the spare room
	n    int64    // total bytes
}

// piece is one stretch of a file: its bytes, or a hole of zeros.
type piece struct {
	b    []byte // the stretch's bytes; nil in a hole
	hole int64  // a hole's length
}

func (p piece) len() int64 {
	if p.b == nil {
		return p.hole
	}
	return int64(len(p.b))
}

func (x *extents) size() int64 { return x.n }

// at locates byte off, which must lie within the file: it returns the index
// of the piece holding it and off's position in that piece.
func (x *extents) at(off int64) (int, int64) {
	i := 0
	for off >= x.list[i].len() {
		off -= x.list[i].len()
		i++
	}
	return i, off
}

// resize truncates the file to size bytes, or extends it with a hole. A
// truncation to zero keeps the first piece's storage as spare room when it
// is a data piece of at most maxSlack bytes of capacity.
func (x *extents) resize(size int64) {
	switch {
	case size == 0 && x.n > 0:
		var spare []byte
		if b := x.list[0].b; cap(b) <= maxSlack {
			spare = b[:0]
		}
		*x = extents{one: [1]piece{{b: spare}}}
	case size < x.n:
		i, o := x.at(size - 1)
		clear(x.list[i+1:]) // release the dropped pieces
		x.list = x.list[:i+1]
		if p := &x.list[i]; p.b != nil {
			p.b = p.b[:o+1]
		} else {
			p.hole = o + 1
		}
		x.n = size
	case size > x.n:
		x.addHole(size - x.n)
	}
}

// addHole appends n zero bytes as a hole, joined to a hole that ends the file.
func (x *extents) addHole(n int64) {
	if k := len(x.list); k > 0 && x.list[k-1].b == nil {
		x.list[k-1].hole += n
	} else {
		x.push(piece{hole: n})
	}
	x.n += n
}

func (x *extents) push(p piece) {
	if x.list == nil {
		x.list = x.one[:0]
	}
	x.list = append(x.list, p)
}

// write stores src at off: it overwrites the stretch of the file it covers,
// holes included, and appends the rest, after a hole when off lies past the
// end.
func (x *extents) write(src []byte, off int64) {
	if off > x.n {
		x.addHole(off - x.n)
	}
	k := int(min(int64(len(src)), x.n-off))
	x.writeAt(src[:k], off)
	x.appendBytes(src[k:])
}

// appendBytes appends src to the file: into the last piece's spare capacity
// first, or the spare room an empty file kept from its truncation when src
// fits it (the room may hold bytes a truncation cut off, and so is
// overwritten), then as one new piece, with the append slack when it
// continues the bytes of the last piece rather than an empty file or a hole.
// An empty file's room that src outgrows is dropped for one piece that holds
// all of src, so the next truncation keeps room for a rewrite of this size.
func (x *extents) appendBytes(src []byte) {
	if len(src) == 0 {
		return
	}
	k := len(x.list)
	if spare := x.one[0].b; k == 0 && cap(spare) >= len(src) {
		x.push(piece{b: spare}) // filled below: the piece never stays empty
		k = 1
	}
	tail := k > 0 && x.list[k-1].b != nil
	if tail {
		t := x.list[k-1].b
		m := min(len(src), cap(t)-len(t))
		x.list[k-1].b = append(t, src[:m]...)
		x.n += int64(m)
		src = src[m:]
	}
	if len(src) == 0 {
		return
	}
	c := len(src)
	if tail {
		c = max(c, int(min(max(x.n/16, minSlack), maxSlack)))
	}
	b := make([]byte, len(src), c)
	copy(b, src)
	x.push(piece{b: b})
	x.n += int64(len(src))
}

// readAt fills dst from offset off, writing a hole's zeros as zeros: dst may
// be a reader's buffer, not fresh memory. The caller keeps off+len(dst)
// within the file. writeAt is its mirror image, for a stretch within the
// file.
func (x *extents) readAt(dst []byte, off int64) {
	if len(dst) == 0 {
		return
	}
	for i, o := x.at(off); len(dst) > 0; i, o = i+1, 0 {
		if p := x.list[i]; p.b != nil {
			dst = dst[copy(dst, p.b[o:]):]
		} else {
			m := int(min(int64(len(dst)), p.hole-o))
			clear(dst[:m])
			dst = dst[m:]
		}
	}
}

func (x *extents) writeAt(src []byte, off int64) {
	if len(src) == 0 {
		return
	}
	for i, o := x.at(off); len(src) > 0; i, o = i+1, 0 {
		p := x.list[i]
		if p.b != nil {
			src = src[copy(p.b[o:], src):]
			continue
		}
		m := int(min(int64(len(src)), p.hole-o))
		i = x.fill(i, o, src[:m])
		src = src[m:]
	}
}

// fill writes src into the hole at index i, o bytes in: the stretch written
// becomes a piece of its own, allocated to its size, between what is left
// of the hole on either side. It returns the new piece's index.
func (x *extents) fill(i int, o int64, src []byte) int {
	rest := x.list[i].hole - o - int64(len(src))
	var ps [3]piece
	n := 0
	if o > 0 {
		ps[n], n = piece{hole: o}, n+1
	}
	at := i + n
	ps[n], n = piece{b: append(make([]byte, 0, len(src)), src...)}, n+1
	if rest > 0 {
		ps[n], n = piece{hole: rest}, n+1
	}
	x.list = slices.Replace(x.list, i, i+1, ps[:n]...)
	return at
}

// nlink is a directory's "." and its entry in its parent plus each
// subdirectory's "..", and 1 for anything else.
func (in *inode) nlink() uint32 {
	if in.typ != TypeDir {
		return 1
	}
	return 2 + in.subdirs
}

// attach enters child in the directory in under name. Every entry is made
// here and removed by detach, which keep subdirs. name is borrowed, as every
// name and path argument of the store is (FileSystem): attach keeps a copy
// of it, which the entry and the child's name share, so a name costs one
// object of its own length however its caller holds it.
func (in *inode) attach(name string, child *inode) {
	name = strings.Clone(name)
	child.name = name
	in.children[name] = child
	if child.typ == TypeDir {
		in.subdirs++
	}
}

// detach removes child's entry from the directory in.
func (in *inode) detach(child *inode) {
	delete(in.children, child.name)
	if child.typ == TypeDir {
		in.subdirs--
	}
}

// FS is one node's contributed partition.
type FS struct {
	mu       sync.RWMutex
	root     *inode
	inodes   map[uint64]*inode
	nextIno  uint64
	capacity int64 // bytes; 0 means unlimited
	// used counts file bytes and link targets against capacity, as the
	// paper counts file bytes against contributed gigabytes: an inode
	// itself is free.
	used  int64
	files int64 // count of regular files
	disk  simnet.DiskModel
	now   func() time.Time

	// notify holds mutation subscribers (OnMutation). Hooks run with f.mu
	// held, so they must not call back into the file system.
	notify []func(path string)
	// path is the scratch pathOf builds a notified path in, lent to the
	// hooks; it is written only under f.mu's write lock.
	path []byte
}

// MutationNotifier is implemented by stores that report successful
// mutations by path. Digest caches (internal/merkle) subscribe so their
// memoized hashes are invalidated exactly when content changes.
type MutationNotifier interface {
	// OnMutation registers fn to be called with the affected store path
	// after every successful mutating operation. fn runs under the store's
	// internal lock: it must be fast and must not call back into the store.
	// The path is lent to fn, as a request is lent to its handler: it is
	// valid only until fn returns, and fn copies it (strings.Clone) to keep
	// any of it. localfs builds it in a scratch it reuses for the next
	// mutation, and poisons that once the hooks have returned
	// (wire.PoisonLent).
	OnMutation(fn func(path string))
}

// Option configures an FS.
type Option func(*FS)

// WithClock overrides the time source (deterministic tests).
func WithClock(now func() time.Time) Option { return func(f *FS) { f.now = now } }

// New creates a file system with the given capacity in bytes (0 = unlimited)
// and disk cost model.
func New(capacity int64, disk simnet.DiskModel, opts ...Option) *FS {
	fs := &FS{
		inodes:   make(map[uint64]*inode),
		capacity: capacity,
		disk:     disk,
		now:      time.Now,
	}
	for _, o := range opts {
		o(fs)
	}
	t := fs.now()
	fs.root = &inode{
		ino:      1,
		typ:      TypeDir,
		mode:     0o755,
		children: make(map[string]*inode),
		atime:    t, mtime: t, ctime: t,
	}
	fs.nextIno = 2
	fs.inodes[1] = fs.root
	return fs
}

// RootIno is the inode number of the root directory.
const RootIno uint64 = 1

// Capacity returns the contributed bytes (0 = unlimited).
func (f *FS) Capacity() int64 { return f.capacity }

// Used returns the bytes currently charged against capacity.
func (f *FS) Used() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.used
}

// Utilization returns used/capacity in [0,1]; 0 when capacity is unlimited.
func (f *FS) Utilization() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.capacity == 0 {
		return 0
	}
	return float64(f.used) / float64(f.capacity)
}

// NumFiles returns the number of regular files.
func (f *FS) NumFiles() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.files
}

func (f *FS) get(ino uint64) (*inode, error) {
	in, ok := f.inodes[ino]
	if !ok {
		return nil, fmt.Errorf("%w: ino %d", ErrStale, ino)
	}
	return in, nil
}

func (f *FS) getDir(ino uint64) (*inode, error) {
	in, err := f.get(ino)
	if err != nil {
		return nil, err
	}
	if in.typ != TypeDir {
		return nil, ErrNotDir
	}
	return in, nil
}

func (f *FS) attrOf(in *inode) Attr {
	return Attr{
		Ino:   in.ino,
		Type:  in.typ,
		Mode:  in.mode,
		Nlink: in.nlink(),
		UID:   in.uid,
		GID:   in.gid,
		Size:  in.size(),
		Atime: in.atime,
		Mtime: in.mtime,
		Ctime: in.ctime,
	}
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("%w: bad name %q", ErrInval, name)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("%w: name too long", ErrInval)
	}
	if strings.ContainsRune(name, '/') {
		return fmt.Errorf("%w: name %q contains '/'", ErrInval, name)
	}
	return nil
}

// OnMutation registers a mutation subscriber; see MutationNotifier.
func (f *FS) OnMutation(fn func(path string)) {
	f.mu.Lock()
	f.notify = append(f.notify, fn)
	f.mu.Unlock()
}

// noteMutation reports a successful mutation at p. Caller holds f.mu for
// writing. p may be a view of f.path (pathOf), which is poisoned once the
// last hook has returned, so a hook that kept it finds wire.Poison.
func (f *FS) noteMutation(p string) {
	for _, fn := range f.notify {
		fn(p)
	}
	wire.PoisonLent(f.path[:cap(f.path)])
}

// noteInode reports a successful mutation of in, building its path only when
// someone subscribes. Caller holds f.mu for writing.
func (f *FS) noteInode(in *inode) {
	if len(f.notify) > 0 {
		f.noteMutation(f.pathOf(in))
	}
}

// pathOf reconstructs an inode's absolute path from its parent/name
// backpointers, for mutation notifications on handle-based ops. It builds
// the path in f.path, which grows only for a path longer than any before, and
// returns a view of it: valid until the next pathOf, and lent to the hooks
// (MutationNotifier). Caller holds f.mu for writing. Returns "" for unlinked
// inodes.
func (f *FS) pathOf(in *inode) string {
	if in == f.root {
		return "/"
	}
	n := 0
	for cur := in; cur != f.root; cur = cur.parent {
		if cur == nil {
			return ""
		}
		n += 1 + len(cur.name)
	}
	if n > cap(f.path) {
		f.path = make([]byte, 0, max(n, 2*cap(f.path)))
	}
	b := f.path[:n]
	for cur := in; cur != f.root; cur = cur.parent {
		n -= len(cur.name)
		copy(b[n:], cur.name)
		n--
		b[n] = '/'
	}
	return unsafe.String(&b[0], len(b))
}

// CleanPath returns path.Clean("/" + p): p as an absolute path with no empty,
// "." or ".." elements and no trailing slash. A path that is already so comes
// back as it is, without allocating.
func CleanPath(p string) string {
	if isClean(p) {
		return p
	}
	return path.Clean("/" + p)
}

func isClean(p string) bool {
	if p == "/" {
		return true
	}
	if len(p) < 2 || p[0] != '/' || p[len(p)-1] == '/' {
		return false
	}
	for rest := p[1:]; ; {
		elem, tail, more := strings.Cut(rest, "/")
		if elem == "" || elem == "." || elem == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

// InTree reports whether the clean absolute path p is dir or lies below it.
func InTree(p, dir string) bool {
	if dir == "/" {
		return true
	}
	return strings.HasPrefix(p, dir) && (len(p) == len(dir) || p[len(dir)] == '/')
}

// charge reserves n additional bytes against capacity (n may be negative).
func (f *FS) charge(n int64) error {
	if f.capacity > 0 && n > 0 && f.used+n > f.capacity {
		return ErrNoSpace
	}
	f.used += n
	return nil
}

// Getattr returns the attributes for ino.
func (f *FS) Getattr(ino uint64) (Attr, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	in, err := f.get(ino)
	if err != nil {
		return Attr{}, f.disk.OpCost(0), err
	}
	return f.attrOf(in), f.disk.OpCost(0), nil
}

// Setattr updates mutable attributes; Size changes truncate or extend.
func (f *FS) Setattr(ino uint64, sa SetAttr) (Attr, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	in, err := f.get(ino)
	if err != nil {
		return Attr{}, cost, err
	}
	if sa.Size != nil {
		if in.typ == TypeDir {
			return Attr{}, cost, ErrIsDir
		}
		if in.typ != TypeRegular {
			return Attr{}, cost, ErrInval
		}
		ns := *sa.Size
		if ns < 0 || ns > MaxFileSize {
			return Attr{}, cost, ErrTooBig
		}
		delta := ns - in.data.size()
		if err := f.charge(delta); err != nil {
			return Attr{}, cost, err
		}
		in.data.resize(ns)
		in.mtime = f.now()
		cost = simnet.Seq(cost, f.disk.OpCost(int(abs64(delta))))
	}
	if sa.Mode != nil {
		in.mode = *sa.Mode
	}
	if sa.UID != nil {
		in.uid = *sa.UID
	}
	if sa.GID != nil {
		in.gid = *sa.GID
	}
	if sa.Mtime != nil {
		in.mtime = *sa.Mtime
	}
	if sa.Atime != nil {
		in.atime = *sa.Atime
	}
	in.ctime = f.now()
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Lookup finds name within directory dirIno.
func (f *FS) Lookup(dirIno uint64, name string) (Attr, simnet.Cost, error) {
	return lookup(f, dirIno, name)
}

// LookupName is Lookup of a name held as bytes, such as one borrowed from a
// request frame: the directory is indexed by the bytes themselves, so a
// lookup allocates nothing, hit or miss, and nothing keeps name.
func (f *FS) LookupName(dirIno uint64, name []byte) (Attr, simnet.Cost, error) {
	return lookup(f, dirIno, name)
}

func lookup[N string | []byte](f *FS, dirIno uint64, name N) (Attr, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	child, ok := dir.children[string(name)]
	if !ok {
		// The sentinel itself: a miss is a probe's usual answer (MkdirAll
		// asks before it creates), and every caller reduces it to a status.
		return Attr{}, cost, ErrNoEnt
	}
	return f.attrOf(child), cost, nil
}

// Create makes a regular file. exclusive controls EEXIST semantics: when
// false and the name exists as a regular file, it is truncated (NFSv3
// UNCHECKED create).
func (f *FS) Create(dirIno uint64, name string, mode uint32, exclusive bool) (Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	if existing, ok := dir.children[name]; ok {
		if exclusive {
			return Attr{}, cost, ErrExist
		}
		if existing.typ != TypeRegular {
			return Attr{}, cost, ErrIsDir
		}
		f.used -= existing.data.size()
		existing.data.resize(0)
		existing.mtime = f.now()
		f.noteInode(existing)
		return f.attrOf(existing), cost, nil
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeRegular, mode: mode,
		atime: t, mtime: t, ctime: t,
		parent: dir,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.attach(name, in)
	dir.mtime = t
	f.files++
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

// Mkdir makes a directory.
func (f *FS) Mkdir(dirIno uint64, name string, mode uint32) (Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	if _, ok := dir.children[name]; ok {
		// The sentinel itself, as a lookup miss is: a replica's lenient
		// re-apply meets it, and every caller reduces it to a status.
		return Attr{}, cost, ErrExist
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeDir, mode: mode,
		children: make(map[string]*inode),
		atime:    t, mtime: t, ctime: t,
		parent: dir,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.attach(name, in)
	dir.mtime = t
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

// Symlink makes a symbolic link with the given target.
func (f *FS) Symlink(dirIno uint64, name, target string) (Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	if _, ok := dir.children[name]; ok {
		return Attr{}, cost, ErrExist
	}
	if err := f.charge(int64(len(target))); err != nil {
		return Attr{}, cost, err
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeSymlink, mode: 0o777,
		target: strings.Clone(target),
		atime:  t, mtime: t, ctime: t,
		parent: dir,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.attach(name, in)
	dir.mtime = t
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

// Readlink returns a symlink's target.
func (f *FS) Readlink(ino uint64) (string, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	cost := f.disk.OpCost(0)
	in, err := f.get(ino)
	if err != nil {
		return "", cost, err
	}
	if in.typ != TypeSymlink {
		return "", cost, ErrInval
	}
	return in.target, cost, nil
}

// Read returns up to count bytes at offset in a fresh slice. eof is true when
// the read reaches the end of the file.
func (f *FS) Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	return f.AppendRead(nil, ino, offset, count)
}

// AppendRead appends up to count bytes at offset to dst; see FileSystem.
func (f *FS) AppendRead(dst []byte, ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	in, err := f.get(ino)
	if err != nil {
		return dst, false, f.disk.OpCost(0), err
	}
	if in.typ == TypeDir {
		return dst, false, f.disk.OpCost(0), ErrIsDir
	}
	if in.typ != TypeRegular {
		return dst, false, f.disk.OpCost(0), ErrInval
	}
	if offset < 0 || count < 0 {
		return dst, false, f.disk.OpCost(0), ErrInval
	}
	size := in.data.size()
	n, cost := Window(f.disk, size-offset, count)
	dst = Grow(dst, n)
	in.data.readAt(dst[len(dst):len(dst)+n], offset)
	return dst[:len(dst)+n], offset+int64(n) >= size, cost, nil
}

// ReadUnit is the unit a read is charged in: the disk moves a read in
// ReadUnit-sized operations, the last one short.
const ReadUnit = 1 << 20

// Window sizes a read of count bytes with left bytes past its offset,
// min(count, left), and charges it one disk operation per started ReadUnit
// (the full units as one exact product), or OpCost(0) when it reads nothing.
func Window(disk simnet.DiskModel, left int64, count int) (int, simnet.Cost) {
	n := min(int64(count), left)
	if n <= 0 {
		return 0, disk.OpCost(0)
	}
	cost := simnet.Cost(n/ReadUnit) * disk.OpCost(ReadUnit)
	if rest := int(n % ReadUnit); rest > 0 {
		cost += disk.OpCost(rest)
	}
	return int(n), cost
}

// Grow returns dst with room for n more bytes, as AppendRead needs them: dst
// itself when it has the room, else a copy of exactly that size, rounded up
// to a word; AppendRead sizes a whole read before it grows. The rounding
// costs nothing the allocator does not charge anyway, and leaves room for
// the padding an XDR frame puts after the bytes.
func Grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), (len(dst)+n+7)&^7)
	copy(out, dst)
	return out
}

// Write stores data at offset, extending the file as needed.
func (f *FS) Write(ino uint64, offset int64, data []byte) (int, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(len(data))
	in, err := f.get(ino)
	if err != nil {
		return 0, f.disk.OpCost(0), err
	}
	if in.typ == TypeDir {
		return 0, f.disk.OpCost(0), ErrIsDir
	}
	if in.typ != TypeRegular {
		return 0, f.disk.OpCost(0), ErrInval
	}
	if offset < 0 {
		return 0, f.disk.OpCost(0), ErrInval
	}
	end := offset + int64(len(data))
	if end > MaxFileSize {
		return 0, f.disk.OpCost(0), ErrTooBig
	}
	if grow := end - in.data.size(); grow > 0 {
		if err := f.charge(grow); err != nil {
			return 0, f.disk.OpCost(0), err
		}
	}
	in.data.write(data, offset)
	in.mtime = f.now()
	f.noteInode(in)
	return len(data), cost, nil
}

// Remove unlinks a regular file or symlink.
func (f *FS) Remove(dirIno uint64, name string) (simnet.Cost, error) {
	return f.RemoveUnless(dirIno, name, nil)
}

// RemoveUnless is Remove with the caller's veto inside the store's lock:
// refuse sees the victim's attributes and, for a symlink, its target, and an
// error from it is the call's, with the name left alone. Nothing can put
// another object at the name between the check and the removal. A call with
// a veto charges what it replaces — the Lookup of the name, the Readlink of a
// symlink, and the Remove once the veto has passed; with none it is Remove.
func (f *FS) RemoveUnless(dirIno uint64, name string, refuse func(victim Attr, target string) error) (simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.disk.OpCost(0)
	cost := op
	dir, err := f.getDir(dirIno)
	if err != nil {
		return cost, err
	}
	in, ok := dir.children[name]
	if !ok {
		return cost, ErrNoEnt
	}
	if refuse != nil {
		if in.typ == TypeSymlink {
			cost = simnet.Seq(cost, op)
		}
		if err := refuse(f.attrOf(in), in.target); err != nil {
			return cost, err
		}
		cost = simnet.Seq(cost, op)
	}
	if in.typ == TypeDir {
		return cost, ErrIsDir
	}
	f.unlink(dir, in)
	return cost, nil
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(dirIno uint64, name string) (simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return cost, err
	}
	in, ok := dir.children[name]
	if !ok {
		return cost, ErrNoEnt
	}
	if in.typ != TypeDir {
		return cost, ErrNotDir
	}
	if len(in.children) > 0 {
		return cost, ErrNotEmpty
	}
	f.unlink(dir, in)
	return cost, nil
}

// unlink detaches in from dir and releases its storage. Caller holds f.mu
// and has verified membership.
func (f *FS) unlink(dir, in *inode) {
	var p string
	if len(f.notify) > 0 {
		p = f.pathOf(in)
	}
	dir.detach(in)
	delete(f.inodes, in.ino)
	f.used -= in.size()
	if in.typ == TypeRegular {
		f.files--
	}
	in.parent = nil
	dir.mtime = f.now()
	if p != "" {
		f.noteMutation(p)
	}
}

// Rename moves srcName in srcDir to dstName in dstDir, overwriting a
// compatible destination per POSIX rules.
func (f *FS) Rename(srcDir uint64, srcName string, dstDir uint64, dstName string) (simnet.Cost, error) {
	if err := checkName(dstName); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	sd, err := f.getDir(srcDir)
	if err != nil {
		return cost, err
	}
	dd, err := f.getDir(dstDir)
	if err != nil {
		return cost, err
	}
	in, ok := sd.children[srcName]
	if !ok {
		return cost, ErrNoEnt
	}
	// Moving a directory into its own subtree would orphan it.
	if in.typ == TypeDir {
		for p := dd; p != nil; p = p.parent {
			if p == in {
				return cost, fmt.Errorf("%w: rename into own subtree", ErrInval)
			}
		}
	}
	if existing, ok := dd.children[dstName]; ok && existing != in {
		switch {
		case existing.typ == TypeDir && in.typ != TypeDir:
			return cost, ErrIsDir
		case existing.typ != TypeDir && in.typ == TypeDir:
			return cost, ErrNotDir
		case existing.typ == TypeDir && len(existing.children) > 0:
			return cost, ErrNotEmpty
		}
		f.unlink(dd, existing)
	}
	// oldPath is a view of f.path: it is notified before noteInode builds the
	// new path in the same scratch.
	var oldPath string
	if len(f.notify) > 0 {
		oldPath = f.pathOf(in)
	}
	sd.detach(in)
	in.parent = dd
	dd.attach(dstName, in)
	t := f.now()
	sd.mtime, dd.mtime, in.ctime = t, t, t
	if oldPath != "" {
		f.noteMutation(oldPath)
	}
	f.noteInode(in)
	return cost, nil
}

// Readdir lists a directory in lexicographic order.
func (f *FS) Readdir(ino uint64) ([]DirEntry, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	dir, err := f.getDir(ino)
	if err != nil {
		return nil, f.disk.OpCost(0), err
	}
	out := make([]DirEntry, 0, len(dir.children))
	for name, c := range dir.children {
		out = append(out, DirEntry{Name: name, Ino: c.ino, Type: c.typ})
	}
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out, f.disk.OpCost(len(out) * 32), nil
}

// FSStat reports capacity accounting, the input to Kosha's redirection
// decision (Section 3.3).
type FSStat struct {
	TotalBytes int64 // 0 when unlimited
	UsedBytes  int64
	Files      int64
}

// Statfs returns capacity accounting.
func (f *FS) Statfs() (FSStat, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return FSStat{TotalBytes: f.capacity, UsedBytes: f.used, Files: f.files}, f.disk.OpCost(0), nil
}

// --- path helpers (used by Kosha's store management, tests, and tools) ---

// components steps through the components of a clean absolute path in place,
// so a path walk allocates nothing for the components themselves. Every
// path-based call starts here: componentsOf cleans p and checks every
// component with checkName before the walk takes its first step.
type components struct {
	clean string // CleanPath of the path walked
	rest  string // the components not yet stepped over, slash-separated
}

func componentsOf(p string) (components, error) {
	clean := CleanPath(p)
	c := components{clean: clean, rest: clean[1:]}
	for w := c; ; {
		name, ok := w.next()
		if !ok {
			return c, nil
		}
		if err := checkName(name); err != nil {
			return components{}, err
		}
	}
}

// next returns the next component; ok is false once none is left.
func (c *components) next() (name string, ok bool) {
	if c.rest == "" {
		return "", false
	}
	name, c.rest, _ = strings.Cut(c.rest, "/")
	return name, true
}

// descend walks c from the root to the inode it names and returns it with the
// directory holding it (nil for the root). A missing component is ErrNoEnt
// naming p, and a non-directory before the last component ErrNotDir. With
// mkdir set a missing component is created as a directory instead, and every
// component must be one. Caller holds f.mu, exclusively with mkdir.
func (f *FS) descend(c components, p string, mkdir bool) (dir, in *inode, err error) {
	in = f.root
	for name, ok := c.next(); ok; name, ok = c.next() {
		if in.typ != TypeDir {
			return nil, nil, ErrNotDir
		}
		next, found := in.children[name]
		switch {
		case !found && !mkdir:
			return nil, nil, fmt.Errorf("%w: %q", ErrNoEnt, p)
		case !found:
			t := f.now()
			next = &inode{
				ino: f.nextIno, typ: TypeDir, mode: 0o755,
				children: make(map[string]*inode),
				atime:    t, mtime: t, ctime: t,
				parent: in,
			}
			f.nextIno++
			f.inodes[next.ino] = next
			in.attach(name, next)
			in.mtime = t
		case mkdir && next.typ != TypeDir:
			return nil, nil, fmt.Errorf("%w: %q", ErrNotDir, name)
		}
		dir, in = in, next
	}
	return dir, in, nil
}

// LookupPath walks an absolute slash-separated path from the root without
// following symlinks in intermediate components (Kosha resolves its special
// links itself, at the overlay layer, not in the local FS).
func (f *FS) LookupPath(p string) (Attr, error) {
	c, err := componentsOf(p)
	if err != nil {
		return Attr{}, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, in, err := f.descend(c, p, false)
	if err != nil {
		return Attr{}, err
	}
	return f.attrOf(in), nil
}

// MkdirAll creates the directory path p (mode 0755) and any missing
// ancestors, returning the attributes of the final directory.
func (f *FS) MkdirAll(p string) (Attr, error) {
	c, err := componentsOf(p)
	if err != nil {
		return Attr{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	before := f.nextIno
	_, in, err := f.descend(c, p, true)
	if err != nil {
		return Attr{}, err
	}
	if f.nextIno != before {
		f.noteInode(in)
	}
	return f.attrOf(in), nil
}

// RemoveAll removes the subtree rooted at path p; missing paths are not an
// error, matching os.RemoveAll.
func (f *FS) RemoveAll(p string) error {
	c, err := componentsOf(p)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dir, in, err := f.descend(c, p, false)
	switch {
	case err != nil:
		return nil
	case dir == nil:
		// Clearing the root: drop all children (used when a revived node
		// purges its store, Section 4.3.2).
		for _, c := range f.root.children {
			f.release(c)
		}
		f.root.children, f.root.subdirs = make(map[string]*inode), 0
		f.noteMutation("/")
		return nil
	}
	f.release(in)
	dir.detach(in)
	dir.mtime = f.now()
	f.noteMutation(c.clean)
	return nil
}

// release recursively frees an inode subtree. Caller holds f.mu.
func (f *FS) release(in *inode) {
	if in.typ == TypeDir {
		for _, c := range in.children {
			f.release(c)
		}
	}
	delete(f.inodes, in.ino)
	f.used -= in.size()
	if in.typ == TypeRegular {
		f.files--
	}
}

// WalkFunc visits one inode during Walk. Path is absolute.
type WalkFunc func(p string, attr Attr, symlinkTarget string) error

// Walk visits the subtree rooted at p in depth-first lexicographic order,
// used by replication and migration to enumerate a hierarchy.
func (f *FS) Walk(p string, fn WalkFunc) error {
	c, err := componentsOf(p)
	if err != nil {
		return err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, in, err := f.descend(c, p, false)
	if err != nil {
		return err
	}
	return f.walk(c.clean, in, fn)
}

func (f *FS) walk(p string, in *inode, fn WalkFunc) error {
	if err := fn(p, f.attrOf(in), in.target); err != nil {
		return err
	}
	if in.typ != TypeDir {
		return nil
	}
	names := make([]string, 0, len(in.children))
	for name := range in.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		child := in.children[name]
		if err := f.walk(path.Join(p, name), child, fn); err != nil {
			return err
		}
	}
	return nil
}

// ReadFile is a convenience that reads a whole file by path.
func (f *FS) ReadFile(p string) ([]byte, error) {
	attr, err := f.LookupPath(p)
	if err != nil {
		return nil, err
	}
	data, _, _, err := f.Read(attr.Ino, 0, int(attr.Size))
	return data, err
}

// WriteFile is a convenience that creates (or truncates) a file by path and
// writes data, creating missing ancestor directories.
func (f *FS) WriteFile(p string, data []byte) error {
	dir, base := path.Split(CleanPath(p))
	if base == "" {
		return ErrInval
	}
	dattr, err := f.MkdirAll(dir)
	if err != nil {
		return err
	}
	fattr, _, err := f.Create(dattr.Ino, base, 0o644, false)
	if err != nil {
		return err
	}
	_, _, err = f.Write(fattr.Ino, 0, data)
	return err
}

// CorruptFile flips one byte of the regular file at p — at offset off
// modulo the file length — WITHOUT firing mutation notifications. It models
// silent media bit-rot: digest caches and replication hooks subscribe to
// mutations, so the flip leaves every memoized digest stale and only a
// fresh re-hash of the bytes (the anti-entropy scrub) can detect it.
func (f *FS) CorruptFile(p string, off int64) error {
	c, err := componentsOf(p)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, cur, err := f.descend(c, p, false)
	if err != nil {
		return err
	}
	if cur.typ != TypeRegular {
		return fmt.Errorf("%w: corrupt %q: not a regular file", ErrInval, p)
	}
	size := cur.data.size()
	if size == 0 {
		return fmt.Errorf("%w: corrupt %q: empty file", ErrInval, p)
	}
	i := off % size
	if i < 0 {
		i += size
	}
	if k, o := cur.data.at(i); cur.data.list[k].b != nil {
		cur.data.list[k].b[o] ^= 0xFF
	} else {
		cur.data.writeAt([]byte{0xFF}, i) // a flipped zero in a hole
	}
	return nil
}

// Corrupter is implemented by stores that support silent bit-rot fault
// injection (see FS.CorruptFile). Chaos scenarios type-assert for it.
type Corrupter interface {
	CorruptFile(p string, off int64) error
}

var _ Corrupter = (*FS)(nil)

// FileSystem is the store interface Kosha builds on: both the in-memory FS
// in this package and the persistent on-disk store in internal/diskfs
// implement it, so a node's contributed partition can live in RAM (tests,
// emulation, benchmarks) or on a real directory (cmd/koshad -datadir).
//
// Every name, path and link target a method takes is borrowed for the call,
// as LookupName's bytes are: a caller may pass a view of a request frame
// (wire.View) and reuse its bytes once the call has returned. A store copies
// what it keeps: localfs one object per entry it makes, the length of the
// new name (attach), and a symlink's target; diskfs the relative path it
// binds to a new inode number. A call that makes no entry, a write, a
// setattr, a removal or a lookup, keeps nothing of its arguments.
type FileSystem interface {
	// Handle-based operations (the NFS server's surface).
	Getattr(ino uint64) (Attr, simnet.Cost, error)
	Setattr(ino uint64, sa SetAttr) (Attr, simnet.Cost, error)
	Lookup(dirIno uint64, name string) (Attr, simnet.Cost, error)
	// LookupName is Lookup of a name borrowed as bytes: it answers as Lookup
	// does and keeps no reference to name once it returns.
	LookupName(dirIno uint64, name []byte) (Attr, simnet.Cost, error)
	Create(dirIno uint64, name string, mode uint32, exclusive bool) (Attr, simnet.Cost, error)
	Mkdir(dirIno uint64, name string, mode uint32) (Attr, simnet.Cost, error)
	Symlink(dirIno uint64, name, target string) (Attr, simnet.Cost, error)
	Readlink(ino uint64) (string, simnet.Cost, error)
	Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error)
	// AppendRead is Read into the caller's buffer: it grows dst once (Grow)
	// by what Window sizes, min(count, the bytes left), and appends the
	// bytes under the store's lock, so a write cannot tear the read. Window
	// charges the cost; dst comes back unchanged with any error. Read is
	// AppendRead(nil, ino, offset, count).
	AppendRead(dst []byte, ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error)
	Write(ino uint64, offset int64, data []byte) (int, simnet.Cost, error)
	Remove(dirIno uint64, name string) (simnet.Cost, error)
	RemoveUnless(dirIno uint64, name string, refuse func(victim Attr, target string) error) (simnet.Cost, error)
	Rmdir(dirIno uint64, name string) (simnet.Cost, error)
	Rename(srcDir uint64, srcName string, dstDir uint64, dstName string) (simnet.Cost, error)
	Readdir(ino uint64) ([]DirEntry, simnet.Cost, error)
	Statfs() (FSStat, simnet.Cost, error)

	// Path-based conveniences (koshad's store management).
	LookupPath(p string) (Attr, error)
	MkdirAll(p string) (Attr, error)
	RemoveAll(p string) error
	Walk(p string, fn WalkFunc) error
	ReadFile(p string) ([]byte, error)
	WriteFile(p string, data []byte) error

	// Capacity accounting (redirection decisions, experiments).
	Capacity() int64
	Used() int64
	Utilization() float64
	NumFiles() int64
}

// FS implements FileSystem.
var _ FileSystem = (*FS)(nil)
