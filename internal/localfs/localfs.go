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
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/simnet"
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

// extentSize is the fixed capacity of one file extent: the write-back flush
// span, so a streaming writer adds one allocation per flush.
const extentSize = 1 << 20

// extents holds a regular file's bytes in fixed-capacity pieces, so growing
// a file allocates only its new tail and never re-copies what is already
// stored. Every extent but the last is exactly extentSize long; the last is
// sized to the data, not to the extent, so a small file costs what a flat
// slice would.
type extents struct {
	list [][]byte
	one  [1][]byte // backs list while the file fits one extent: no header allocation
}

func (x *extents) size() int64 {
	n := len(x.list)
	if n == 0 {
		return 0
	}
	return int64(n-1)*extentSize + int64(len(x.list[n-1]))
}

// resize truncates or zero-extends the file to size bytes.
func (x *extents) resize(size int64) {
	if size == 0 {
		*x = extents{}
		return
	}
	if size < x.size() {
		keep := int((size + extentSize - 1) / extentSize)
		clear(x.list[keep:]) // release the dropped extents
		x.list = x.list[:keep]
		x.list[keep-1] = x.list[keep-1][:size-int64(keep-1)*extentSize]
		return
	}
	if x.list == nil {
		x.list = x.one[:0]
	}
	if n := len(x.list); n > 0 {
		x.list[n-1] = growTail(x.list[n-1], int(min(size-int64(n-1)*extentSize, extentSize)))
	}
	for x.size() < size {
		x.list = append(x.list, make([]byte, min(size-x.size(), extentSize)))
	}
}

// growTail zero-extends the last extent to n <= extentSize bytes with
// append's amortised growth, clipped to the extent.
func growTail(t []byte, n int) []byte {
	if n > cap(t) && len(t) > 0 && n+n/4 > extentSize {
		nt := make([]byte, n, extentSize)
		copy(nt, t)
		return nt
	}
	return append(t, make([]byte, n-len(t))...)
}

// readAt fills dst from offset off; the caller keeps off+len(dst) within the
// file. writeAt is its mirror image.
func (x *extents) readAt(dst []byte, off int64) {
	for i, o := int(off/extentSize), int(off%extentSize); len(dst) > 0; i, o = i+1, 0 {
		dst = dst[copy(dst, x.list[i][o:]):]
	}
}

func (x *extents) writeAt(src []byte, off int64) {
	for i, o := int(off/extentSize), int(off%extentSize); len(src) > 0; i, o = i+1, 0 {
		src = src[copy(x.list[i][o:], src):]
	}
}

func (in *inode) nlink() uint32 {
	if in.typ != TypeDir {
		return 1
	}
	n := uint32(2)
	for _, c := range in.children {
		if c.typ == TypeDir {
			n++
		}
	}
	return n
}

// FS is one node's contributed partition.
type FS struct {
	mu       sync.RWMutex
	root     *inode
	inodes   map[uint64]*inode
	nextIno  uint64
	capacity int64 // bytes; 0 means unlimited
	used     int64
	files    int64 // count of regular files
	disk     simnet.DiskModel
	now      func() time.Time
	// InodeOverhead is charged against capacity per inode, modeling
	// metadata blocks. Zero by default to match the paper's accounting,
	// which counts file bytes against contributed gigabytes.
	inodeOverhead int64

	// notify holds mutation subscribers (OnMutation). Hooks run with f.mu
	// held, so they must not call back into the file system.
	notify []func(path string)
}

// MutationNotifier is implemented by stores that report successful
// mutations by path. Digest caches (internal/merkle) subscribe so their
// memoized hashes are invalidated exactly when content changes.
type MutationNotifier interface {
	// OnMutation registers fn to be called with the affected store path
	// after every successful mutating operation. fn runs under the store's
	// internal lock: it must be fast and must not call back into the store.
	OnMutation(fn func(path string))
}

// Option configures an FS.
type Option func(*FS)

// WithClock overrides the time source (deterministic tests).
func WithClock(now func() time.Time) Option { return func(f *FS) { f.now = now } }

// WithInodeOverhead charges n bytes of capacity per inode.
func WithInodeOverhead(n int64) Option { return func(f *FS) { f.inodeOverhead = n } }

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
	fs.used = fs.inodeOverhead
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

// noteMutation reports a successful mutation at p. Caller holds f.mu.
func (f *FS) noteMutation(p string) {
	for _, fn := range f.notify {
		fn(p)
	}
}

// pathOf reconstructs an inode's absolute path from its parent/name
// backpointers, for mutation notifications on handle-based ops. Caller
// holds f.mu. Returns "" for unlinked inodes.
func (f *FS) pathOf(in *inode) string {
	if in == f.root {
		return "/"
	}
	var parts []string
	for cur := in; cur != f.root; cur = cur.parent {
		if cur == nil {
			return ""
		}
		parts = append(parts, cur.name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
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
	f.noteMutation(f.pathOf(in))
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
	f.mu.RLock()
	defer f.mu.RUnlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	child, ok := dir.children[name]
	if !ok {
		return Attr{}, cost, fmt.Errorf("%w: %q in ino %d", ErrNoEnt, name, dirIno)
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
			return Attr{}, cost, fmt.Errorf("%w: %q", ErrExist, name)
		}
		if existing.typ != TypeRegular {
			return Attr{}, cost, ErrIsDir
		}
		f.used -= existing.data.size()
		existing.data.resize(0)
		existing.mtime = f.now()
		f.noteMutation(f.pathOf(existing))
		return f.attrOf(existing), cost, nil
	}
	if err := f.charge(f.inodeOverhead); err != nil {
		return Attr{}, cost, err
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeRegular, mode: mode,
		atime: t, mtime: t, ctime: t,
		parent: dir, name: name,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.children[name] = in
	dir.mtime = t
	f.files++
	f.noteMutation(f.pathOf(in))
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
		return Attr{}, cost, fmt.Errorf("%w: %q", ErrExist, name)
	}
	if err := f.charge(f.inodeOverhead); err != nil {
		return Attr{}, cost, err
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeDir, mode: mode,
		children: make(map[string]*inode),
		atime:    t, mtime: t, ctime: t,
		parent: dir, name: name,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.children[name] = in
	dir.mtime = t
	f.noteMutation(f.pathOf(in))
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
		return Attr{}, cost, fmt.Errorf("%w: %q", ErrExist, name)
	}
	if err := f.charge(f.inodeOverhead + int64(len(target))); err != nil {
		return Attr{}, cost, err
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeSymlink, mode: 0o777,
		target: target,
		atime:  t, mtime: t, ctime: t,
		parent: dir, name: name,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.children[name] = in
	dir.mtime = t
	f.noteMutation(f.pathOf(in))
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

// Read returns up to count bytes at offset. eof is true when the read
// reaches the end of the file.
func (f *FS) Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	in, err := f.get(ino)
	if err != nil {
		return nil, false, f.disk.OpCost(0), err
	}
	if in.typ == TypeDir {
		return nil, false, f.disk.OpCost(0), ErrIsDir
	}
	if in.typ != TypeRegular {
		return nil, false, f.disk.OpCost(0), ErrInval
	}
	if offset < 0 || count < 0 {
		return nil, false, f.disk.OpCost(0), ErrInval
	}
	size := in.data.size()
	if offset >= size {
		return nil, true, f.disk.OpCost(0), nil
	}
	end := offset + int64(count)
	if end > size {
		end = size
	}
	out := make([]byte, end-offset)
	in.data.readAt(out, offset)
	return out, end == size, f.disk.OpCost(len(out)), nil
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
		in.data.resize(end)
	}
	in.data.writeAt(data, offset)
	in.mtime = f.now()
	f.noteMutation(f.pathOf(in))
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
		return cost, fmt.Errorf("%w: %q", ErrNoEnt, name)
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
		return cost, fmt.Errorf("%w: %q", ErrNoEnt, name)
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
	p := f.pathOf(in)
	delete(dir.children, in.name)
	delete(f.inodes, in.ino)
	f.used -= in.size() + f.inodeOverhead
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
		return cost, fmt.Errorf("%w: %q", ErrNoEnt, srcName)
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
	oldPath := f.pathOf(in)
	delete(sd.children, in.name)
	in.name = dstName
	in.parent = dd
	dd.children[dstName] = in
	t := f.now()
	sd.mtime, dd.mtime, in.ctime = t, t, t
	if oldPath != "" {
		f.noteMutation(oldPath)
	}
	f.noteMutation(f.pathOf(in))
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
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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

// splitPath normalizes p and returns its components; "/" yields nil.
func splitPath(p string) ([]string, error) {
	clean := path.Clean("/" + p)
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

// LookupPath walks an absolute slash-separated path from the root without
// following symlinks in intermediate components (Kosha resolves its special
// links itself, at the overlay layer, not in the local FS).
func (f *FS) LookupPath(p string) (Attr, error) {
	parts, err := splitPath(p)
	if err != nil {
		return Attr{}, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	cur := f.root
	for _, part := range parts {
		if cur.typ != TypeDir {
			return Attr{}, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return Attr{}, fmt.Errorf("%w: %q", ErrNoEnt, p)
		}
		cur = next
	}
	return f.attrOf(cur), nil
}

// MkdirAll creates the directory path p (mode 0755) and any missing
// ancestors, returning the attributes of the final directory.
func (f *FS) MkdirAll(p string) (Attr, error) {
	parts, err := splitPath(p)
	if err != nil {
		return Attr{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.root
	created := false
	for _, part := range parts {
		if cur.typ != TypeDir {
			return Attr{}, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			if err := f.charge(f.inodeOverhead); err != nil {
				return Attr{}, err
			}
			t := f.now()
			next = &inode{
				ino: f.nextIno, typ: TypeDir, mode: 0o755,
				children: make(map[string]*inode),
				atime:    t, mtime: t, ctime: t,
				parent: cur, name: part,
			}
			f.nextIno++
			f.inodes[next.ino] = next
			cur.children[part] = next
			cur.mtime = t
			created = true
		} else if next.typ != TypeDir {
			return Attr{}, fmt.Errorf("%w: %q", ErrNotDir, part)
		}
		cur = next
	}
	if created {
		f.noteMutation(f.pathOf(cur))
	}
	return f.attrOf(cur), nil
}

// RemoveAll removes the subtree rooted at path p; missing paths are not an
// error, matching os.RemoveAll.
func (f *FS) RemoveAll(p string) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		// Clearing the root: drop all children (used when a revived node
		// purges its store, Section 4.3.2).
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, c := range f.root.children {
			f.release(c)
		}
		f.root.children = make(map[string]*inode)
		f.noteMutation("/")
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok || next.typ != TypeDir {
			return nil
		}
		cur = next
	}
	name := parts[len(parts)-1]
	in, ok := cur.children[name]
	if !ok {
		return nil
	}
	f.release(in)
	delete(cur.children, name)
	cur.mtime = f.now()
	f.noteMutation(path.Clean("/" + p))
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
	f.used -= in.size() + f.inodeOverhead
	if in.typ == TypeRegular {
		f.files--
	}
}

// WalkFunc visits one inode during Walk. Path is absolute.
type WalkFunc func(p string, attr Attr, symlinkTarget string) error

// Walk visits the subtree rooted at p in depth-first lexicographic order,
// used by replication and migration to enumerate a hierarchy.
func (f *FS) Walk(p string, fn WalkFunc) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	cur := f.root
	for _, part := range parts {
		if cur.typ != TypeDir {
			return ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoEnt, p)
		}
		cur = next
	}
	return f.walk(path.Clean("/"+p), cur, fn)
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
	dir, base := path.Split(path.Clean("/" + p))
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
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.root
	for _, part := range parts {
		if cur.typ != TypeDir {
			return ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoEnt, p)
		}
		cur = next
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
	cur.data.list[i/extentSize][i%extentSize] ^= 0xFF
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
type FileSystem interface {
	// Handle-based operations (the NFS server's surface).
	Getattr(ino uint64) (Attr, simnet.Cost, error)
	Setattr(ino uint64, sa SetAttr) (Attr, simnet.Cost, error)
	Lookup(dirIno uint64, name string) (Attr, simnet.Cost, error)
	Create(dirIno uint64, name string, mode uint32, exclusive bool) (Attr, simnet.Cost, error)
	Mkdir(dirIno uint64, name string, mode uint32) (Attr, simnet.Cost, error)
	Symlink(dirIno uint64, name, target string) (Attr, simnet.Cost, error)
	Readlink(ino uint64) (string, simnet.Cost, error)
	Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error)
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
