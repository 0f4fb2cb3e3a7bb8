// Package diskfs is the persistent store backend: the same FileSystem
// surface as internal/localfs, backed by a real directory tree. cmd/koshad
// uses it (via -datadir) so a node's contributed partition survives daemon
// restarts, exactly as a /kosha_store partition would (Section 5).
//
// Inode numbers are assigned per path lazily and kept in a bidirectional
// table; a rename rebinds the subtree's paths to their inodes, so handles
// held by NFS clients stay valid across renames as they do on a real
// server. Capacity accounting mirrors localfs: used bytes are scanned at
// open and maintained incrementally, and writes beyond the contributed
// capacity fail with the same ErrNoSpace that drives Kosha's redirection.
package diskfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/localfs"
	"repro/internal/simnet"
)

// FS is a contributed partition rooted at a host directory.
type FS struct {
	mu       sync.Mutex
	rootDir  string
	capacity int64
	used     int64
	files    int64
	disk     simnet.DiskModel

	nextIno uint64
	inoOf   map[string]uint64 // relpath ("/" based) -> ino
	pathOf  map[uint64]string // ino -> relpath

	owners map[string][2]uint32 // uid/gid overrides (chown needs privileges)

	notify []func(path string) // mutation hooks; run with f.mu held
}

var _ localfs.FileSystem = (*FS)(nil)

// Open initializes (creating if needed) a store rooted at dir. Existing
// contents are scanned for capacity accounting.
func Open(dir string, capacity int64, disk simnet.DiskModel) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskfs: %w", err)
	}
	f := &FS{
		rootDir:  dir,
		capacity: capacity,
		disk:     disk,
		nextIno:  2,
		inoOf:    map[string]uint64{"/": localfs.RootIno},
		pathOf:   map[uint64]string{localfs.RootIno: "/"},
		owners:   map[string][2]uint32{},
	}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := f.rel(p)
		if rel == "/" {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		if d.Type()&fs.ModeSymlink != 0 {
			if t, rerr := os.Readlink(p); rerr == nil {
				f.used += int64(len(t))
			}
		} else if d.Type().IsRegular() {
			f.used += info.Size()
			f.files++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("diskfs: scan: %w", err)
	}
	return f, nil
}

// Dir returns the host directory backing the store.
func (f *FS) Dir() string { return f.rootDir }

// rel converts a host path to the store-relative "/x/y" form.
func (f *FS) rel(host string) string {
	r, err := filepath.Rel(f.rootDir, host)
	if err != nil || r == "." {
		return "/"
	}
	return "/" + filepath.ToSlash(r)
}

// host converts a store-relative path to the host path.
func (f *FS) host(rel string) string {
	return filepath.Join(f.rootDir, filepath.FromSlash(strings.TrimPrefix(localfs.CleanPath(rel), "/")))
}

// inoFor returns (assigning if new) the inode number of a relative path.
// rel may be the caller's own path, which the store only borrows
// (localfs.FileSystem), so a new binding keeps a copy of it. Caller holds
// f.mu.
func (f *FS) inoFor(rel string) uint64 {
	if ino, ok := f.inoOf[rel]; ok {
		return ino
	}
	rel = strings.Clone(rel)
	ino := f.nextIno
	f.nextIno++
	f.inoOf[rel] = ino
	f.pathOf[ino] = rel
	return ino
}

// pathFor resolves an inode to its relative path. Caller holds f.mu.
func (f *FS) pathFor(ino uint64) (string, error) {
	p, ok := f.pathOf[ino]
	if !ok {
		return "", fmt.Errorf("%w: ino %d", localfs.ErrStale, ino)
	}
	return p, nil
}

// dropPath forgets a path's inode binding (and, for directories, its
// subtree's). Caller holds f.mu.
func (f *FS) dropPath(rel string) {
	if ino, ok := f.inoOf[rel]; ok {
		delete(f.inoOf, rel)
		delete(f.pathOf, ino)
	}
	prefix := rel + "/"
	for p, ino := range f.inoOf {
		if strings.HasPrefix(p, prefix) {
			delete(f.inoOf, p)
			delete(f.pathOf, ino)
		}
	}
}

// rebindSubtree moves inode bindings from one path prefix to another,
// preserving handles across renames. Caller holds f.mu.
func (f *FS) rebindSubtree(from, to string) {
	moves := map[string]string{}
	if _, ok := f.inoOf[from]; ok {
		moves[from] = to
	}
	prefix := from + "/"
	for p := range f.inoOf {
		if strings.HasPrefix(p, prefix) {
			moves[p] = to + strings.TrimPrefix(p, from)
		}
	}
	for oldP, newP := range moves {
		ino := f.inoOf[oldP]
		delete(f.inoOf, oldP)
		// An overwritten destination loses its binding.
		if prev, ok := f.inoOf[newP]; ok {
			delete(f.pathOf, prev)
		}
		f.inoOf[newP] = ino
		f.pathOf[ino] = newP
	}
}

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return localfs.ErrNoEnt
	case errors.Is(err, syscall.ENOTEMPTY):
		return localfs.ErrNotEmpty
	case errors.Is(err, fs.ErrExist):
		return localfs.ErrExist
	case errors.Is(err, syscall.ENOTDIR):
		return localfs.ErrNotDir
	case errors.Is(err, syscall.EISDIR):
		return localfs.ErrIsDir
	case errors.Is(err, syscall.EINVAL):
		return localfs.ErrInval
	default:
		return err
	}
}

// attrAt builds an Attr for a path from lstat. Caller holds f.mu.
func (f *FS) attrAt(rel string) (localfs.Attr, error) {
	info, err := os.Lstat(f.host(rel))
	if err != nil {
		return localfs.Attr{}, mapErr(err)
	}
	a := localfs.Attr{
		Ino:   f.inoFor(rel),
		Mode:  uint32(info.Mode().Perm()),
		Nlink: 1,
		Size:  info.Size(),
		Atime: info.ModTime(),
		Mtime: info.ModTime(),
		Ctime: info.ModTime(),
	}
	switch {
	case info.IsDir():
		a.Type = localfs.TypeDir
		a.Nlink = 2
		a.Size = 0
	case info.Mode()&fs.ModeSymlink != 0:
		a.Type = localfs.TypeSymlink
		if t, err := os.Readlink(f.host(rel)); err == nil {
			a.Size = int64(len(t))
		}
	default:
		a.Type = localfs.TypeRegular
	}
	if o, ok := f.owners[rel]; ok {
		a.UID, a.GID = o[0], o[1]
	}
	return a, nil
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsRune(name, '/') {
		return fmt.Errorf("%w: bad name %q", localfs.ErrInval, name)
	}
	if len(name) > localfs.MaxNameLen {
		return fmt.Errorf("%w: name too long", localfs.ErrInval)
	}
	return nil
}

// OnMutation registers fn to be called with the store-relative path of every
// mutated entry. fn runs while the store's lock is held: it must be fast and
// must not call back into the store. Implements localfs.MutationNotifier.
func (f *FS) OnMutation(fn func(path string)) {
	f.mu.Lock()
	f.notify = append(f.notify, fn)
	f.mu.Unlock()
}

// noteMutation invokes the registered hooks. Caller holds f.mu.
func (f *FS) noteMutation(rel string) {
	for _, fn := range f.notify {
		fn(rel)
	}
}

// charge reserves n additional bytes against capacity. Caller holds f.mu.
func (f *FS) charge(n int64) error {
	if f.capacity > 0 && n > 0 && f.used+n > f.capacity {
		return localfs.ErrNoSpace
	}
	f.used += n
	return nil
}

// --- handle-based operations ---

// Getattr returns the attributes for ino.
func (f *FS) Getattr(ino uint64) (localfs.Attr, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	rel, err := f.pathFor(ino)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	a, err := f.attrAt(rel)
	if errors.Is(err, localfs.ErrNoEnt) {
		err = localfs.ErrStale
	}
	return a, cost, err
}

// Setattr updates mode/size/times; uid/gid are recorded (chown requires
// privileges a test process lacks).
func (f *FS) Setattr(ino uint64, sa localfs.SetAttr) (localfs.Attr, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	rel, err := f.pathFor(ino)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	host := f.host(rel)
	cur, err := f.attrAt(rel)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	if sa.Size != nil {
		if cur.Type == localfs.TypeDir {
			return localfs.Attr{}, cost, localfs.ErrIsDir
		}
		if cur.Type != localfs.TypeRegular {
			return localfs.Attr{}, cost, localfs.ErrInval
		}
		if *sa.Size < 0 || *sa.Size > localfs.MaxFileSize {
			return localfs.Attr{}, cost, localfs.ErrTooBig
		}
		delta := *sa.Size - cur.Size
		if err := f.charge(delta); err != nil {
			return localfs.Attr{}, cost, err
		}
		if err := os.Truncate(host, *sa.Size); err != nil {
			f.used -= delta
			return localfs.Attr{}, cost, mapErr(err)
		}
		cost = simnet.Seq(cost, f.disk.OpCost(int(abs64(delta))))
	}
	if sa.Mode != nil {
		if err := os.Chmod(host, fs.FileMode(*sa.Mode&0o777)); err != nil {
			return localfs.Attr{}, cost, mapErr(err)
		}
	}
	if sa.Mtime != nil || sa.Atime != nil {
		at, mt := cur.Atime, cur.Mtime
		if sa.Atime != nil {
			at = *sa.Atime
		}
		if sa.Mtime != nil {
			mt = *sa.Mtime
		}
		os.Chtimes(host, at, mt)
	}
	if sa.UID != nil || sa.GID != nil {
		o := f.owners[rel]
		if sa.UID != nil {
			o[0] = *sa.UID
		}
		if sa.GID != nil {
			o[1] = *sa.GID
		}
		f.owners[rel] = o
	}
	f.noteMutation(rel)
	a, err := f.attrAt(rel)
	return a, cost, err
}

// Lookup finds name within directory dirIno.
func (f *FS) Lookup(dirIno uint64, name string) (localfs.Attr, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.pathFor(dirIno)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	if a, aerr := f.attrAt(dir); aerr != nil {
		return localfs.Attr{}, cost, aerr
	} else if a.Type != localfs.TypeDir {
		return localfs.Attr{}, cost, localfs.ErrNotDir
	}
	rel, err := child(dir, name)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	a, err := f.attrAt(rel)
	return a, cost, err
}

// LookupName is Lookup of a name held as bytes; see localfs.FileSystem.
func (f *FS) LookupName(dirIno uint64, name []byte) (localfs.Attr, simnet.Cost, error) {
	return f.Lookup(dirIno, string(name))
}

// child joins the name of an existing entry onto its directory. A name no
// entry can have — empty, ".", "..", holding a '/', or too long — names
// nothing, as in localfs, so a lookup, removal or rename source can never
// step out of dir.
func child(dir, name string) (string, error) {
	if checkName(name) != nil {
		return "", fmt.Errorf("%w: %q", localfs.ErrNoEnt, name)
	}
	return path.Join(dir, name), nil
}

// Create makes a regular file (UNCHECKED truncate semantics when not
// exclusive, matching localfs).
func (f *FS) Create(dirIno uint64, name string, mode uint32, exclusive bool) (localfs.Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return localfs.Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.pathFor(dirIno)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	rel := path.Join(dir, name)
	host := f.host(rel)
	if cur, err := f.attrAt(rel); err == nil {
		if exclusive {
			return localfs.Attr{}, cost, localfs.ErrExist
		}
		if cur.Type != localfs.TypeRegular {
			return localfs.Attr{}, cost, localfs.ErrIsDir
		}
		if err := os.Truncate(host, 0); err != nil {
			return localfs.Attr{}, cost, mapErr(err)
		}
		f.used -= cur.Size
		f.noteMutation(rel)
		a, err := f.attrAt(rel)
		return a, cost, err
	}
	fh, err := os.OpenFile(host, os.O_CREATE|os.O_EXCL|os.O_WRONLY, fs.FileMode(mode&0o777))
	if err != nil {
		return localfs.Attr{}, cost, mapErr(err)
	}
	fh.Close()
	f.files++
	f.noteMutation(rel)
	a, err := f.attrAt(rel)
	return a, cost, err
}

// Mkdir makes a directory.
func (f *FS) Mkdir(dirIno uint64, name string, mode uint32) (localfs.Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return localfs.Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.pathFor(dirIno)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	rel := path.Join(dir, name)
	if _, err := f.attrAt(rel); err == nil {
		return localfs.Attr{}, cost, localfs.ErrExist
	}
	if err := os.Mkdir(f.host(rel), fs.FileMode(mode&0o777)); err != nil {
		return localfs.Attr{}, cost, mapErr(err)
	}
	f.noteMutation(rel)
	a, err := f.attrAt(rel)
	return a, cost, err
}

// Symlink makes a symbolic link.
func (f *FS) Symlink(dirIno uint64, name, target string) (localfs.Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return localfs.Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.pathFor(dirIno)
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	rel := path.Join(dir, name)
	if _, err := f.attrAt(rel); err == nil {
		return localfs.Attr{}, cost, localfs.ErrExist
	}
	if err := f.charge(int64(len(target))); err != nil {
		return localfs.Attr{}, cost, err
	}
	if err := os.Symlink(target, f.host(rel)); err != nil {
		f.used -= int64(len(target))
		return localfs.Attr{}, cost, mapErr(err)
	}
	f.noteMutation(rel)
	a, err := f.attrAt(rel)
	return a, cost, err
}

// Readlink returns a symlink's target.
func (f *FS) Readlink(ino uint64) (string, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	rel, err := f.pathFor(ino)
	if err != nil {
		return "", cost, err
	}
	t, err := os.Readlink(f.host(rel))
	if err != nil {
		return "", cost, localfs.ErrInval
	}
	return t, cost, nil
}

// Read returns up to count bytes at offset in a fresh slice.
func (f *FS) Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	return f.AppendRead(nil, ino, offset, count)
}

// AppendRead appends up to count bytes at offset to dst, read with one open
// of the file straight into its spare capacity; see localfs.FileSystem.
func (f *FS) AppendRead(dst []byte, ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	rel, err := f.pathFor(ino)
	if err != nil {
		return dst, false, cost, err
	}
	a, err := f.attrAt(rel)
	if err != nil {
		return dst, false, cost, err
	}
	if a.Type == localfs.TypeDir {
		return dst, false, cost, localfs.ErrIsDir
	}
	if a.Type != localfs.TypeRegular || offset < 0 || count < 0 {
		return dst, false, cost, localfs.ErrInval
	}
	fh, err := os.Open(f.host(rel))
	if err != nil {
		return dst, false, cost, mapErr(err)
	}
	defer fh.Close()
	n, wcost := localfs.Window(f.disk, a.Size-offset, count)
	buf := localfs.Grow(dst, n)
	if _, err := fh.ReadAt(buf[len(buf):len(buf)+n], offset); err != nil {
		return dst, false, cost, mapErr(err)
	}
	return buf[:len(buf)+n], offset+int64(n) >= a.Size, wcost, nil
}

// Write stores data at offset, extending the file as needed.
func (f *FS) Write(ino uint64, offset int64, data []byte) (int, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(len(data))
	rel, err := f.pathFor(ino)
	if err != nil {
		return 0, f.disk.OpCost(0), err
	}
	a, err := f.attrAt(rel)
	if err != nil {
		return 0, f.disk.OpCost(0), err
	}
	if a.Type == localfs.TypeDir {
		return 0, f.disk.OpCost(0), localfs.ErrIsDir
	}
	if a.Type != localfs.TypeRegular || offset < 0 {
		return 0, f.disk.OpCost(0), localfs.ErrInval
	}
	end := offset + int64(len(data))
	if end > localfs.MaxFileSize {
		return 0, f.disk.OpCost(0), localfs.ErrTooBig
	}
	if grow := end - a.Size; grow > 0 {
		if err := f.charge(grow); err != nil {
			return 0, f.disk.OpCost(0), err
		}
	}
	fh, err := os.OpenFile(f.host(rel), os.O_WRONLY, 0)
	if err != nil {
		return 0, f.disk.OpCost(0), mapErr(err)
	}
	defer fh.Close()
	if _, err := fh.WriteAt(data, offset); err != nil {
		return 0, f.disk.OpCost(0), mapErr(err)
	}
	f.noteMutation(rel)
	return len(data), cost, nil
}

// Remove unlinks a regular file or symlink.
func (f *FS) Remove(dirIno uint64, name string) (simnet.Cost, error) {
	return f.RemoveUnless(dirIno, name, nil)
}

// RemoveUnless is Remove with the caller's veto inside the store's lock, as
// in localfs: refuse sees the victim's attributes and a symlink's target, an
// error from it leaves the name alone, and a call with a veto charges the
// Lookup, a symlink's Readlink and the Remove it replaces.
func (f *FS) RemoveUnless(dirIno uint64, name string, refuse func(victim localfs.Attr, target string) error) (simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.disk.OpCost(0)
	cost := op
	dir, err := f.pathFor(dirIno)
	if err != nil {
		return cost, err
	}
	rel, err := child(dir, name)
	if err != nil {
		return cost, err
	}
	a, err := f.attrAt(rel)
	if err != nil {
		return cost, err
	}
	if refuse != nil {
		var target string
		if a.Type == localfs.TypeSymlink {
			cost = simnet.Seq(cost, op)
			if target, err = os.Readlink(f.host(rel)); err != nil {
				return cost, localfs.ErrInval
			}
		}
		if err := refuse(a, target); err != nil {
			return cost, err
		}
		cost = simnet.Seq(cost, op)
	}
	if a.Type == localfs.TypeDir {
		return cost, localfs.ErrIsDir
	}
	if err := os.Remove(f.host(rel)); err != nil {
		return cost, mapErr(err)
	}
	f.used -= a.Size
	if a.Type == localfs.TypeRegular {
		f.files--
	}
	f.dropPath(rel)
	delete(f.owners, rel)
	f.noteMutation(rel)
	return cost, nil
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(dirIno uint64, name string) (simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.pathFor(dirIno)
	if err != nil {
		return cost, err
	}
	rel, err := child(dir, name)
	if err != nil {
		return cost, err
	}
	a, err := f.attrAt(rel)
	if err != nil {
		return cost, err
	}
	if a.Type != localfs.TypeDir {
		return cost, localfs.ErrNotDir
	}
	if ents, err := os.ReadDir(f.host(rel)); err == nil && len(ents) > 0 {
		return cost, localfs.ErrNotEmpty
	}
	if err := os.Remove(f.host(rel)); err != nil {
		return cost, mapErr(err)
	}
	f.dropPath(rel)
	f.noteMutation(rel)
	return cost, nil
}

// Rename moves srcName in srcDir to dstName in dstDir.
func (f *FS) Rename(srcDir uint64, srcName string, dstDir uint64, dstName string) (simnet.Cost, error) {
	if err := checkName(dstName); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	sd, err := f.pathFor(srcDir)
	if err != nil {
		return cost, err
	}
	dd, err := f.pathFor(dstDir)
	if err != nil {
		return cost, err
	}
	from, err := child(sd, srcName)
	if err != nil {
		return cost, err
	}
	to := path.Join(dd, dstName)
	fa, err := f.attrAt(from)
	if err != nil {
		return cost, err
	}
	if ta, err := f.attrAt(to); err == nil {
		switch {
		case ta.Type == localfs.TypeDir && fa.Type != localfs.TypeDir:
			return cost, localfs.ErrIsDir
		case ta.Type != localfs.TypeDir && fa.Type == localfs.TypeDir:
			return cost, localfs.ErrNotDir
		case ta.Type == localfs.TypeDir && fa.Type == localfs.TypeDir:
			if ents, rerr := os.ReadDir(f.host(to)); rerr == nil && len(ents) > 0 {
				return cost, localfs.ErrNotEmpty
			}
		}
		// Account for the overwritten destination.
		if ta.Type != localfs.TypeDir {
			f.used -= ta.Size
			if ta.Type == localfs.TypeRegular {
				f.files--
			}
		}
	}
	if fa.Type == localfs.TypeDir && (to == from || strings.HasPrefix(to, from+"/")) {
		return cost, localfs.ErrInval
	}
	if err := os.Rename(f.host(from), f.host(to)); err != nil {
		return cost, mapErr(err)
	}
	f.rebindSubtree(from, to)
	if o, ok := f.owners[from]; ok {
		delete(f.owners, from)
		f.owners[to] = o
	}
	f.noteMutation(from)
	f.noteMutation(to)
	return cost, nil
}

// Readdir lists a directory in lexicographic order.
func (f *FS) Readdir(ino uint64) ([]localfs.DirEntry, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rel, err := f.pathFor(ino)
	if err != nil {
		return nil, f.disk.OpCost(0), err
	}
	if a, aerr := f.attrAt(rel); aerr != nil {
		return nil, f.disk.OpCost(0), aerr
	} else if a.Type != localfs.TypeDir {
		return nil, f.disk.OpCost(0), localfs.ErrNotDir
	}
	ents, err := os.ReadDir(f.host(rel))
	if err != nil {
		return nil, f.disk.OpCost(0), mapErr(err)
	}
	out := make([]localfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		child := path.Join(rel, e.Name())
		typ := localfs.TypeRegular
		switch {
		case e.IsDir():
			typ = localfs.TypeDir
		case e.Type()&fs.ModeSymlink != 0:
			typ = localfs.TypeSymlink
		}
		out = append(out, localfs.DirEntry{Name: e.Name(), Ino: f.inoFor(child), Type: typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, f.disk.OpCost(len(out) * 32), nil
}

// Statfs reports capacity accounting.
func (f *FS) Statfs() (localfs.FSStat, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return localfs.FSStat{TotalBytes: f.capacity, UsedBytes: f.used, Files: f.files},
		f.disk.OpCost(0), nil
}

// --- path-based operations ---

// LookupPath resolves an absolute store path without following symlinks.
func (f *FS) LookupPath(p string) (localfs.Attr, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attrAt(localfs.CleanPath(p))
}

// MkdirAll creates a directory path with mode 0755.
func (f *FS) MkdirAll(p string) (localfs.Attr, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rel := localfs.CleanPath(p)
	// Fail with NotDir when a prefix is a non-directory, as localfs does.
	parts := strings.Split(strings.TrimPrefix(rel, "/"), "/")
	cur := "/"
	for _, part := range parts {
		if part == "" {
			continue
		}
		cur = path.Join(cur, part)
		if a, err := f.attrAt(cur); err == nil && a.Type != localfs.TypeDir {
			return localfs.Attr{}, localfs.ErrNotDir
		}
	}
	_, statErr := f.attrAt(rel)
	if err := os.MkdirAll(f.host(rel), 0o755); err != nil {
		return localfs.Attr{}, mapErr(err)
	}
	if statErr != nil {
		// Only an actual creation is a mutation; lenient replica apply calls
		// MkdirAll on every op's parent and must not thrash digest caches.
		f.noteMutation(rel)
	}
	return f.attrAt(rel)
}

// RemoveAll removes a subtree; missing paths are not an error.
func (f *FS) RemoveAll(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	rel := localfs.CleanPath(p)
	// Account for what disappears.
	f.scanSubtree(rel, -1)
	if rel == "/" {
		ents, err := os.ReadDir(f.rootDir)
		if err != nil {
			return mapErr(err)
		}
		for _, e := range ents {
			if err := os.RemoveAll(filepath.Join(f.rootDir, e.Name())); err != nil {
				return mapErr(err)
			}
			f.dropPath("/" + e.Name())
		}
		if len(ents) > 0 {
			f.noteMutation("/")
		}
		return nil
	}
	_, statErr := f.attrAt(rel)
	if err := os.RemoveAll(f.host(rel)); err != nil {
		return mapErr(err)
	}
	f.dropPath(rel)
	if statErr == nil {
		f.noteMutation(rel)
	}
	return nil
}

// scanSubtree adjusts used/files counters by sign for everything under rel.
// Caller holds f.mu.
func (f *FS) scanSubtree(rel string, sign int64) {
	filepath.WalkDir(f.host(rel), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.Type()&fs.ModeSymlink != 0 {
			if t, rerr := os.Readlink(p); rerr == nil {
				f.used += sign * int64(len(t))
			}
		} else if d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				f.used += sign * info.Size()
				f.files += sign
			}
		}
		return nil
	})
}

// Walk visits a subtree depth-first in lexicographic order.
func (f *FS) Walk(p string, fn localfs.WalkFunc) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	rel := localfs.CleanPath(p)
	if _, err := f.attrAt(rel); err != nil {
		return err
	}
	return filepath.WalkDir(f.host(rel), func(hp string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		r := f.rel(hp)
		a, aerr := f.attrAt(r)
		if aerr != nil {
			return aerr
		}
		target := ""
		if a.Type == localfs.TypeSymlink {
			target, _ = os.Readlink(hp)
		}
		return fn(r, a, target)
	})
}

// ReadFile reads a whole file by path.
func (f *FS) ReadFile(p string) ([]byte, error) {
	f.mu.Lock()
	rel := localfs.CleanPath(p)
	a, err := f.attrAt(rel)
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if a.Type != localfs.TypeRegular {
		return nil, localfs.ErrInval
	}
	data, err := os.ReadFile(f.host(rel))
	return data, mapErr(err)
}

// WriteFile creates (or truncates) a file by path, creating ancestors.
func (f *FS) WriteFile(p string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	rel := localfs.CleanPath(p)
	if rel == "/" {
		return localfs.ErrInval
	}
	var prev int64
	existed := false
	if a, err := f.attrAt(rel); err == nil {
		if a.Type != localfs.TypeRegular {
			return localfs.ErrIsDir
		}
		prev = a.Size
		existed = true
	}
	if err := f.charge(int64(len(data)) - prev); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(f.host(rel)), 0o755); err != nil {
		f.used -= int64(len(data)) - prev
		return mapErr(err)
	}
	if err := os.WriteFile(f.host(rel), data, 0o644); err != nil {
		f.used -= int64(len(data)) - prev
		return mapErr(err)
	}
	if !existed {
		f.files++
	}
	f.noteMutation(rel)
	return nil
}

// --- capacity accounting ---

// Capacity returns the contributed bytes (0 = unlimited).
func (f *FS) Capacity() int64 { return f.capacity }

// Used returns the bytes charged against capacity.
func (f *FS) Used() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.used
}

// Utilization returns used/capacity (0 when unlimited).
func (f *FS) Utilization() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.capacity == 0 {
		return 0
	}
	return float64(f.used) / float64(f.capacity)
}

// NumFiles returns the number of regular files.
func (f *FS) NumFiles() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.files
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
