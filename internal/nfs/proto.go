// Package nfs implements the NFSv3-like remote file protocol that Kosha
// interposes on (Sections 2, 4.1). It provides opaque file handles, the
// procedure vocabulary Kosha forwards (LOOKUP, READ, WRITE, CREATE, MKDIR,
// SYMLINK, READLINK, REMOVE, RMDIR, RENAME, GETATTR, SETATTR, READDIR,
// FSSTAT), an XDR wire encoding, a Server backed by localfs, and a Client.
//
// Faithfulness notes: handles are opaque to clients ("they only have meaning
// to the NFS server", Section 4.1.2) — this opacity is exactly what lets
// koshad substitute virtual handles. Like NFSv3, LOOKUP takes a parent
// handle plus one name (Section 4.1.3); LOOKUPPATH, a Kosha extension, walks
// a whole component list on the server in one round trip. Write stability
// levels and COMMIT are collapsed into synchronous writes, which does not
// affect any measured quantity because the disk cost model charges writes
// identically.
package nfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/localfs"
	"repro/internal/wire"
)

// Service is the simnet service name NFS servers register under.
const Service = "nfs"

// Proc identifies an NFS procedure.
type Proc uint32

// Procedure numbers follow the NFSv3 program (RFC 1813) where one exists.
const (
	ProcNull     Proc = 0
	ProcGetattr  Proc = 1
	ProcSetattr  Proc = 2
	ProcLookup   Proc = 3
	ProcReadlink Proc = 5
	ProcRead     Proc = 6
	ProcWrite    Proc = 7
	ProcCreate   Proc = 8
	ProcMkdir    Proc = 9
	ProcSymlink  Proc = 10
	ProcRemove   Proc = 12
	ProcRmdir    Proc = 13
	ProcRename   Proc = 14
	ProcAccess   Proc = 4
	ProcReaddir  Proc = 16
	// ProcReaddirPlus returns directory entries together with each entry's
	// handle and attributes (RFC 1813 §3.3.17), letting a client list a
	// directory and stat every entry in one round trip instead of N+1.
	ProcReaddirPlus Proc = 17
	ProcFSStat      Proc = 18
	ProcFSInfo      Proc = 19
	// ProcReadStream is Kosha's streaming extension: one round trip moves a
	// whole readahead window (several chunk-sized READs pipelined
	// server-side). Extensions take numbers above the RFC 1813 program so a
	// plain NFSv3 peer could still answer the standard procedures. 41 was
	// WRITEBATCH (a flush is an FSWriteV apply now) and stays vacant.
	ProcReadStream Proc = 40
	// ProcLookupPath resolves a whole component list below a start handle in
	// one round trip: everything below Kosha's distribution level lives on one
	// node, so the per-component LOOKUPs an NFSv3 client must issue would all
	// go to the same server, and so would the READ after them, which the walk
	// carries when asked. Idempotent; see Client.Walk for the messages.
	ProcLookupPath Proc = 42
	// ProcMountRoot stands in for the separate MOUNT protocol's MNT call,
	// which hands an NFS client the root file handle of an export.
	ProcMountRoot Proc = 100
)

// procNames is the table of defined procedures: a number without a row
// prints as PROC(n).
var procNames = [...]string{
	ProcNull:        "NULL",
	ProcGetattr:     "GETATTR",
	ProcSetattr:     "SETATTR",
	ProcLookup:      "LOOKUP",
	ProcAccess:      "ACCESS",
	ProcReadlink:    "READLINK",
	ProcRead:        "READ",
	ProcWrite:       "WRITE",
	ProcCreate:      "CREATE",
	ProcMkdir:       "MKDIR",
	ProcSymlink:     "SYMLINK",
	ProcRemove:      "REMOVE",
	ProcRmdir:       "RMDIR",
	ProcRename:      "RENAME",
	ProcReaddir:     "READDIR",
	ProcReaddirPlus: "READDIRPLUS",
	ProcFSStat:      "FSSTAT",
	ProcFSInfo:      "FSINFO",
	ProcReadStream:  "READSTREAM",
	ProcLookupPath:  "LOOKUPPATH",
	ProcMountRoot:   "MNT",
}

func (p Proc) String() string {
	if int(p) < len(procNames) && procNames[p] != "" {
		return procNames[p]
	}
	return fmt.Sprintf("PROC(%d)", uint32(p))
}

// Status is an NFSv3 status code (nfsstat3).
type Status uint32

const (
	OK          Status = 0
	ErrPerm     Status = 1
	ErrNoEnt    Status = 2
	ErrIO       Status = 5
	ErrAcces    Status = 13
	ErrExist    Status = 17
	ErrNotDir   Status = 20
	ErrIsDir    Status = 21
	ErrInval    Status = 22
	ErrFBig     Status = 27
	ErrNoSpc    Status = 28
	ErrNotEmpty Status = 66
	ErrStale    Status = 70
)

func (s Status) String() string {
	switch s {
	case OK:
		return "NFS3_OK"
	case ErrPerm:
		return "NFS3ERR_PERM"
	case ErrNoEnt:
		return "NFS3ERR_NOENT"
	case ErrIO:
		return "NFS3ERR_IO"
	case ErrAcces:
		return "NFS3ERR_ACCES"
	case ErrExist:
		return "NFS3ERR_EXIST"
	case ErrNotDir:
		return "NFS3ERR_NOTDIR"
	case ErrIsDir:
		return "NFS3ERR_ISDIR"
	case ErrInval:
		return "NFS3ERR_INVAL"
	case ErrFBig:
		return "NFS3ERR_FBIG"
	case ErrNoSpc:
		return "NFS3ERR_NOSPC"
	case ErrNotEmpty:
		return "NFS3ERR_NOTEMPTY"
	case ErrStale:
		return "NFS3ERR_STALE"
	default:
		return fmt.Sprintf("NFS3ERR(%d)", uint32(s))
	}
}

// Error is a protocol-level failure carrying the NFS status.
type Error struct {
	Proc   Proc
	Status Status
}

func (e *Error) Error() string {
	return fmt.Sprintf("nfs: %s failed: %s", e.Proc, e.Status)
}

// IsStatus reports whether err is an NFS error with the given status. The
// nil and unwrapped cases are answered without errors.As — resolver success
// paths probe statuses on every level, and the As target escapes (one heap
// allocation per call) even when err is nil.
func IsStatus(err error, s Status) bool {
	if err == nil {
		return false
	}
	if ne, ok := err.(*Error); ok {
		return ne.Status == s
	}
	return isStatusSlow(err, s)
}

func isStatusSlow(err error, s Status) bool {
	var ne *Error
	return errors.As(err, &ne) && ne.Status == s
}

// StatusOf extracts the NFS status from err, or OK/false if err is not an
// NFS protocol error (e.g. a transport failure).
func StatusOf(err error) (Status, bool) {
	if err == nil {
		return OK, false
	}
	if ne, ok := err.(*Error); ok {
		return ne.Status, true
	}
	var ne *Error
	if errors.As(err, &ne) {
		return ne.Status, true
	}
	return OK, false
}

// toStatus maps localfs errors onto the wire status codes.
func toStatus(err error) Status {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, localfs.ErrNoEnt):
		return ErrNoEnt
	case errors.Is(err, localfs.ErrExist):
		return ErrExist
	case errors.Is(err, localfs.ErrNotDir):
		return ErrNotDir
	case errors.Is(err, localfs.ErrIsDir):
		return ErrIsDir
	case errors.Is(err, localfs.ErrNotEmpty):
		return ErrNotEmpty
	case errors.Is(err, localfs.ErrNoSpace):
		return ErrNoSpc
	case errors.Is(err, localfs.ErrStale):
		return ErrStale
	case errors.Is(err, localfs.ErrTooBig):
		return ErrFBig
	case errors.Is(err, localfs.ErrInval):
		return ErrInval
	default:
		return ErrIO
	}
}

// Handle is an opaque NFS file handle. Gen identifies the server
// incarnation (a restarted/purged server invalidates old handles, yielding
// NFS3ERR_STALE exactly as a re-initialized exported FS would); Ino is the
// inode number within that incarnation.
type Handle struct {
	Gen uint64
	Ino uint64
}

// IsZero reports whether h is the zero handle.
func (h Handle) IsZero() bool { return h == Handle{} }

func (h Handle) String() string { return fmt.Sprintf("fh(%x:%d)", h.Gen, h.Ino) }

func putHandle(e *wire.Encoder, h Handle) {
	var raw [16]byte
	binary.BigEndian.PutUint64(raw[:8], h.Gen)
	binary.BigEndian.PutUint64(raw[8:], h.Ino)
	e.PutFixedOpaque(raw[:])
}

func getHandle(d *wire.Decoder) Handle {
	var raw [16]byte
	d.FixedOpaque(raw[:])
	return Handle{
		Gen: binary.BigEndian.Uint64(raw[:8]),
		Ino: binary.BigEndian.Uint64(raw[8:]),
	}
}

func putAttr(e *wire.Encoder, a localfs.Attr) {
	e.PutUint64(a.Ino)
	e.PutUint32(uint32(a.Type))
	e.PutUint32(a.Mode)
	e.PutUint32(a.Nlink)
	e.PutUint32(a.UID)
	e.PutUint32(a.GID)
	e.PutInt64(a.Size)
	e.PutInt64(a.Atime.UnixNano())
	e.PutInt64(a.Mtime.UnixNano())
	e.PutInt64(a.Ctime.UnixNano())
}

func getAttr(d *wire.Decoder) localfs.Attr {
	var a localfs.Attr
	a.Ino = d.Uint64()
	a.Type = localfs.FileType(d.Uint32())
	a.Mode = d.Uint32()
	a.Nlink = d.Uint32()
	a.UID = d.Uint32()
	a.GID = d.Uint32()
	a.Size = d.Int64()
	a.Atime = time.Unix(0, d.Int64())
	a.Mtime = time.Unix(0, d.Int64())
	a.Ctime = time.Unix(0, d.Int64())
	return a
}

// SetAttr field-presence bits.
const (
	saMode = 1 << iota
	saUID
	saGID
	saSize
	saMtime
	saAtime
)

// PutSetAttr encodes the fields a SETATTR sets behind a presence mask;
// exposed for the kosha replication protocol, which carries the same record
// inside its mutation frames.
func PutSetAttr(e *wire.Encoder, sa localfs.SetAttr) {
	var mask uint32
	if sa.Mode != nil {
		mask |= saMode
	}
	if sa.UID != nil {
		mask |= saUID
	}
	if sa.GID != nil {
		mask |= saGID
	}
	if sa.Size != nil {
		mask |= saSize
	}
	if sa.Mtime != nil {
		mask |= saMtime
	}
	if sa.Atime != nil {
		mask |= saAtime
	}
	e.PutUint32(mask)
	if sa.Mode != nil {
		e.PutUint32(*sa.Mode)
	}
	if sa.UID != nil {
		e.PutUint32(*sa.UID)
	}
	if sa.GID != nil {
		e.PutUint32(*sa.GID)
	}
	if sa.Size != nil {
		e.PutInt64(*sa.Size)
	}
	if sa.Mtime != nil {
		e.PutInt64(sa.Mtime.UnixNano())
	}
	if sa.Atime != nil {
		e.PutInt64(sa.Atime.UnixNano())
	}
}

// GetSetAttr decodes a record written by PutSetAttr.
func GetSetAttr(d *wire.Decoder) localfs.SetAttr {
	var sa localfs.SetAttr
	mask := d.Uint32()
	if mask&saMode != 0 {
		v := d.Uint32()
		sa.Mode = &v
	}
	if mask&saUID != 0 {
		v := d.Uint32()
		sa.UID = &v
	}
	if mask&saGID != 0 {
		v := d.Uint32()
		sa.GID = &v
	}
	if mask&saSize != 0 {
		v := d.Int64()
		sa.Size = &v
	}
	if mask&saMtime != 0 {
		v := time.Unix(0, d.Int64())
		sa.Mtime = &v
	}
	if mask&saAtime != 0 {
		v := time.Unix(0, d.Int64())
		sa.Atime = &v
	}
	return sa
}

// ACCESS request bits (RFC 1813 §3.3.4).
const (
	AccessRead    = 0x01
	AccessLookup  = 0x02
	AccessModify  = 0x04
	AccessExtend  = 0x08
	AccessDelete  = 0x10
	AccessExecute = 0x20
)

// FSInfo carries the server's static transfer limits (RFC 1813 §3.3.19).
type FSInfo struct {
	RTMax   uint32 // maximum READ size
	WTMax   uint32 // maximum WRITE size
	RTPref  uint32
	WTPref  uint32
	MaxFile int64
}

// DirEntry is one readdir result row.
type DirEntry struct {
	Name string
	Ino  uint64
	Type localfs.FileType
}

// DirEntryPlus is one READDIRPLUS result row: the entry plus its handle and
// full attributes. SymTarget carries a symlink's target so an interposing
// client (koshad classifying Kosha's special placement links) needs no
// follow-up READLINK per entry.
type DirEntryPlus struct {
	DirEntry
	FH        Handle
	Attr      localfs.Attr
	SymTarget string
}

// MaxPathComponents bounds the component list of one LOOKUPPATH request.
const MaxPathComponents = 1024

// Walked is one LOOKUPPATH result. On success FH and Attr describe the leaf
// (the start handle itself for an empty path), Resolved is the component
// count, and Target is the leaf's link target when it is a symlink, so a
// caller classifying special links needs no READLINK. On failure Resolved
// counts the components that resolved before the failing one and FH is the
// last directory entered, which is where a caller creating the missing rest
// carries on. A walk that asked for data and ended on a regular file also
// carries the leaf's first READ: Data from offset 0 and whether it reached
// EOF. Data is the reply frame's own bytes, as Client.Read's are.
type Walked struct {
	FH       Handle
	Attr     localfs.Attr
	Resolved int
	Target   string
	Data     []byte
	EOF      bool
}

// nextComponent splits the first component off a slash-separated path,
// skipping empty and "." components; name is "" when none is left.
func nextComponent(p string) (name, rest string) {
	for p != "" {
		if i := strings.IndexByte(p, '/'); i < 0 {
			name, p = p, ""
		} else {
			name, p = p[:i], p[i+1:]
		}
		if name != "" && name != "." {
			return name, p
		}
	}
	return "", ""
}

// putPath encodes p as LOOKUPPATH's counted component list, straight from
// the string: no component slice is built.
func putPath(e *wire.Encoder, p string) {
	at := e.Len()
	e.PutUint32(0)
	n := uint32(0)
	for name, rest := nextComponent(p); name != ""; name, rest = nextComponent(rest) {
		e.PutString(name)
		n++
	}
	binary.BigEndian.PutUint32(e.Bytes()[at:], n)
}

// WriteSpan is one contiguous byte range of a vectored write: the unit an
// FSWriteV mutation carries on the wire and the write-back buffer coalesces
// adjacent WRITEs into.
type WriteSpan struct {
	Offset int64
	Data   []byte
}

// PutWriteSpans encodes a span vector; exposed for the kosha replication
// service, which ships the same vector inside its mirrored mutations.
func PutWriteSpans(e *wire.Encoder, spans []WriteSpan) {
	e.Grow(4 + SpansWireSize(spans))
	e.PutUint32(uint32(len(spans)))
	for _, s := range spans {
		e.PutInt64(s.Offset)
		e.PutOpaque(s.Data)
	}
}

// SpansWireSize bounds from above the encoded size of the spans (the
// vector's count word excluded), for sizing the frame that carries them.
func SpansWireSize(spans []WriteSpan) int {
	n := 0
	for _, s := range spans {
		n += 16 + len(s.Data) // offset, length, padding
	}
	return n
}

// GetWriteSpans decodes a span vector written by PutWriteSpans. The spans'
// Data borrows the decoder's buffer (wire.Decoder.OpaqueRef): every consumer
// copies the bytes into a store before the request returns.
func GetWriteSpans(d *wire.Decoder) []WriteSpan {
	n := d.ArrayLen()
	if n <= 0 {
		return nil
	}
	spans := make([]WriteSpan, 0, n)
	for i := 0; i < n; i++ {
		spans = append(spans, WriteSpan{Offset: d.Int64(), Data: d.OpaqueRef()})
	}
	return spans
}

// FSStat mirrors localfs.FSStat on the wire.
type FSStat struct {
	TotalBytes int64
	UsedBytes  int64
	Files      int64
}

// ToStatus maps a localfs error onto its wire status; nil maps to OK and
// unknown errors to NFS3ERR_IO. Exposed for Kosha's loopback path, which
// executes store operations directly and must report NFS-equivalent
// statuses to clients.
func ToStatus(err error) Status { return toStatus(err) }
