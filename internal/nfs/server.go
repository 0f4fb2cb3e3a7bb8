package nfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/localfs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// drcSize bounds the duplicate-request cache: replies to the most recent
// mutating requests are retained, evicted FIFO. Retransmissions arrive back
// to back in the simulated network, so a small window suffices.
const drcSize = 1024

// drcKey identifies one request: the calling node plus the transaction id
// its client stamped on the wire. xids are unique per client, so (from, xid)
// is unique per request cluster-wide.
type drcKey struct {
	from simnet.Addr
	xid  uint64
}

// Server exports one localfs over the network. In the Kosha deployment
// model every participating node "is assumed to run an NFS server, so that
// its contributed disk space can be accessed via NFS" (Section 4).
//
// Mutating procedures execute at-most-once: a duplicate-request cache keyed
// by (caller, xid) replays the recorded reply for a retransmitted request
// instead of re-executing it, so a duplicated CREATE cannot turn into
// ErrExist and a duplicated REMOVE cannot turn into ErrNoEnt.
type Server struct {
	fs  localfs.FileSystem
	gen atomic.Uint64

	drcMu   sync.Mutex
	drc     map[drcKey][]byte
	drcFIFO []drcKey
	drcNext int // ring index of the next slot to overwrite
	replays atomic.Uint64
}

// NewServer wraps fs; gen seeds the handle generation (server incarnation).
func NewServer(fs localfs.FileSystem, gen uint64) *Server {
	s := &Server{fs: fs}
	s.gen.Store(gen)
	return s
}

// FS returns the backing file system (tests and node-local maintenance).
func (s *Server) FS() localfs.FileSystem { return s.fs }

// Root returns the handle of the exported root directory.
func (s *Server) Root() Handle {
	return Handle{Gen: s.gen.Load(), Ino: localfs.RootIno}
}

// Bump invalidates all outstanding handles by advancing the incarnation,
// used when a revived node purges its store (Section 4.3.2).
func (s *Server) Bump() { s.gen.Add(1) }

// Attach registers the server's RPC handler on the network at addr.
func (s *Server) Attach(n simnet.Transport, addr simnet.Addr) {
	n.RegisterCtx(addr, Service, simnet.Handler(s.Handle).Ctx())
}

// Handle is the simnet.Handler entry point: decode proc and xid, consult the
// duplicate-request cache for mutating procedures, dispatch, encode.
func (s *Server) Handle(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
	d := wire.NewDecoder(req)
	proc := Proc(d.Uint32())
	xid := d.Uint64()
	if d.Err() != nil {
		return s.fail(ErrInval), 0, nil
	}
	if mutating(proc) {
		if resp, ok := s.drcGet(from, xid); ok {
			// Retransmission of a request already executed: replay the
			// recorded reply without touching the file system.
			s.replays.Add(1)
			return resp, 0, nil
		}
	}
	resp, cost := s.dispatch(proc, d)
	if mutating(proc) {
		s.drcPut(from, xid, resp)
	}
	return resp, cost, nil
}

// mutating reports whether a procedure changes file system state and must
// therefore execute at-most-once. Reads, lookups, and getattrs are naturally
// idempotent and bypass the cache.
func mutating(p Proc) bool {
	switch p {
	case ProcSetattr, ProcWrite, ProcCreate, ProcMkdir, ProcSymlink,
		ProcRemove, ProcRmdir, ProcRename:
		return true
	}
	return false
}

// Replays reports how many retransmitted requests the duplicate-request
// cache has answered without re-execution.
func (s *Server) Replays() uint64 { return s.replays.Load() }

func (s *Server) drcGet(from simnet.Addr, xid uint64) ([]byte, bool) {
	k := drcKey{from: from, xid: xid}
	s.drcMu.Lock()
	resp, ok := s.drc[k]
	s.drcMu.Unlock()
	return resp, ok
}

func (s *Server) drcPut(from simnet.Addr, xid uint64, resp []byte) {
	k := drcKey{from: from, xid: xid}
	s.drcMu.Lock()
	defer s.drcMu.Unlock()
	if s.drc == nil {
		s.drc = make(map[drcKey][]byte, drcSize)
		s.drcFIFO = make([]drcKey, drcSize)
	}
	if _, dup := s.drc[k]; dup {
		return
	}
	if len(s.drc) >= drcSize {
		delete(s.drc, s.drcFIFO[s.drcNext])
	}
	s.drc[k] = resp
	s.drcFIFO[s.drcNext] = k
	s.drcNext = (s.drcNext + 1) % drcSize
}

// fail encodes an error-only reply.
func (s *Server) fail(st Status) []byte {
	e := wire.NewEncoder(4)
	e.PutUint32(uint32(st))
	return e.Bytes()
}

// check resolves a handle to an inode number, validating the incarnation.
func (s *Server) check(h Handle) (uint64, Status) {
	if h.Gen != s.gen.Load() {
		return 0, ErrStale
	}
	return h.Ino, OK
}

func (s *Server) dispatch(proc Proc, d *wire.Decoder) ([]byte, simnet.Cost) {
	e := wire.NewEncoder(128)
	switch proc {
	case ProcNull:
		e.PutUint32(uint32(OK))
		return e.Bytes(), 0

	case ProcMountRoot:
		e.PutUint32(uint32(OK))
		putHandle(e, s.Root())
		return e.Bytes(), 0

	case ProcGetattr:
		h := getHandle(d)
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.Getattr(ino)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putAttr(e, attr)
		return e.Bytes(), cost

	case ProcSetattr:
		h := getHandle(d)
		sa := GetSetAttr(d)
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.Setattr(ino, sa)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putAttr(e, attr)
		return e.Bytes(), cost

	case ProcLookup:
		h := getHandle(d)
		name := d.String()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.Lookup(ino, name)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putHandle(e, Handle{Gen: h.Gen, Ino: attr.Ino})
		putAttr(e, attr)
		return e.Bytes(), cost

	case ProcLookupPath:
		return s.lookupPath(d, e)

	case ProcAccess:
		h := getHandle(d)
		want := d.Uint32()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.Getattr(ino)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putAttr(e, attr)
		e.PutUint32(want & accessFor(attr))
		return e.Bytes(), cost

	case ProcFSInfo:
		h := getHandle(d)
		if _, st := s.check(h); st != OK {
			return s.fail(st), 0
		}
		e.PutUint32(uint32(OK))
		e.PutUint32(64 << 10) // rtmax
		e.PutUint32(64 << 10) // wtmax
		e.PutUint32(32 << 10) // rtpref
		e.PutUint32(32 << 10) // wtpref
		e.PutInt64(localfs.MaxFileSize)
		return e.Bytes(), 0

	case ProcReadlink:
		h := getHandle(d)
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		target, cost, err := s.fs.Readlink(ino)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		e.PutString(target)
		return e.Bytes(), cost

	case ProcRead:
		h := getHandle(d)
		offset := d.Int64()
		count := d.Uint32()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		e.PutUint32(uint32(OK))
		cost, err := s.putData(e, ino, offset, int(count), 1)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		return e.Bytes(), cost

	case ProcReadStream:
		h := getHandle(d)
		offset := d.Int64()
		chunk := int(d.Uint32())
		chunks := int(d.Uint32())
		if d.Err() != nil || chunk <= 0 || chunks <= 0 {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		// The window's chunk reads run back to back against the store; their
		// disk costs accumulate, but the propagation round trip is paid once
		// for the whole window — that is the entire point of the procedure.
		e.PutUint32(uint32(OK))
		cost, err := s.putData(e, ino, offset, chunk, chunks)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		return e.Bytes(), cost

	case ProcWrite:
		h := getHandle(d)
		offset := d.Int64()
		data := d.OpaqueRef() // the store copies it
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		n, cost, err := s.fs.Write(ino, offset, data)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		e.PutUint32(uint32(n))
		return e.Bytes(), cost

	case ProcCreate:
		h := getHandle(d)
		name := d.String()
		mode := d.Uint32()
		exclusive := d.Bool()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.Create(ino, name, mode, exclusive)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putHandle(e, Handle{Gen: h.Gen, Ino: attr.Ino})
		putAttr(e, attr)
		return e.Bytes(), cost

	case ProcMkdir:
		h := getHandle(d)
		name := d.String()
		mode := d.Uint32()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.Mkdir(ino, name, mode)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putHandle(e, Handle{Gen: h.Gen, Ino: attr.Ino})
		putAttr(e, attr)
		return e.Bytes(), cost

	case ProcSymlink:
		h := getHandle(d)
		name := d.String()
		target := d.String()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.Symlink(ino, name, target)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putHandle(e, Handle{Gen: h.Gen, Ino: attr.Ino})
		putAttr(e, attr)
		return e.Bytes(), cost

	case ProcRemove, ProcRmdir:
		h := getHandle(d)
		name := d.String()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		var cost simnet.Cost
		var err error
		if proc == ProcRemove {
			cost, err = s.fs.Remove(ino, name)
		} else {
			cost, err = s.fs.Rmdir(ino, name)
		}
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		return e.Bytes(), cost

	case ProcRename:
		fromH := getHandle(d)
		fromName := d.String()
		toH := getHandle(d)
		toName := d.String()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		fromIno, st := s.check(fromH)
		if st != OK {
			return s.fail(st), 0
		}
		toIno, st := s.check(toH)
		if st != OK {
			return s.fail(st), 0
		}
		cost, err := s.fs.Rename(fromIno, fromName, toIno, toName)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		return e.Bytes(), cost

	case ProcReaddir:
		h := getHandle(d)
		cookie := d.Uint64()
		count := d.Uint32()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		ents, cost, err := s.fs.Readdir(ino)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		start, end := pageOf(len(ents), cookie, count)
		page := ents[start:end]
		e.Grow(pageSize(page, direntSize))
		e.PutUint32(uint32(OK))
		e.PutBool(end == len(ents)) // eof
		e.PutUint64(uint64(end))    // next cookie
		e.PutUint32(uint32(len(page)))
		for _, ent := range page {
			e.PutString(ent.Name)
			e.PutUint64(ent.Ino)
			e.PutUint32(uint32(ent.Type))
		}
		return e.Bytes(), cost

	case ProcReaddirPlus:
		h := getHandle(d)
		cookie := d.Uint64()
		count := d.Uint32()
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		ents, cost, err := s.fs.Readdir(ino)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		start, end := pageOf(len(ents), cookie, count)
		page := ents[start:end]
		e.Grow(pageSize(page, direntPlusSize))
		e.PutUint32(uint32(OK))
		e.PutBool(end == len(ents)) // eof
		e.PutUint64(uint64(end))    // next cookie
		e.PutUint32(uint32(len(page)))
		// Per-entry attributes and link targets come from the inodes the
		// directory scan just brought into the server's cache, so only the
		// directory read is charged — the very asymmetry that makes
		// READDIRPLUS cheaper than a READDIR followed by N GETATTRs.
		for _, ent := range page {
			attr, _, aerr := s.fs.Getattr(ent.Ino)
			if aerr != nil {
				// The entry vanished between readdir and getattr; report
				// what the listing said and leave the attributes zero, as
				// READDIRPLUS's optional name_attributes allow.
				attr = localfs.Attr{Ino: ent.Ino, Type: ent.Type}
			}
			var target string
			if ent.Type == localfs.TypeSymlink {
				if t, _, lerr := s.fs.Readlink(ent.Ino); lerr == nil {
					target = t
				}
			}
			e.PutString(ent.Name)
			e.PutUint64(ent.Ino)
			e.PutUint32(uint32(ent.Type))
			putHandle(e, Handle{Gen: h.Gen, Ino: ent.Ino})
			putAttr(e, attr)
			e.PutString(target)
		}
		return e.Bytes(), cost

	case ProcFSStat:
		h := getHandle(d)
		if _, st := s.check(h); st != OK {
			return s.fail(st), 0
		}
		st, cost, err := s.fs.Statfs()
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		e.PutInt64(st.TotalBytes)
		e.PutInt64(st.UsedBytes)
		e.PutInt64(st.Files)
		return e.Bytes(), cost

	default:
		return s.fail(ErrInval), 0
	}
}

// The encoded sizes of a listing reply: the words before the entries, and per
// entry what follows its name. A READDIRPLUS entry's link target is counted as
// empty, as a regular file's or a directory's is.
const (
	pageHeaderSize = 4 + 4 + 8 + 4       // status, eof, cookie, count
	direntSize     = 8 + 4               // ino, type
	direntPlusSize = 8 + 4 + 16 + 60 + 4 // ino, type, handle, attributes, target
)

// pageSize is the encoded size of a listing reply carrying page, so the frame
// is allocated once at its size instead of regrown entry by entry.
func pageSize(page []localfs.DirEntry, perEntry int) int {
	n := pageHeaderSize
	for _, ent := range page {
		n += 4 + len(ent.Name) + (4-len(ent.Name)%4)%4 + perEntry
	}
	return n
}

// pageOf bounds one READDIR/READDIRPLUS page of an n-entry listing: it
// starts at cookie and holds count entries, count 0 meaning all that remain.
// The cookie is compared unsigned, so a hostile one cannot go negative.
func pageOf(n int, cookie uint64, count uint32) (start, end int) {
	start = n
	if cookie < uint64(n) {
		start = int(cookie)
	}
	end = start + int(count)
	if count == 0 || end > n {
		end = n
	}
	return start, end
}

// lookupPath serves LOOKUPPATH: the component walk an NFSv3 client makes
// with one LOOKUP per name, run against the store in one request. It charges
// what the RPCs it replaces charge on disk — each component's LOOKUP, the
// leaf's READLINK when a target goes back, GETATTR only when there is no
// component to look up, and the READ a regular leaf's data costs when the
// request asks for it — so what the procedure saves is round trips and
// nothing else. Every reply carries the components resolved and the handle
// of the last object reached; a successful one adds the leaf's attributes
// and link target, and for a regular leaf asked for data, its first READ.
//
// The request asks with one word after the components, readMax, which is
// read only when it is there: a walk that wants no data sends and receives
// the bytes it always did. The read is sized by the file, never by readMax,
// as READSTREAM's window is. A read that fails comes back empty and short of
// EOF, so the caller's next READ meets the failure itself.
func (s *Server) lookupPath(d *wire.Decoder, e *wire.Encoder) ([]byte, simnet.Cost) {
	h := getHandle(d)
	n := d.ArrayLen() // refuses a count the bytes left cannot hold
	if d.Err() != nil || n > MaxPathComponents {
		return s.fail(ErrInval), 0
	}
	ino, st := s.check(h)
	var attr localfs.Attr
	var target string
	var readMax uint32
	var cost simnet.Cost
	resolved := 0
	if st == OK {
		var c simnet.Cost
		var err error
		if n == 0 {
			attr, cost, err = s.fs.Getattr(ino)
		}
		for err == nil && resolved < n {
			name := d.String()
			if d.Err() != nil {
				return s.fail(ErrInval), cost
			}
			if attr, c, err = s.fs.Lookup(ino, name); err == nil {
				ino = attr.Ino
				resolved++
			}
			cost = simnet.Seq(cost, c)
		}
		if err == nil && attr.Type == localfs.TypeSymlink {
			target, c, err = s.fs.Readlink(ino)
			cost = simnet.Seq(cost, c)
		}
		if err == nil && attr.Type == localfs.TypeRegular && d.Remaining() >= 4 {
			readMax = d.Uint32()
		}
		st = toStatus(err)
	}
	e.PutUint32(uint32(st))
	e.PutUint32(uint32(resolved))
	putHandle(e, Handle{Gen: h.Gen, Ino: ino})
	if st == OK {
		putAttr(e, attr)
		e.PutString(target)
		if readMax > 0 {
			c, _ := s.putData(e, ino, 0, int(readMax), 1) // a failed read is empty, short of EOF
			cost = simnet.Seq(cost, c)
		}
	}
	return e.Bytes(), cost
}

// putData encodes the tail of a data reply, eof and one opaque, for up to
// chunks reads of chunk bytes from off that stop at the first short one: one
// chunk for READ and LOOKUPPATH's carried read, a window of them for
// READSTREAM. The store appends each read straight into the frame, which
// grows by what the store returned, never by chunk x chunks, so a hostile
// window reserves nothing. The cost is the reads' in sequence. After an
// error the opaque holds the chunks read before it and eof is false.
func (s *Server) putData(e *wire.Encoder, ino uint64, off int64, chunk, chunks int) (cost simnet.Cost, err error) {
	at := e.Len()
	e.PutBool(false)
	var eof bool
	e.PutOpaqueFunc(func(dst []byte) []byte {
		for i := 0; i < chunks && err == nil; i++ {
			n := len(dst)
			var c simnet.Cost
			dst, eof, c, err = s.fs.AppendRead(dst, ino, off, chunk)
			cost = simnet.Seq(cost, c)
			off += int64(len(dst) - n)
			if eof || len(dst)-n < chunk {
				break
			}
		}
		return dst
	})
	e.SetBool(at, eof)
	return cost, err
}

// accessFor derives the ACCESS grant mask from an entry's mode bits,
// evaluated for the owner class (Kosha's deployment model trusts the
// administrator-controlled nodes, Section 4.1.6, so owner-class checks are
// the meaningful ones).
func accessFor(a localfs.Attr) uint32 {
	var m uint32
	if a.Mode&0o400 != 0 {
		m |= AccessRead
	}
	if a.Mode&0o200 != 0 {
		m |= AccessModify | AccessExtend | AccessDelete
	}
	if a.Mode&0o100 != 0 {
		m |= AccessExecute
		if a.Type == localfs.TypeDir {
			m |= AccessLookup
		}
	}
	if a.Type == localfs.TypeDir && a.Mode&0o100 != 0 {
		m |= AccessLookup
	}
	return m
}
