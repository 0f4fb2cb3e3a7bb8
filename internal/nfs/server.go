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
// duplicate-request cache for mutating procedures, dispatch, encode. req is
// the head of the request frame (simnet.HandlerCtx), so a WRITE's lent data
// is read where the client holds it.
//
// Each request is decoded and its reply encoded in one pooled wire.Codec,
// freed on every path: the caller gets the reply at its own length
// (Codec.Keep), or a bare status as its shared frame, so nothing it holds,
// the duplicate-request cache included, is a pooled head.
func (s *Server) Handle(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
	x := wire.GetCodec()
	defer x.Free()
	d := &x.D
	d.ResetFrame(wire.FrameOf(req))
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
	resp, cost := s.dispatch(proc, req, x)
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
	case ProcWrite, ProcCreate, ProcMkdir, ProcRemove, ProcRmdir, ProcRename:
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

// fail returns an error-only reply, the status's shared frame.
func (s *Server) fail(st Status) []byte { return wire.StatusFrame(uint32(st)) }

// check resolves a handle to an inode number, validating the incarnation.
func (s *Server) check(h Handle) (uint64, Status) {
	if h.Gen != s.gen.Load() {
		return 0, ErrStale
	}
	return h.Ino, OK
}

// dispatch serves one procedure, reading the request from x's decoder and
// encoding the reply with x's encoder, which it hands over with x.Keep.
func (s *Server) dispatch(proc Proc, req []byte, x *wire.Codec) ([]byte, simnet.Cost) {
	d, e := &x.D, &x.E
	if proc == ProcRead {
		return s.read(req, x)
	}
	switch proc {
	case ProcMountRoot:
		e.PutUint32(uint32(OK))
		putHandle(e, s.Root())
		return x.Keep(), 0

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
		PutAttr(e, attr)
		return x.Keep(), cost

	case ProcLookup:
		h := getHandle(d)
		name := d.OpaqueRef() // looked up in place, never kept
		if d.Err() != nil {
			return s.fail(ErrInval), 0
		}
		ino, st := s.check(h)
		if st != OK {
			return s.fail(st), 0
		}
		attr, cost, err := s.fs.LookupName(ino, name)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		e.PutUint32(uint32(OK))
		putHandle(e, Handle{Gen: h.Gen, Ino: attr.Ino})
		PutAttr(e, attr)
		return x.Keep(), cost

	case ProcLookupPath:
		return s.lookupPath(x)

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
		return x.Keep(), cost

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
		return x.Keep(), cost

	case ProcCreate:
		h := getHandle(d)
		name := d.StringRef() // borrowed: the store copies the name it enters
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
		PutAttr(e, attr)
		return x.Keep(), cost

	case ProcMkdir:
		h := getHandle(d)
		name := d.StringRef() // borrowed: the store copies the name it enters
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
		PutAttr(e, attr)
		return x.Keep(), cost

	case ProcRemove, ProcRmdir:
		h := getHandle(d)
		name := d.StringRef() // looked up in place, never kept
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
		return x.Keep(), cost

	case ProcRename:
		fromH := getHandle(d)
		fromName := d.StringRef() // borrowed, as every name the store takes
		toH := getHandle(d)
		toName := d.StringRef()
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
		return x.Keep(), cost

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
		e.Grow(pageSize(page))
		e.PutUint32(uint32(OK))
		e.PutBool(end == len(ents)) // eof
		e.PutUint64(uint64(end))    // next cookie
		e.PutUint32(uint32(len(page)))
		// Per-entry attributes and link targets come from the inodes the
		// directory scan just brought into the server's cache, so only the
		// directory read is charged — the very asymmetry that makes
		// READDIRPLUS cheaper than a listing followed by N GETATTRs.
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
			PutAttr(e, attr)
			e.PutString(target)
		}
		return x.Keep(), cost

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
		return x.Keep(), cost

	default:
		return s.fail(ErrInval), 0
	}
}

// The encoded sizes of a READDIRPLUS reply: the words before the entries, and
// per entry what follows its name. An entry's link target is counted as
// empty, as a regular file's or a directory's is.
const (
	pageHeaderSize = 4 + 4 + 8 + 4       // status, eof, cookie, count
	direntPlusSize = 8 + 4 + 16 + 60 + 4 // ino, type, handle, attributes, target
)

// pageSize is the encoded size of a READDIRPLUS reply carrying page, so the
// frame is allocated once at its size instead of regrown entry by entry.
func pageSize(page []localfs.DirEntry) int {
	n := pageHeaderSize
	for _, ent := range page {
		n += 4 + len(ent.Name) + (4-len(ent.Name)%4)%4 + direntPlusSize
	}
	return n
}

// pageOf bounds one READDIRPLUS page of an n-entry listing: it
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
// Each component is looked up where it lies in the request frame
// (FileSystem.LookupName), so the walk allocates no names.
//
// The request asks with one word after the components, readMax, which is
// read only when it is there: a walk that wants no data sends and receives
// the bytes it always did. The read is sized by the file, never by readMax,
// as a READ is by its count. A read that fails comes back empty and short of
// EOF, so the caller's next READ meets the failure itself.
func (s *Server) lookupPath(x *wire.Codec) ([]byte, simnet.Cost) {
	d, e := &x.D, &x.E
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
			name := d.OpaqueRef()
			if d.Err() != nil {
				return s.fail(ErrInval), cost
			}
			if attr, c, err = s.fs.LookupName(ino, name); err == nil {
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
		PutAttr(e, attr)
		e.PutString(target)
		if readMax > 0 {
			c, _ := s.putData(e, ino, 0, int(readMax)) // a failed read is empty, short of EOF
			cost = simnet.Seq(cost, c)
		}
	}
	return x.Keep(), cost
}

// read serves READ. A request that lends a sink the store can fill
// (wire.TakeSink) gets its data there: the store appends into the sink under
// its lock, and the reply's head, status, eof, the length word and the
// padding, lends the filled part (wire.LendReply), joined byte for byte the
// flat reply. The head and the record of the lent part sit in one
// wire.Codec, the reply's one allocation. A READ is not mutating, so the
// duplicate-request cache never keeps such a head. A request without a
// sink, a duplicate delivery that finds it taken, and a sink with no room
// get the flat reply putData encodes in the request's Codec, whose frame the
// store grows once and Keep hands over: that frame is the reply's one
// allocation. A file that outgrew the room the sink offered is read into a
// buffer of its own, which LendReply copies into a flat reply.
func (s *Server) read(req []byte, x *wire.Codec) ([]byte, simnet.Cost) {
	d := &x.D
	h := getHandle(d)
	offset := d.Int64()
	count := int(d.Uint32())
	if d.Err() != nil {
		return s.fail(ErrInval), 0
	}
	ino, st := s.check(h)
	if st != OK {
		return s.fail(st), 0
	}
	sink, ok := wire.TakeSink(req)
	if !ok || cap(sink) == 0 {
		e := &x.E
		e.PutUint32(uint32(OK))
		cost, err := s.putData(e, ino, offset, count)
		if err != nil {
			return s.fail(toStatus(err)), cost
		}
		return x.Keep(), cost
	}
	data, eof, cost, err := s.fs.AppendRead(sink, ino, offset, count)
	if err != nil {
		return s.fail(toStatus(err)), cost
	}
	e := &wire.NewCodec().E
	e.PutUint32(uint32(OK))
	e.PutBool(eof)
	e.PutOpaqueRef(data)
	return wire.LendReply(req, e.Frame()), cost
}

// putData encodes the tail of a data reply, eof and one opaque, for up to
// count bytes from off: a READ's without a sink and LOOKUPPATH's carried
// read. It is one store call (FileSystem.AppendRead), which sizes the frame
// once by what the file holds past off, never by count, so a hostile count
// reserves nothing, and appends the bytes into it under one lock. After an
// error the opaque is empty and eof is false.
func (s *Server) putData(e *wire.Encoder, ino uint64, off int64, count int) (cost simnet.Cost, err error) {
	at := e.Len()
	e.PutBool(false)
	var eof bool
	e.PutOpaqueFunc(func(dst []byte) []byte {
		dst, eof, cost, err = s.fs.AppendRead(dst, ino, off, count)
		return dst
	})
	e.SetBool(at, eof)
	return cost, err
}
