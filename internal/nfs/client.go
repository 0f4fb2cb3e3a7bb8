package nfs

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// ClientStats counts the RPC traffic one client has issued, so harnesses can
// report rpcs/op alongside simulated seconds and quantify round-trip savings
// (e.g. the attribute-cache and READDIRPLUS ablations).
type ClientStats struct {
	RPCs  uint64 // calls issued (including failed ones)
	Bytes uint64 // request + reply payload bytes
}

// Sub returns the traffic accumulated since an earlier snapshot.
func (s ClientStats) Sub(prev ClientStats) ClientStats {
	return ClientStats{RPCs: s.RPCs - prev.RPCs, Bytes: s.Bytes - prev.Bytes}
}

// maxProc bounds the per-procedure counter table (ProcMountRoot = 100 is the
// highest procedure number in use).
const maxProc = 128

// procHistNames pre-interns every "rpc.<PROC>" histogram label so the RPC
// hot path never builds a label string — not even on a procedure's first
// use. Built once at init; unknown procedure numbers get their PROC(n) form.
var procHistNames [maxProc]string

func init() {
	for i := range procHistNames {
		procHistNames[i] = "rpc." + Proc(i).String()
	}
}

// clientState is the shared mutable core behind Client values: the
// transport, counters, and the xid sequence. One state is shared by every
// context-stamped copy of a client, so xids stay unique per node and the
// counters aggregate regardless of which copy issued the call.
type clientState struct {
	net  simnet.Caller
	from simnet.Addr

	reg    *obs.Registry
	rpcs   *obs.Counter
	bytes  *obs.Counter
	xid    atomic.Uint64 // transaction id, unique per (client, request)
	byProc [maxProc]atomic.Pointer[obs.Histogram]
}

// Client issues NFS RPCs from one node to another over the transport.
// koshad uses it both to serve lookups "as if it is an NFS client of R"
// (Section 4.1.3) and to forward interposed RPCs to remote stores.
//
// Client is a small copyable value over shared state: WithCtx stamps a
// trace context onto a copy without allocating, so an op's RPCs carry its
// TraceContext while the same underlying counters and xid sequence serve
// every copy.
//
// All traffic counters live in an obs.Registry ("nfs.rpcs", "nfs.bytes",
// per-procedure "rpc.<PROC>" counts and latency histograms) so snapshots and
// resets come from one place. koshad and the simulated nodes pass in their
// node-wide registry; NewClient creates a private one.
type Client struct {
	s  *clientState
	tc obs.TraceContext
}

// NewClient returns a client that originates calls from addr, with a private
// metrics registry.
func NewClient(net simnet.Caller, from simnet.Addr) Client {
	return NewClientWithRegistry(net, from, obs.NewRegistry())
}

// NewClientWithRegistry returns a client whose traffic counters live in reg,
// letting a node fold its NFS client metrics into a node-wide registry.
func NewClientWithRegistry(net simnet.Caller, from simnet.Addr, reg *obs.Registry) Client {
	s := &clientState{
		net:   net,
		from:  from,
		reg:   reg,
		rpcs:  reg.Counter("nfs.rpcs"),
		bytes: reg.Counter("nfs.bytes"),
	}
	return Client{s: s}
}

// WithCtx returns a copy of the client whose RPCs carry the given trace
// context. Zero-allocation: the copy shares all state with the original.
func (c Client) WithCtx(tc obs.TraceContext) Client {
	c.tc = tc
	return c
}

// From returns the address this client originates calls from.
func (c Client) From() simnet.Addr { return c.s.from }

// Registry exposes the registry backing this client's counters.
func (c Client) Registry() *obs.Registry { return c.s.reg }

// proc returns the cached "rpc.<PROC>" latency histogram for one procedure
// so the call hot path pays one pointer load instead of a registry lookup.
// Per-proc counts are the histogram counts — no separate counter.
func (c Client) proc(p Proc) *obs.Histogram {
	if p >= maxProc {
		p = maxProc - 1
	}
	if m := c.s.byProc[p].Load(); m != nil {
		return m
	}
	m := c.s.reg.Histogram(procHistNames[p])
	c.s.byProc[p].CompareAndSwap(nil, m)
	return c.s.byProc[p].Load()
}

// Stats returns a snapshot of the traffic counters.
func (c Client) Stats() ClientStats {
	return ClientStats{RPCs: c.s.rpcs.Load(), Bytes: c.s.bytes.Load()}
}

// ProcCount reports how many RPCs of one procedure have been issued.
func (c Client) ProcCount(p Proc) uint64 {
	if p >= maxProc {
		return 0
	}
	return c.proc(p).Count()
}

// ResetStats zeroes every metric in the client's registry (when the registry
// is shared with a node, this resets the node's whole metric surface — the
// unified semantics that replaced the three per-type Reset paths).
func (c Client) ResetStats() {
	c.s.reg.Reset()
}

// call performs one RPC, records traffic counters and the per-procedure
// latency histogram (simulated cost), and strips the status word. Every
// request carries a transaction id (xid) unique to this client so the
// server's duplicate-request cache can recognize retransmissions and keep
// non-idempotent procedures at-most-once. The client's trace context (if
// stamped via WithCtx) rides the envelope. A non-OK status comes back as an
// *Error beside the decoder, positioned after the status word, for the
// procedures whose failure replies carry more than the status.
func (c Client) call(to simnet.Addr, proc Proc, build func(*wire.Encoder)) (*wire.Decoder, simnet.Cost, error) {
	e := wire.NewEncoder(256)
	e.PutUint32(uint32(proc))
	e.PutUint64(c.s.xid.Add(1))
	if build != nil {
		build(e)
	}
	lat := c.proc(proc)
	c.s.rpcs.Add(1)
	c.s.bytes.Add(uint64(len(e.Bytes())))
	resp, cost, err := c.s.net.CallCtx(c.tc, c.s.from, to, Service, e.Bytes())
	lat.Observe(time.Duration(cost))
	c.s.bytes.Add(uint64(len(resp)))
	if err != nil {
		return nil, cost, fmt.Errorf("nfs %s to %s: %w", proc, to, err)
	}
	d := wire.NewDecoder(resp)
	st := Status(d.Uint32())
	if d.Err() != nil {
		return nil, cost, fmt.Errorf("nfs %s to %s: bad reply: %w", proc, to, d.Err())
	}
	if st != OK {
		return d, cost, &Error{Proc: proc, Status: st}
	}
	return d, cost, nil
}

// Null pings the server.
func (c Client) Null(to simnet.Addr) (simnet.Cost, error) {
	_, cost, err := c.call(to, ProcNull, nil)
	return cost, err
}

// MountRoot fetches the export's root handle (the MOUNT protocol's MNT).
func (c Client) MountRoot(to simnet.Addr) (Handle, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcMountRoot, nil)
	if err != nil {
		return Handle{}, cost, err
	}
	return getHandle(d), cost, nil
}

// Getattr fetches attributes for h.
func (c Client) Getattr(to simnet.Addr, h Handle) (localfs.Attr, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcGetattr, func(e *wire.Encoder) { putHandle(e, h) })
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	return getAttr(d), cost, nil
}

// Setattr updates attributes on h.
func (c Client) Setattr(to simnet.Addr, h Handle, sa localfs.SetAttr) (localfs.Attr, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcSetattr, func(e *wire.Encoder) {
		putHandle(e, h)
		PutSetAttr(e, sa)
	})
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	return getAttr(d), cost, nil
}

// Lookup resolves name within directory dir.
func (c Client) Lookup(to simnet.Addr, dir Handle, name string) (Handle, localfs.Attr, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcLookup, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
	})
	if err != nil {
		return Handle{}, localfs.Attr{}, cost, err
	}
	h := getHandle(d)
	return h, getAttr(d), cost, nil
}

// Walk resolves the slash-separated path p below start in one LOOKUPPATH
// round trip. Request: start handle, counted component list. Reply: walk
// status, components resolved, handle of the last object reached, then on
// success its attributes and link target. Intermediate symlinks are not
// followed; a non-directory in the middle is NFS3ERR_NOTDIR. A failed walk
// returns what it reached (see Walked) beside the error.
//
// A readMax above zero asks for the leaf's first READ as well: the request
// carries readMax after the components, and when the leaf is a regular file
// the reply ends in that READ's eof flag and data, up to readMax bytes from
// offset 0. With readMax 0 the request and reply carry no such words.
func (c Client) Walk(to simnet.Addr, start Handle, p string, readMax uint32) (Walked, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcLookupPath, func(e *wire.Encoder) {
		putHandle(e, start)
		putPath(e, p)
		if readMax > 0 {
			e.PutUint32(readMax)
		}
	})
	if d == nil {
		return Walked{}, cost, err
	}
	w := Walked{Resolved: int(d.Uint32()), FH: getHandle(d)}
	if err == nil {
		w.Attr = getAttr(d)
		w.Target = d.String()
		if readMax > 0 && w.Attr.Type == localfs.TypeRegular {
			w.EOF = d.Bool()
			w.Data = d.OpaqueRef()
		}
	}
	if d.Err() != nil {
		// An error-only reply (a request the server could not decode) keeps
		// its status; a short reply to a walk that succeeded is malformed.
		if err == nil {
			err = fmt.Errorf("nfs LOOKUPPATH to %s: bad reply: %w", to, d.Err())
		}
		return Walked{}, cost, err
	}
	return w, cost, err
}

// Access checks the caller's permissions on h, returning the granted
// subset of the requested mask.
func (c Client) Access(to simnet.Addr, h Handle, want uint32) (uint32, localfs.Attr, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcAccess, func(e *wire.Encoder) {
		putHandle(e, h)
		e.PutUint32(want)
	})
	if err != nil {
		return 0, localfs.Attr{}, cost, err
	}
	attr := getAttr(d)
	return d.Uint32(), attr, cost, nil
}

// FSInfo fetches the server's static limits.
func (c Client) FSInfo(to simnet.Addr, root Handle) (FSInfo, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcFSInfo, func(e *wire.Encoder) { putHandle(e, root) })
	if err != nil {
		return FSInfo{}, cost, err
	}
	return FSInfo{
		RTMax:   d.Uint32(),
		WTMax:   d.Uint32(),
		RTPref:  d.Uint32(),
		WTPref:  d.Uint32(),
		MaxFile: d.Int64(),
	}, cost, nil
}

// Readlink returns the target of symlink h.
func (c Client) Readlink(to simnet.Addr, h Handle) (string, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcReadlink, func(e *wire.Encoder) { putHandle(e, h) })
	if err != nil {
		return "", cost, err
	}
	return d.String(), cost, nil
}

// Read returns up to count bytes of h at offset. The data is the reply
// frame's own bytes, handed to the caller: nothing else holds the frame.
func (c Client) Read(to simnet.Addr, h Handle, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcRead, func(e *wire.Encoder) {
		putHandle(e, h)
		e.PutInt64(offset)
		e.PutUint32(uint32(count))
	})
	if err != nil {
		return nil, false, cost, err
	}
	eof := d.Bool()
	return d.OpaqueRef(), eof, cost, nil
}

// ReadStream reads up to chunks consecutive chunk-byte pieces of h starting
// at offset in one round trip — the pipelined window transfer behind the
// client's readahead. The reply concatenates the pieces; eof reports whether
// the file ended within the window. Like Read, the data is the reply frame's.
func (c Client) ReadStream(to simnet.Addr, h Handle, offset int64, chunk, chunks int) ([]byte, bool, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcReadStream, func(e *wire.Encoder) {
		putHandle(e, h)
		e.PutInt64(offset)
		e.PutUint32(uint32(chunk))
		e.PutUint32(uint32(chunks))
	})
	if err != nil {
		return nil, false, cost, err
	}
	eof := d.Bool()
	return d.OpaqueRef(), eof, cost, nil
}

// Write stores data into h at offset.
func (c Client) Write(to simnet.Addr, h Handle, offset int64, data []byte) (int, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcWrite, func(e *wire.Encoder) {
		putHandle(e, h)
		e.PutInt64(offset)
		e.PutOpaque(data)
	})
	if err != nil {
		return 0, cost, err
	}
	return int(d.Uint32()), cost, nil
}

// Create makes a regular file in dir.
func (c Client) Create(to simnet.Addr, dir Handle, name string, mode uint32, exclusive bool) (Handle, localfs.Attr, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcCreate, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
		e.PutUint32(mode)
		e.PutBool(exclusive)
	})
	if err != nil {
		return Handle{}, localfs.Attr{}, cost, err
	}
	h := getHandle(d)
	return h, getAttr(d), cost, nil
}

// Mkdir makes a directory in dir.
func (c Client) Mkdir(to simnet.Addr, dir Handle, name string, mode uint32) (Handle, localfs.Attr, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcMkdir, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
		e.PutUint32(mode)
	})
	if err != nil {
		return Handle{}, localfs.Attr{}, cost, err
	}
	h := getHandle(d)
	return h, getAttr(d), cost, nil
}

// Symlink makes a symbolic link in dir.
func (c Client) Symlink(to simnet.Addr, dir Handle, name, target string) (Handle, localfs.Attr, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcSymlink, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
		e.PutString(target)
	})
	if err != nil {
		return Handle{}, localfs.Attr{}, cost, err
	}
	h := getHandle(d)
	return h, getAttr(d), cost, nil
}

// Remove unlinks a file or symlink.
func (c Client) Remove(to simnet.Addr, dir Handle, name string) (simnet.Cost, error) {
	_, cost, err := c.call(to, ProcRemove, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
	})
	return cost, err
}

// Rmdir removes an empty directory.
func (c Client) Rmdir(to simnet.Addr, dir Handle, name string) (simnet.Cost, error) {
	_, cost, err := c.call(to, ProcRmdir, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
	})
	return cost, err
}

// Rename moves fromName in fromDir to toName in toDir on the same server.
func (c Client) Rename(to simnet.Addr, fromDir Handle, fromName string, toDir Handle, toName string) (simnet.Cost, error) {
	_, cost, err := c.call(to, ProcRename, func(e *wire.Encoder) {
		putHandle(e, fromDir)
		e.PutString(fromName)
		putHandle(e, toDir)
		e.PutString(toName)
	})
	return cost, err
}

// Readdir reads one page of directory entries starting at cookie; count 0
// means "all remaining".
func (c Client) Readdir(to simnet.Addr, dir Handle, cookie uint64, count int) ([]DirEntry, bool, uint64, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcReaddir, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutUint64(cookie)
		e.PutUint32(uint32(count))
	})
	if err != nil {
		return nil, false, 0, cost, err
	}
	eof := d.Bool()
	next := d.Uint64()
	n := d.ArrayLen()
	ents := make([]DirEntry, 0, n)
	for i := 0; i < n; i++ {
		ents = append(ents, DirEntry{
			Name: d.String(),
			Ino:  d.Uint64(),
			Type: localfs.FileType(d.Uint32()),
		})
	}
	if d.Err() != nil {
		return nil, false, 0, cost, fmt.Errorf("nfs READDIR: bad reply: %w", d.Err())
	}
	return ents, eof, next, cost, nil
}

// ReaddirAll drains a directory, issuing pages of pageSize entries.
func (c Client) ReaddirAll(to simnet.Addr, dir Handle, pageSize int) ([]DirEntry, simnet.Cost, error) {
	var all []DirEntry
	var total simnet.Cost
	var cookie uint64
	for {
		ents, eof, next, cost, err := c.Readdir(to, dir, cookie, pageSize)
		total = simnet.Seq(total, cost)
		if err != nil {
			return nil, total, err
		}
		all = append(all, ents...)
		if eof {
			return all, total, nil
		}
		cookie = next
	}
}

// ReaddirPlus reads one page of directory entries with handles and
// attributes, starting at cookie; count 0 means "all remaining".
func (c Client) ReaddirPlus(to simnet.Addr, dir Handle, cookie uint64, count int) ([]DirEntryPlus, bool, uint64, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcReaddirPlus, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutUint64(cookie)
		e.PutUint32(uint32(count))
	})
	if err != nil {
		return nil, false, 0, cost, err
	}
	eof := d.Bool()
	next := d.Uint64()
	n := d.ArrayLen()
	ents := make([]DirEntryPlus, 0, n)
	for i := 0; i < n; i++ {
		var ent DirEntryPlus
		ent.Name = d.String()
		ent.Ino = d.Uint64()
		ent.Type = localfs.FileType(d.Uint32())
		ent.FH = getHandle(d)
		ent.Attr = getAttr(d)
		ent.SymTarget = d.String()
		ents = append(ents, ent)
	}
	if d.Err() != nil {
		return nil, false, 0, cost, fmt.Errorf("nfs READDIRPLUS: bad reply: %w", d.Err())
	}
	return ents, eof, next, cost, nil
}

// ReaddirPlusAll drains a directory with READDIRPLUS pages of pageSize
// entries, returning every entry with its handle and attributes.
func (c Client) ReaddirPlusAll(to simnet.Addr, dir Handle, pageSize int) ([]DirEntryPlus, simnet.Cost, error) {
	var all []DirEntryPlus
	var total simnet.Cost
	var cookie uint64
	for {
		ents, eof, next, cost, err := c.ReaddirPlus(to, dir, cookie, pageSize)
		total = simnet.Seq(total, cost)
		if err != nil {
			return nil, total, err
		}
		all = append(all, ents...)
		if eof {
			return all, total, nil
		}
		cookie = next
	}
}

// FSStat fetches capacity accounting from the server exporting root.
func (c Client) FSStat(to simnet.Addr, root Handle) (FSStat, simnet.Cost, error) {
	d, cost, err := c.call(to, ProcFSStat, func(e *wire.Encoder) { putHandle(e, root) })
	if err != nil {
		return FSStat{}, cost, err
	}
	return FSStat{TotalBytes: d.Int64(), UsedBytes: d.Int64(), Files: d.Int64()}, cost, nil
}
