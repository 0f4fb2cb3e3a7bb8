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
//
// A call allocates no object of its own: the request is encoded into a
// wire.Codec from the pool (wire.GetCodec), whose array holds a head of up to
// 264 bytes and whose records hold the one body a WRITE lends or the sink a
// READ lends; only a larger head grows a frame of its own. The request frame
// is lent for the call (wire.Lend), so WRITE data goes out from the caller's
// buffer, and the Codec's decoder reads the reply frame wire.ReplyOf gives,
// so READ data the server put in the sink is read there. The caller frees
// the Codec it is handed with that decoder once it has decoded the reply;
// the reply itself, and any data aliasing it, stays the caller's. A call
// that gets no status back frees the Codec itself and returns nil for both.
func (c Client) call(to simnet.Addr, proc Proc, build func(*wire.Encoder)) (*wire.Codec, *wire.Decoder, simnet.Cost, error) {
	x := wire.GetCodec()
	e := &x.E
	e.PutUint32(uint32(proc))
	e.PutUint64(c.s.xid.Add(1))
	if build != nil {
		build(e)
	}
	lat := c.proc(proc)
	c.s.rpcs.Add(1)
	f := e.Frame()
	c.s.bytes.Add(uint64(f.Len()))
	req := wire.Lend(f)
	resp, cost, err := c.s.net.CallCtx(c.tc, c.s.from, to, Service, req)
	reply := wire.ReplyOf(req, resp)
	wire.EndLend(f)
	lat.Observe(time.Duration(cost))
	c.s.bytes.Add(uint64(reply.Len()))
	if err != nil {
		x.Free()
		return nil, nil, cost, fmt.Errorf("nfs %s to %s: %w", proc, to, err)
	}
	d := &x.D
	d.ResetFrame(reply)
	st := Status(d.Uint32())
	if d.Err() != nil {
		err := d.Err()
		x.Free()
		return nil, nil, cost, fmt.Errorf("nfs %s to %s: bad reply: %w", proc, to, err)
	}
	if st != OK {
		return x, d, cost, &Error{Proc: proc, Status: st}
	}
	return x, d, cost, nil
}

// MountRoot fetches the export's root handle (the MOUNT protocol's MNT).
func (c Client) MountRoot(to simnet.Addr) (Handle, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcMountRoot, nil)
	defer x.Free()
	if err != nil {
		return Handle{}, cost, err
	}
	return getHandle(d), cost, nil
}

// Getattr fetches attributes for h.
func (c Client) Getattr(to simnet.Addr, h Handle) (localfs.Attr, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcGetattr, func(e *wire.Encoder) { putHandle(e, h) })
	defer x.Free()
	if err != nil {
		return localfs.Attr{}, cost, err
	}
	return GetAttr(d), cost, nil
}

// Lookup resolves name within directory dir.
func (c Client) Lookup(to simnet.Addr, dir Handle, name string) (Handle, localfs.Attr, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcLookup, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
	})
	defer x.Free()
	if err != nil {
		return Handle{}, localfs.Attr{}, cost, err
	}
	h := getHandle(d)
	return h, GetAttr(d), cost, nil
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
	return c.WalkParts(to, start, readMax, p)
}

// WalkParts is Walk for a path held in parts, such as a storage root and
// the tail below it: the components are each part's in turn, so the request
// is byte for byte Walk's of the parts joined with slashes, and no joined
// string is built.
func (c Client) WalkParts(to simnet.Addr, start Handle, readMax uint32, parts ...string) (Walked, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcLookupPath, func(e *wire.Encoder) {
		putHandle(e, start)
		putPath(e, parts...)
		if readMax > 0 {
			e.PutUint32(readMax)
		}
	})
	defer x.Free()
	if d == nil {
		return Walked{}, cost, err
	}
	w := Walked{Resolved: int(d.Uint32()), FH: getHandle(d)}
	if err == nil {
		w.Attr = GetAttr(d)
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

// Readlink returns the target of symlink h.
func (c Client) Readlink(to simnet.Addr, h Handle) (string, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcReadlink, func(e *wire.Encoder) { putHandle(e, h) })
	defer x.Free()
	if err != nil {
		return "", cost, err
	}
	return d.String(), cost, nil
}

// Read returns up to count bytes of h at offset. The data is the reply
// frame's own bytes, handed to the caller: nothing else holds the frame.
func (c Client) Read(to simnet.Addr, h Handle, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	return c.ReadInto(to, h, offset, count, nil)
}

// ReadInto appends up to count bytes of h at offset to dst and returns the
// extended slice, as append does. dst's spare capacity is lent to the
// request as its sink (wire.Encoder.LendSink): a server that shares the
// caller's memory and finds room there for the bytes it reads puts them
// straight into it, and any other reply's bytes are copied in, so over
// tcpnet it is one copy out of the reply frame. With a nil dst nothing is
// lent and the data is the reply frame's own bytes, as Read's. A reply
// longer than count is a bad reply and leaves dst's storage untouched.
func (c Client) ReadInto(to simnet.Addr, h Handle, offset int64, count int, dst []byte) ([]byte, bool, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcRead, func(e *wire.Encoder) {
		putHandle(e, h)
		e.PutInt64(offset)
		e.PutUint32(uint32(count))
		if dst != nil {
			e.LendSink(dst)
		}
	})
	defer x.Free()
	if err != nil {
		return dst, false, cost, err
	}
	eof := d.Bool()
	data := d.OpaqueRef()
	if d.Err() != nil {
		return dst, false, cost, fmt.Errorf("nfs READ to %s: bad reply: %w", to, d.Err())
	}
	if len(data) > count {
		return dst, false, cost, fmt.Errorf("nfs READ to %s: bad reply: %d bytes for a count of %d", to, len(data), count)
	}
	if dst == nil {
		return data, eof, cost, nil
	}
	if n := len(dst); len(data) > 0 && n < cap(dst) && &data[0] == &dst[:n+1][n] {
		return dst[:n+len(data)], eof, cost, nil // the server filled the sink
	}
	return append(dst, data...), eof, cost, nil
}

// Write stores data into h at offset. data is lent to the request frame,
// not copied: it must not change until Write returns.
func (c Client) Write(to simnet.Addr, h Handle, offset int64, data []byte) (int, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcWrite, func(e *wire.Encoder) {
		putHandle(e, h)
		e.PutInt64(offset)
		e.PutOpaqueRef(data)
	})
	defer x.Free()
	if err != nil {
		return 0, cost, err
	}
	return int(d.Uint32()), cost, nil
}

// Create makes a regular file in dir.
func (c Client) Create(to simnet.Addr, dir Handle, name string, mode uint32, exclusive bool) (Handle, localfs.Attr, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcCreate, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
		e.PutUint32(mode)
		e.PutBool(exclusive)
	})
	defer x.Free()
	if err != nil {
		return Handle{}, localfs.Attr{}, cost, err
	}
	h := getHandle(d)
	return h, GetAttr(d), cost, nil
}

// Mkdir makes a directory in dir.
func (c Client) Mkdir(to simnet.Addr, dir Handle, name string, mode uint32) (Handle, localfs.Attr, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcMkdir, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
		e.PutUint32(mode)
	})
	defer x.Free()
	if err != nil {
		return Handle{}, localfs.Attr{}, cost, err
	}
	h := getHandle(d)
	return h, GetAttr(d), cost, nil
}

// Remove unlinks a file or symlink.
func (c Client) Remove(to simnet.Addr, dir Handle, name string) (simnet.Cost, error) {
	x, _, cost, err := c.call(to, ProcRemove, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
	})
	x.Free()
	return cost, err
}

// Rmdir removes an empty directory.
func (c Client) Rmdir(to simnet.Addr, dir Handle, name string) (simnet.Cost, error) {
	x, _, cost, err := c.call(to, ProcRmdir, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutString(name)
	})
	x.Free()
	return cost, err
}

// Rename moves fromName in fromDir to toName in toDir on the same server.
func (c Client) Rename(to simnet.Addr, fromDir Handle, fromName string, toDir Handle, toName string) (simnet.Cost, error) {
	x, _, cost, err := c.call(to, ProcRename, func(e *wire.Encoder) {
		putHandle(e, fromDir)
		e.PutString(fromName)
		putHandle(e, toDir)
		e.PutString(toName)
	})
	x.Free()
	return cost, err
}

// ReaddirPlus reads one page of directory entries with handles and
// attributes, starting at cookie; count 0 means "all remaining". Each
// entry's Name and SymTarget are views of the reply frame
// (wire.Decoder.StringRef), which is the caller's and which nothing else
// holds or reuses, as Walk's and Read's data are: a page allocates its entry
// slice and nothing per entry, and a name kept keeps its page's frame.
func (c Client) ReaddirPlus(to simnet.Addr, dir Handle, cookie uint64, count int) ([]DirEntryPlus, bool, uint64, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcReaddirPlus, func(e *wire.Encoder) {
		putHandle(e, dir)
		e.PutUint64(cookie)
		e.PutUint32(uint32(count))
	})
	defer x.Free()
	if err != nil {
		return nil, false, 0, cost, err
	}
	eof := d.Bool()
	next := d.Uint64()
	n := d.ArrayLen()
	ents := make([]DirEntryPlus, 0, n)
	for i := 0; i < n; i++ {
		var ent DirEntryPlus
		ent.Name = d.StringRef()
		ent.Ino = d.Uint64()
		ent.Type = localfs.FileType(d.Uint32())
		ent.FH = getHandle(d)
		ent.Attr = GetAttr(d)
		ent.SymTarget = d.StringRef()
		ents = append(ents, ent)
	}
	if d.Err() != nil {
		return nil, false, 0, cost, fmt.Errorf("nfs READDIRPLUS: bad reply: %w", d.Err())
	}
	return ents, eof, next, cost, nil
}

// ReaddirPlusAll drains a directory with READDIRPLUS pages of pageSize
// entries, returning every entry with its handle and attributes. A listing
// that fits one page is that page's slice as decoded, not a copy of it.
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
		if all == nil {
			all = ents
		} else {
			all = append(all, ents...)
		}
		if eof {
			return all, total, nil
		}
		cookie = next
	}
}

// FSStat fetches capacity accounting from the server exporting root.
func (c Client) FSStat(to simnet.Addr, root Handle) (FSStat, simnet.Cost, error) {
	x, d, cost, err := c.call(to, ProcFSStat, func(e *wire.Encoder) { putHandle(e, root) })
	defer x.Free()
	if err != nil {
		return FSStat{}, cost, err
	}
	return FSStat{TotalBytes: d.Int64(), UsedBytes: d.Int64(), Files: d.Int64()}, cost, nil
}
