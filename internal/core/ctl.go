package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// CtlService is the administrative service every koshad exposes: path-based
// file operations executed through the node's own mount, so external tools
// (cmd/koshactl) can drive the virtual file system without joining the
// overlay themselves.
const CtlService = "koshactl"

// ctl procedure numbers.
const (
	ctlRead = iota + 1
	ctlWrite
	ctlList
	ctlMkdirAll
	ctlRemoveAll
	ctlStat
	ctlStatfs
	ctlPeers
	ctlStats
	ctlTrace
	ctlTraceFrag
	ctlSamples
	ctlSlow
)

// ctlMount returns the mount ctl file procedures run through, created on
// first use.
func (n *Node) ctlMount() *Mount {
	n.ctlOnce.Do(func() { n.ctlMnt = n.NewMount() })
	return n.ctlMnt
}

// AttachCtl registers the koshactl service on this node.
func (n *Node) AttachCtl() {
	n.net.RegisterCtx(n.addr, CtlService, n.serve(CtlService, ctlProcs))
}

// ctlHandler is the body of one ctl procedure. Every ctl request carries a
// vpath right after the procedure number ("" for node-level procedures); the
// decoder is positioned past it. The body encodes its success reply after a
// leading true; a returned error becomes the ctl failure reply.
type ctlHandler func(n *Node, vpath string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error)

// ctl adapts a ctl procedure body to a dispatch-table entry. It owns the
// reply convention: a request that did not decode aborts the RPC; a body that
// failed answers ok=false plus the message (the RPC itself still succeeds and
// the client surfaces the message as an error).
func ctl(name string, h ctlHandler) proc {
	return proc{name, func(n *Node, _ obs.TraceContext, _ simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
		vpath := d.String()
		if d.Err() != nil {
			return 0, d.Err()
		}
		e.PutBool(true)
		cost, err := h(n, vpath, d, e)
		if d.Err() != nil {
			return 0, d.Err()
		}
		if err != nil {
			e.Reset()
			e.PutBool(false)
			e.PutString(err.Error())
		}
		return cost, nil
	}}
}

// ctlJSON is ctl for the observability procedures, whose whole reply is one
// JSON document in an opaque. doc decodes its own arguments and builds the
// document; ctl refuses the request afterwards if they did not decode.
func ctlJSON(name string, doc func(n *Node, d *wire.Decoder) any) proc {
	return ctl(name, func(n *Node, _ string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
		b, err := json.Marshal(doc(n, d))
		e.PutOpaque(b)
		return 0, err
	})
}

// ctlProcs is the koshactl administrative service, dispatched through the
// same table mechanism as the kosha replication service.
var ctlProcs = serviceTable{
	ctlRead:      ctl("read", (*Node).ctlServeRead),
	ctlWrite:     ctl("write", (*Node).ctlServeWrite),
	ctlList:      ctl("list", (*Node).ctlServeList),
	ctlMkdirAll:  ctl("mkdir-all", (*Node).ctlServeMkdirAll),
	ctlRemoveAll: ctl("remove-all", (*Node).ctlServeRemoveAll),
	ctlStat:      ctl("stat", (*Node).ctlServeStat),
	ctlStatfs:    ctl("statfs", (*Node).ctlServeStatfs),
	ctlPeers:     ctl("peers", (*Node).ctlServePeers),
	ctlStats:     ctlJSON("stats", (*Node).ctlStatsDoc),
	ctlTrace:     ctlJSON("trace", (*Node).ctlTraceDoc),
	ctlTraceFrag: ctlJSON("trace-frag", (*Node).ctlTraceFragDoc),
	ctlSamples:   ctlJSON("samples", (*Node).ctlSamplesDoc),
	ctlSlow:      ctlJSON("slow", (*Node).ctlSlowDoc),
}

func (n *Node) ctlServeRead(vpath string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	data, cost, err := n.ctlMount().ReadFile(vpath)
	if err != nil {
		return cost, err
	}
	e.PutOpaque(data)
	return cost, nil
}

func (n *Node) ctlServeWrite(vpath string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	data := d.Opaque()
	if d.Err() != nil {
		return 0, d.Err()
	}
	return n.ctlMount().WriteFile(vpath, data)
}

func (n *Node) ctlServeList(vpath string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	m := n.ctlMount()
	vh, attr, cost, err := m.LookupPath(vpath)
	if err != nil {
		return cost, err
	}
	if attr.Type != localfs.TypeDir {
		return cost, fmt.Errorf("%s is not a directory", vpath)
	}
	ents, c, err := m.Readdir(vh)
	cost = simnet.Seq(cost, c)
	m.forget(vh)
	if err != nil {
		return cost, err
	}
	e.PutUint32(uint32(len(ents)))
	for _, ent := range ents {
		e.PutString(ent.Name)
		e.PutUint32(uint32(ent.Type))
	}
	return cost, nil
}

func (n *Node) ctlServeMkdirAll(vpath string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	m := n.ctlMount()
	vh, cost, err := m.MkdirAll(vpath)
	if err == nil {
		m.forget(vh)
	}
	return cost, err
}

func (n *Node) ctlServeRemoveAll(vpath string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	return n.ctlMount().RemoveAllPath(vpath)
}

func (n *Node) ctlServeStat(vpath string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	m := n.ctlMount()
	vh, attr, cost, err := m.LookupPath(vpath)
	if err != nil {
		return cost, err
	}
	m.forget(vh)
	e.PutUint32(uint32(attr.Type))
	e.PutUint32(attr.Mode)
	e.PutInt64(attr.Size)
	e.PutInt64(attr.Mtime.UnixNano())
	return cost, nil
}

func (n *Node) ctlServePeers(_ string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	peers := n.overlay.Known()
	e.PutUint32(uint32(len(peers)))
	for _, p := range peers {
		e.PutString(string(p.Addr))
		e.PutString(p.ID.String())
	}
	return 0, nil
}

func (n *Node) ctlServeStatfs(_ string, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	st, cost, err := n.store.Statfs()
	if err != nil {
		return cost, err
	}
	e.PutInt64(st.TotalBytes)
	e.PutInt64(st.UsedBytes)
	e.PutInt64(st.Files)
	e.PutString(n.overlay.Info().ID.String())
	e.PutUint32(uint32(len(n.overlay.Leaf())))
	return cost, nil
}

func (n *Node) ctlStatsDoc(*wire.Decoder) any {
	return StatsPayload{
		Addr:   string(n.addr),
		NodeID: n.overlay.Info().ID.String(),
		Stats:  n.reg.Snapshot(),
		Events: n.events.Snapshot(32),
	}
}

// ctlTraceDoc returns recent operation traces, newest first. The slices in
// these documents are never nil: an empty answer is [] on the wire, not null.
func (n *Node) ctlTraceDoc(d *wire.Decoder) any {
	return append([]obs.Trace{}, n.tracer.Recent(int(d.Uint32()))...)
}

// ctlTraceFragDoc returns this node's fragment of one distributed trace:
// the origin-side Trace if the op started here, plus every server span this
// node recorded for the 128-bit trace id. koshactl collects fragments from
// all live nodes and reassembles the causal tree.
func (n *Node) ctlTraceFragDoc(d *wire.Decoder) any {
	hi, lo := d.Uint64(), d.Uint64()
	p := TraceFragPayload{Node: string(n.addr), Spans: append([]obs.Span{}, n.tracer.SpansFor(hi, lo)...)}
	if tr, ok := n.tracer.FindTrace(hi, lo); ok {
		p.Origin = &tr
	}
	return p
}

// ctlSamplesDoc returns the node's retained time-series samples, oldest
// first; empty until the node's sampler has been started (koshad's
// -sampleevery flag or koshabench's -sample).
func (n *Node) ctlSamplesDoc(d *wire.Decoder) any {
	return append([]obs.Sample{}, n.sampler.Recent(int(d.Uint32()))...)
}

// ctlSlowDoc returns the slow-op flight recorder: traces whose total
// exceeded Config.SlowOpNS, kept in a ring the normal eviction never
// touches.
func (n *Node) ctlSlowDoc(d *wire.Decoder) any {
	return append([]obs.Trace{}, n.tracer.Slow(int(d.Uint32()))...)
}

// TraceFragPayload is one node's contribution to a distributed trace: the
// originating Trace (with its client-side stages) when the op began on that
// node, plus all server spans the node recorded under the trace id.
type TraceFragPayload struct {
	Node   string     `json:"node"`
	Origin *obs.Trace `json:"origin,omitempty"`
	Spans  []obs.Span `json:"spans"`
}

// StatsPayload is the JSON document ctlStats returns: one node's metrics
// registry snapshot plus its overlay-health event log.
type StatsPayload struct {
	Addr   string             `json:"addr"`
	NodeID string             `json:"node_id"`
	Stats  obs.Snapshot       `json:"stats"`
	Events obs.EventsSnapshot `json:"events"`
}

// CtlClient drives a remote koshad's ctl service.
type CtlClient struct {
	Net  simnet.Caller
	From simnet.Addr
	To   simnet.Addr
}

func (c *CtlClient) call(proc uint32, vpath string, extra func(*wire.Encoder)) (*wire.Decoder, simnet.Cost, error) {
	e := wire.NewEncoder(256)
	e.PutUint32(proc)
	e.PutString(vpath)
	if extra != nil {
		extra(e)
	}
	resp, cost, err := c.Net.CallCtx(obs.TraceContext{}, c.From, c.To, CtlService, e.Bytes())
	if err != nil {
		return nil, cost, err
	}
	d := wire.NewDecoder(resp)
	if ok := d.Bool(); !ok {
		msg := d.String()
		if d.Err() != nil {
			return nil, cost, d.Err()
		}
		return nil, cost, errors.New(msg) // the command prefixes its own name
	}
	return d, cost, nil
}

// ReadFile fetches a whole file.
func (c *CtlClient) ReadFile(vpath string) ([]byte, simnet.Cost, error) {
	d, cost, err := c.call(ctlRead, vpath, nil)
	if err != nil {
		return nil, cost, err
	}
	return d.Opaque(), cost, d.Err()
}

// WriteFile stores a whole file, creating ancestors.
func (c *CtlClient) WriteFile(vpath string, data []byte) (simnet.Cost, error) {
	_, cost, err := c.call(ctlWrite, vpath, func(e *wire.Encoder) { e.PutOpaque(data) })
	return cost, err
}

// List returns a directory listing.
func (c *CtlClient) List(vpath string) ([]DirEntry, simnet.Cost, error) {
	d, cost, err := c.call(ctlList, vpath, nil)
	if err != nil {
		return nil, cost, err
	}
	n := d.ArrayLen()
	out := make([]DirEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, DirEntry{Name: d.String(), Type: localfs.FileType(d.Uint32())})
	}
	return out, cost, d.Err()
}

// MkdirAll creates a directory path.
func (c *CtlClient) MkdirAll(vpath string) (simnet.Cost, error) {
	_, cost, err := c.call(ctlMkdirAll, vpath, nil)
	return cost, err
}

// RemoveAll removes a subtree.
func (c *CtlClient) RemoveAll(vpath string) (simnet.Cost, error) {
	_, cost, err := c.call(ctlRemoveAll, vpath, nil)
	return cost, err
}

// StatResult carries ctlStat's reply.
type StatResult struct {
	Type localfs.FileType
	Mode uint32
	Size int64
}

// Stat fetches entry attributes.
func (c *CtlClient) Stat(vpath string) (StatResult, simnet.Cost, error) {
	d, cost, err := c.call(ctlStat, vpath, nil)
	if err != nil {
		return StatResult{}, cost, err
	}
	var st StatResult
	st.Type = localfs.FileType(d.Uint32())
	st.Mode = d.Uint32()
	st.Size = d.Int64()
	return st, cost, d.Err()
}

// NodeStatus carries ctlStatfs's reply.
type NodeStatus struct {
	TotalBytes int64
	UsedBytes  int64
	Files      int64
	NodeID     string
	LeafSize   int
}

// Peer identifies one overlay member as seen by a node.
type Peer struct {
	Addr   simnet.Addr
	NodeID string
}

// Peers lists the overlay members the remote node knows about, used by
// koshactl to crawl the cluster.
func (c *CtlClient) Peers() ([]Peer, simnet.Cost, error) {
	d, cost, err := c.call(ctlPeers, "", nil)
	if err != nil {
		return nil, cost, err
	}
	n := d.ArrayLen()
	out := make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Peer{Addr: simnet.Addr(d.String()), NodeID: d.String()})
	}
	return out, cost, d.Err()
}

// callJSON is call for the observability procedures: the reply is one JSON
// document in an opaque, decoded into out.
func (c *CtlClient) callJSON(proc uint32, extra func(*wire.Encoder), out any) (simnet.Cost, error) {
	d, cost, err := c.call(proc, "", extra)
	if err != nil {
		return cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return cost, d.Err()
	}
	return cost, json.Unmarshal(raw, out)
}

// upTo encodes the "at most count, all when count <= 0" argument.
func upTo(count int) func(*wire.Encoder) {
	if count < 0 {
		count = 0
	}
	return func(e *wire.Encoder) { e.PutUint32(uint32(count)) }
}

// Stats fetches the remote node's metrics registry and event-log snapshot.
func (c *CtlClient) Stats() (p StatsPayload, cost simnet.Cost, err error) {
	cost, err = c.callJSON(ctlStats, nil, &p)
	return p, cost, err
}

// TraceDump fetches up to count recent operation traces from the remote
// node's ring buffer, newest first (count <= 0 means all retained).
func (c *CtlClient) TraceDump(count int) (traces []obs.Trace, cost simnet.Cost, err error) {
	cost, err = c.callJSON(ctlTrace, upTo(count), &traces)
	return traces, cost, err
}

// TraceFrag fetches one node's fragment of the distributed trace (hi, lo).
func (c *CtlClient) TraceFrag(hi, lo uint64) (p TraceFragPayload, cost simnet.Cost, err error) {
	cost, err = c.callJSON(ctlTraceFrag, func(e *wire.Encoder) {
		e.PutUint64(hi)
		e.PutUint64(lo)
	}, &p)
	return p, cost, err
}

// Samples fetches up to count retained time-series samples, oldest first
// (count <= 0 means all retained).
func (c *CtlClient) Samples(count int) (samples []obs.Sample, cost simnet.Cost, err error) {
	cost, err = c.callJSON(ctlSamples, upTo(count), &samples)
	return samples, cost, err
}

// SlowDump fetches up to count flight-recorded slow traces, newest first
// (count <= 0 means all retained).
func (c *CtlClient) SlowDump(count int) (traces []obs.Trace, cost simnet.Cost, err error) {
	cost, err = c.callJSON(ctlSlow, upTo(count), &traces)
	return traces, cost, err
}

// Status reports the remote node's store occupancy and overlay identity.
func (c *CtlClient) Status() (NodeStatus, simnet.Cost, error) {
	d, cost, err := c.call(ctlStatfs, "", nil)
	if err != nil {
		return NodeStatus{}, cost, err
	}
	var st NodeStatus
	st.TotalBytes = d.Int64()
	st.UsedBytes = d.Int64()
	st.Files = d.Int64()
	st.NodeID = d.String()
	st.LeafSize = int(d.Uint32())
	return st, cost, d.Err()
}
