package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

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

// ctlOnce lazily attaches the ctl handler's mount.
type ctlState struct {
	once  sync.Once
	mount *Mount
}

var ctlMounts sync.Map // *Node -> *ctlState

func (n *Node) ctlMount() *Mount {
	v, _ := ctlMounts.LoadOrStore(n, &ctlState{})
	st := v.(*ctlState)
	st.once.Do(func() { st.mount = n.NewMount() })
	return st.mount
}

// AttachCtl registers the koshactl service on this node.
func (n *Node) AttachCtl() {
	n.net.Register(n.addr, CtlService, n.handleCtl)
}

// ctlProcs is the koshactl administrative service, dispatched through the
// same typed table mechanism as the kosha replication service. Every ctl
// request carries a vpath argument right after the procedure number (""
// for node-level procedures); handlers decode it themselves.
var ctlProcs = serviceTable{
	ctlRead:      (*Node).ctlServeRead,
	ctlWrite:     (*Node).ctlServeWrite,
	ctlList:      (*Node).ctlServeList,
	ctlMkdirAll:  (*Node).ctlServeMkdirAll,
	ctlRemoveAll: (*Node).ctlServeRemoveAll,
	ctlStat:      (*Node).ctlServeStat,
	ctlStatfs:    (*Node).ctlServeStatfs,
	ctlPeers:     (*Node).ctlServePeers,
	ctlStats:     (*Node).ctlServeStats,
	ctlTrace:     (*Node).ctlServeTrace,
	ctlTraceFrag: (*Node).ctlServeTraceFrag,
	ctlSamples:   (*Node).ctlServeSamples,
	ctlSlow:      (*Node).ctlServeSlow,
}

func (n *Node) handleCtl(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
	return n.dispatch(ctlProcs, "koshactl", obs.TraceContext{}, from, req)
}

// ctlFail encodes the ctl failure convention: ok=false plus a message. The
// RPC itself still succeeds; the client surfaces the message as an error.
func ctlFail(e *wire.Encoder, err error) {
	e.Reset()
	e.PutBool(false)
	e.PutString(err.Error())
}

func (n *Node) ctlServeRead(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	data, cost, err := n.ctlMount().ReadFile(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	e.PutOpaque(data)
	return cost, nil
}

func (n *Node) ctlServeWrite(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	data := d.Opaque()
	if d.Err() != nil {
		return 0, d.Err()
	}
	cost, err := n.ctlMount().WriteFile(vpath, data)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	return cost, nil
}

func (n *Node) ctlServeList(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	m := n.ctlMount()
	vh, attr, cost, err := m.LookupPath(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	if attr.Type != localfs.TypeDir {
		ctlFail(e, fmt.Errorf("%s is not a directory", vpath))
		return cost, nil
	}
	ents, c, err := m.Readdir(vh)
	cost = simnet.Seq(cost, c)
	m.forget(vh)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	e.PutUint32(uint32(len(ents)))
	for _, ent := range ents {
		e.PutString(ent.Name)
		e.PutUint32(uint32(ent.Type))
	}
	return cost, nil
}

func (n *Node) ctlServeMkdirAll(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	m := n.ctlMount()
	vh, cost, err := m.MkdirAll(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	m.forget(vh)
	e.PutBool(true)
	return cost, nil
}

func (n *Node) ctlServeRemoveAll(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	cost, err := n.ctlMount().RemoveAllPath(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	return cost, nil
}

func (n *Node) ctlServeStat(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	m := n.ctlMount()
	vh, attr, cost, err := m.LookupPath(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	m.forget(vh)
	e.PutBool(true)
	e.PutUint32(uint32(attr.Type))
	e.PutUint32(attr.Mode)
	e.PutInt64(attr.Size)
	e.PutInt64(attr.Mtime.UnixNano())
	return cost, nil
}

func (n *Node) ctlServePeers(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused by node-level procedures
	if d.Err() != nil {
		return 0, d.Err()
	}
	e.PutBool(true)
	peers := n.overlay.Known()
	e.PutUint32(uint32(len(peers)))
	for _, p := range peers {
		e.PutString(string(p.Addr))
		e.PutString(p.ID.String())
	}
	return 0, nil
}

func (n *Node) ctlServeStatfs(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused by node-level procedures
	if d.Err() != nil {
		return 0, d.Err()
	}
	st, cost, err := n.store.Statfs()
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	e.PutInt64(st.TotalBytes)
	e.PutInt64(st.UsedBytes)
	e.PutInt64(st.Files)
	e.PutString(n.overlay.Info().ID.String())
	e.PutUint32(uint32(len(n.overlay.Leaf())))
	return cost, nil
}

func (n *Node) ctlServeStats(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused by node-level procedures
	if d.Err() != nil {
		return 0, d.Err()
	}
	p := StatsPayload{
		Addr:   string(n.addr),
		NodeID: n.overlay.Info().ID.String(),
		Stats:  n.reg.Snapshot(),
		Events: n.events.Snapshot(32),
	}
	b, err := json.Marshal(p)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

func (n *Node) ctlServeTrace(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused
	count := int(d.Uint32())
	if d.Err() != nil {
		return 0, d.Err()
	}
	traces := n.tracer.Recent(count)
	if traces == nil {
		traces = []obs.Trace{}
	}
	b, err := json.Marshal(traces)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

// ctlServeTraceFrag returns this node's fragment of one distributed trace:
// the origin-side Trace if the op started here, plus every server span this
// node recorded for the 128-bit trace id. koshactl collects fragments from
// all live nodes and reassembles the causal tree.
func (n *Node) ctlServeTraceFrag(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused
	hi := d.Uint64()
	lo := d.Uint64()
	if d.Err() != nil {
		return 0, d.Err()
	}
	var p TraceFragPayload
	p.Node = string(n.addr)
	if tr, ok := n.tracer.FindTrace(hi, lo); ok {
		p.Origin = &tr
	}
	p.Spans = n.tracer.SpansFor(hi, lo)
	if p.Spans == nil {
		p.Spans = []obs.SpanRecord{}
	}
	b, err := json.Marshal(p)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

// ctlServeSamples returns the node's retained time-series samples, oldest
// first; empty until the node's sampler has been started (koshad's
// -sampleevery flag or koshabench's -sample).
func (n *Node) ctlServeSamples(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused
	count := int(d.Uint32())
	if d.Err() != nil {
		return 0, d.Err()
	}
	samples := n.sampler.Recent(count)
	if samples == nil {
		samples = []obs.Sample{}
	}
	b, err := json.Marshal(samples)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

// ctlServeSlow returns the slow-op flight recorder: traces whose total
// exceeded Config.SlowOpNS, kept in a ring the normal eviction never
// touches.
func (n *Node) ctlServeSlow(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused
	count := int(d.Uint32())
	if d.Err() != nil {
		return 0, d.Err()
	}
	traces := n.tracer.Slow(count)
	if traces == nil {
		traces = []obs.Trace{}
	}
	b, err := json.Marshal(traces)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

// TraceFragPayload is one node's contribution to a distributed trace: the
// originating Trace when the op began on that node, plus all server spans
// the node recorded under the trace id.
type TraceFragPayload struct {
	Node   string           `json:"node"`
	Origin *obs.Trace       `json:"origin,omitempty"`
	Spans  []obs.SpanRecord `json:"spans"`
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
	resp, cost, err := c.Net.Call(c.From, c.To, CtlService, e.Bytes())
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

// Stats fetches the remote node's metrics registry and event-log snapshot.
func (c *CtlClient) Stats() (StatsPayload, simnet.Cost, error) {
	d, cost, err := c.call(ctlStats, "", nil)
	if err != nil {
		return StatsPayload{}, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return StatsPayload{}, cost, d.Err()
	}
	var p StatsPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return StatsPayload{}, cost, err
	}
	return p, cost, nil
}

// TraceDump fetches up to count recent operation traces from the remote
// node's ring buffer, newest first (count <= 0 means all retained).
func (c *CtlClient) TraceDump(count int) ([]obs.Trace, simnet.Cost, error) {
	if count < 0 {
		count = 0
	}
	d, cost, err := c.call(ctlTrace, "", func(e *wire.Encoder) { e.PutUint32(uint32(count)) })
	if err != nil {
		return nil, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	var traces []obs.Trace
	if err := json.Unmarshal(raw, &traces); err != nil {
		return nil, cost, err
	}
	return traces, cost, nil
}

// TraceFrag fetches one node's fragment of the distributed trace (hi, lo).
func (c *CtlClient) TraceFrag(hi, lo uint64) (TraceFragPayload, simnet.Cost, error) {
	d, cost, err := c.call(ctlTraceFrag, "", func(e *wire.Encoder) {
		e.PutUint64(hi)
		e.PutUint64(lo)
	})
	if err != nil {
		return TraceFragPayload{}, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return TraceFragPayload{}, cost, d.Err()
	}
	var p TraceFragPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return TraceFragPayload{}, cost, err
	}
	return p, cost, nil
}

// Samples fetches up to count retained time-series samples, oldest first
// (count <= 0 means all retained).
func (c *CtlClient) Samples(count int) ([]obs.Sample, simnet.Cost, error) {
	if count < 0 {
		count = 0
	}
	d, cost, err := c.call(ctlSamples, "", func(e *wire.Encoder) { e.PutUint32(uint32(count)) })
	if err != nil {
		return nil, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	var samples []obs.Sample
	if err := json.Unmarshal(raw, &samples); err != nil {
		return nil, cost, err
	}
	return samples, cost, nil
}

// SlowDump fetches up to count flight-recorded slow traces, newest first
// (count <= 0 means all retained).
func (c *CtlClient) SlowDump(count int) ([]obs.Trace, simnet.Cost, error) {
	if count < 0 {
		count = 0
	}
	d, cost, err := c.call(ctlSlow, "", func(e *wire.Encoder) { e.PutUint32(uint32(count)) })
	if err != nil {
		return nil, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	var traces []obs.Trace
	if err := json.Unmarshal(raw, &traces); err != nil {
		return nil, cost, err
	}
	return traces, cost, nil
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
