package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
)

// StreamOptions parameterizes the large-file streaming experiment: one
// client scans a large file sequentially (and pokes it randomly), then
// writes a stream of small sequential WRITEs, once through the stop-and-wait
// baseline and once through the streaming data path (pipelined readahead
// windows, bounded write-back).
type StreamOptions struct {
	Nodes          int
	FileBytes      int // size of the scanned file
	ReadSize       int // bytes per client READ call (the kernel's rsize)
	Window         int // readahead window, in localfs.ReadUnit-sized chunks
	RandReads      int // random 64KiB reads after the sequential scan
	WriteCount     int // small sequential writes in the write phase
	WriteSize      int // bytes per write
	WriteBackBytes int // write-back high-water mark for the streamed arm
	Seed           uint64
}

// DefaultStreamOptions uses the acceptance shape: a 32 MiB scan with an
// 8-chunk window, and 128 4-KiB writes against a 64-KiB write-back buffer.
func DefaultStreamOptions() StreamOptions {
	return StreamOptions{
		Nodes:          5,
		FileBytes:      32 << 20,
		ReadSize:       1 << 20,
		Window:         8,
		RandReads:      16,
		WriteCount:     128,
		WriteSize:      4 << 10,
		WriteBackBytes: 64 << 10,
		Seed:           23,
	}
}

// QuickStreamOptions is the -quick shrink: an 8 MiB file and fewer reads
// and writes.
func QuickStreamOptions() StreamOptions {
	o := DefaultStreamOptions()
	o.FileBytes = 8 << 20
	o.RandReads = 8
	o.WriteCount = 64
	return o
}

// StreamResult compares the two data paths over the same workload.
type StreamResult struct {
	Nodes     int `json:"nodes"`
	FileBytes int `json:"file_bytes"`
	Window    int `json:"window"`

	SeqRPCsBase    uint64  `json:"seq_rpcs_base"`   // READ RPCs, stop-and-wait scan
	SeqRPCsStream  uint64  `json:"seq_rpcs_stream"` // READ RPCs, windowed scan
	ReadRPCRatio   float64 `json:"read_rpc_ratio"`  // base / stream
	SeqMBpsBase    float64 `json:"seq_mbps_base"`   // modeled sequential throughput
	SeqMBpsStream  float64 `json:"seq_mbps_stream"`
	RandRPCsBase   uint64  `json:"rand_rpcs_base"` // random reads stay one RPC each
	RandRPCsStream uint64  `json:"rand_rpcs_stream"`

	WriteRPCsBase   uint64  `json:"write_rpcs_base"` // kosha apply+mirror messages
	WriteRPCsStream uint64  `json:"write_rpcs_stream"`
	WriteRPCRatio   float64 `json:"write_rpc_ratio"` // base / stream
	WriteMBpsBase   float64 `json:"write_mbps_base"`
	WriteMBpsStream float64 `json:"write_mbps_stream"`

	ReadaheadHits uint64 `json:"readahead_hits"`
	WBCoalesced   uint64 `json:"wb_coalesced"`
	WBFlushes     uint64 `json:"wb_flushes"`

	opts StreamOptions // what the run used; the renderers read their headers from it
}

// dataRPCs sums the READs every node served: the client's forwarded READs
// and the readahead windows' segments.
func dataRPCs(c *cluster.Cluster) uint64 {
	var total uint64
	for _, nd := range c.Nodes {
		total += nd.NFSProcCount(nfs.ProcRead)
	}
	return total
}

// runStreamArm runs the whole workload through one configuration and
// reports (seqRPCs, seqCost, randRPCs, writeMsgs, writeCost).
func runStreamArm(opts StreamOptions, streamed bool) (res struct {
	SeqRPCs   uint64
	SeqCost   float64 // seconds
	RandRPCs  uint64
	WriteMsgs uint64
	WriteCost float64 // seconds
	RAHits    uint64
	WBCoal    uint64
	WBFlush   uint64
}, err error) {
	cfg := koshaCfg()
	// Both arms rotate reads across replica holders so the comparison
	// isolates streaming: the baseline spreads single READs, the streamed
	// arm fans whole window segments out bitswap-style.
	cfg.ReadFromReplicas = true
	if streamed {
		cfg.ReadaheadChunks = opts.Window
		cfg.WriteBackBytes = opts.WriteBackBytes
	}
	c, err2 := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
	if err2 != nil {
		return res, err2
	}

	seed := c.Mount(0)
	payload := make([]byte, opts.FileBytes)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if _, err2 := seed.WriteFile("/stream00/big.bin", payload); err2 != nil {
		return res, fmt.Errorf("populate: %w", err2)
	}
	c.Stabilize()

	// Scan from a node that does not hold the primary copy, so the baseline
	// pays the network like the paper's remote client does.
	pl, _, err2 := c.Nodes[0].ResolvePath("/stream00")
	if err2 != nil {
		return res, fmt.Errorf("resolve: %w", err2)
	}
	client := c.Nodes[0]
	for _, nd := range c.Nodes {
		if nd.Addr() != pl.Node {
			client = nd
			break
		}
	}
	m := client.NewMount()

	// --- sequential scan ---
	fvh, _, _, err2 := m.LookupPath("/stream00/big.bin")
	if err2 != nil {
		return res, err2
	}
	before := dataRPCs(c)
	var scanned int
	var seqCost float64
	for off := int64(0); ; {
		data, eof, cost, err3 := m.Read(fvh, off, opts.ReadSize)
		if err3 != nil {
			return res, fmt.Errorf("seq read at %d: %w", off, err3)
		}
		scanned += len(data)
		seqCost += float64(cost) / 1e9
		off += int64(len(data))
		if eof || len(data) == 0 {
			break
		}
	}
	if scanned != opts.FileBytes {
		return res, fmt.Errorf("scan returned %d of %d bytes", scanned, opts.FileBytes)
	}
	res.SeqRPCs = dataRPCs(c) - before
	res.SeqCost = seqCost

	// --- random pokes (readahead must not help or hurt) ---
	before = dataRPCs(c)
	rng := opts.Seed*2654435761 + 1
	for i := 0; i < opts.RandReads; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		off := int64(rng % uint64(opts.FileBytes-(64<<10)))
		if _, _, _, err3 := m.Read(fvh, off, 64<<10); err3 != nil {
			return res, fmt.Errorf("rand read: %w", err3)
		}
	}
	res.RandRPCs = dataRPCs(c) - before
	m.Forget(fvh)

	// --- small sequential writes ---
	dvh, _, _, err2 := m.LookupPath("/stream00")
	if err2 != nil {
		return res, err2
	}
	wvh, _, _, err2 := m.Create(dvh, "out.bin", 0o644, false)
	if err2 != nil {
		return res, err2
	}
	chunk := make([]byte, opts.WriteSize)
	msgsBefore := c.Net.ServiceStats(core.KoshaService).Messages
	var wrCost float64
	for i := 0; i < opts.WriteCount; i++ {
		_, cost, err3 := m.Write(wvh, int64(i*opts.WriteSize), chunk)
		if err3 != nil {
			return res, fmt.Errorf("write %d: %w", i, err3)
		}
		wrCost += float64(cost) / 1e9
	}
	cost, err2 := m.Close(wvh)
	if err2 != nil {
		return res, fmt.Errorf("close: %w", err2)
	}
	wrCost += float64(cost) / 1e9
	res.WriteMsgs = c.Net.ServiceStats(core.KoshaService).Messages - msgsBefore
	res.WriteCost = wrCost

	snap := client.Obs().Snapshot().Counters
	res.RAHits = snap["io.readahead.hits"]
	res.WBCoal = snap["io.writeback.coalesced"]
	res.WBFlush = snap["io.writeback.flushes"]
	return res, nil
}

// RunStream measures both data paths over the same workload.
func RunStream(opts StreamOptions) (*StreamResult, error) {
	base, err := runStreamArm(opts, false)
	if err != nil {
		return nil, fmt.Errorf("baseline arm: %w", err)
	}
	str, err := runStreamArm(opts, true)
	if err != nil {
		return nil, fmt.Errorf("streamed arm: %w", err)
	}
	mbps := func(bytes int, secs float64) float64 {
		if secs <= 0 {
			return 0
		}
		return float64(bytes) / (1 << 20) / secs
	}
	res := &StreamResult{
		opts:            opts,
		Nodes:           opts.Nodes,
		FileBytes:       opts.FileBytes,
		Window:          opts.Window,
		SeqRPCsBase:     base.SeqRPCs,
		SeqRPCsStream:   str.SeqRPCs,
		SeqMBpsBase:     mbps(opts.FileBytes, base.SeqCost),
		SeqMBpsStream:   mbps(opts.FileBytes, str.SeqCost),
		RandRPCsBase:    base.RandRPCs,
		RandRPCsStream:  str.RandRPCs,
		WriteRPCsBase:   base.WriteMsgs,
		WriteRPCsStream: str.WriteMsgs,
		WriteMBpsBase:   mbps(opts.WriteCount*opts.WriteSize, base.WriteCost),
		WriteMBpsStream: mbps(opts.WriteCount*opts.WriteSize, str.WriteCost),
		ReadaheadHits:   str.RAHits,
		WBCoalesced:     str.WBCoal,
		WBFlushes:       str.WBFlush,
	}
	if str.SeqRPCs > 0 {
		res.ReadRPCRatio = float64(base.SeqRPCs) / float64(str.SeqRPCs)
	}
	if str.WriteMsgs > 0 {
		res.WriteRPCRatio = float64(base.WriteMsgs) / float64(str.WriteMsgs)
	}
	return res, nil
}

// Fprint renders the comparison as a text table.
func (r *StreamResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Streaming I/O over a %d MiB file, %d nodes (window %d x %d KiB, write-back %d KiB)\n",
		r.FileBytes>>20, r.Nodes, r.Window, localfs.ReadUnit>>10, r.opts.WriteBackBytes>>10)
	fmt.Fprintf(w, "%-28s %14s %14s\n", "metric", "stop-and-wait", "streamed")
	fmt.Fprintf(w, "%-28s %14d %14d\n", "sequential-read data RPCs", r.SeqRPCsBase, r.SeqRPCsStream)
	fmt.Fprintf(w, "%-28s %14.1f %14.1f\n", "sequential MB/s (modeled)", r.SeqMBpsBase, r.SeqMBpsStream)
	fmt.Fprintf(w, "%-28s %14d %14d\n", "random-read data RPCs", r.RandRPCsBase, r.RandRPCsStream)
	fmt.Fprintf(w, "%-28s %14d %14d\n", "write RPC messages", r.WriteRPCsBase, r.WriteRPCsStream)
	fmt.Fprintf(w, "%-28s %14.1f %14.1f\n", "write MB/s (modeled)", r.WriteMBpsBase, r.WriteMBpsStream)
	fmt.Fprintf(w, "readahead cut data RPCs %.1fx; write-back cut write RPCs %.1fx (%d writes -> %d flushes)\n",
		r.ReadRPCRatio, r.WriteRPCRatio, r.WBCoalesced, r.WBFlushes)
}

// FprintCSV renders the comparison as CSV.
func (r *StreamResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "arm,seq_rpcs,seq_mbps,rand_rpcs,write_rpcs,write_mbps")
	fmt.Fprintf(w, "base,%d,%.2f,%d,%d,%.2f\n", r.SeqRPCsBase, r.SeqMBpsBase, r.RandRPCsBase, r.WriteRPCsBase, r.WriteMBpsBase)
	fmt.Fprintf(w, "stream,%d,%.2f,%d,%d,%.2f\n", r.SeqRPCsStream, r.SeqMBpsStream, r.RandRPCsStream, r.WriteRPCsStream, r.WriteMBpsStream)
}
