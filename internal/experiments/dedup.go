package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// DedupOptions parameterizes the content-addressed chunk-store experiment:
// several users publish duplicate-heavy trees (many files drawn from a small
// payload pool), one big file takes a one-chunk edit, and a primary crash
// forces a promote repair. The three arms measure what the chunk store buys
// in each case: index dedup, sync bytes, and promote-repair fetch bytes — the
// last two against the content a whole-file copy of the big file must move.
type DedupOptions struct {
	Nodes            int
	Users            int // duplicate-heavy trees, one per user
	FilesPerUser     int // files per tree
	DistinctPayloads int // payload pool the files cycle through
	FileSize         int // bytes per duplicate-heavy file
	EditFileSize     int // bytes of the big file the edit/promote arms touch
	Seed             uint64
}

// DefaultDedupOptions uses the acceptance shape: a >=2x-duplicated corpus
// and a 16-byte edit in a 4 MiB file.
func DefaultDedupOptions() DedupOptions {
	return DedupOptions{
		Nodes:            4,
		Users:            3,
		FilesPerUser:     12,
		DistinctPayloads: 3,
		FileSize:         128 << 10,
		EditFileSize:     4 << 20,
		Seed:             29,
	}
}

// QuickDedupOptions is the -quick shrink: a smaller corpus and a 1 MiB
// edited file.
func QuickDedupOptions() DedupOptions {
	o := DefaultDedupOptions()
	o.Users = 2
	o.FilesPerUser = 8
	o.FileSize = 64 << 10
	o.EditFileSize = 1 << 20
	return o
}

// DedupResult carries all three measurements.
type DedupResult struct {
	Nodes            int   `json:"nodes"`
	Users            int   `json:"users"`
	FilesPerUser     int   `json:"files_per_user"`
	DistinctPayloads int   `json:"distinct_payloads"`
	FileSize         int   `json:"file_size"`
	LogicalBytes     int64 `json:"logical_bytes"` // bytes the indexed files hold
	StoredBytes      int64 `json:"stored_bytes"`  // bytes of distinct blocks behind them
	// DedupRatio is LogicalBytes/StoredBytes over every node's block index.
	DedupRatio float64 `json:"dedup_ratio"`

	EditFileSize   int     `json:"edit_file_size"`
	EditFullBytes  uint64  `json:"edit_full_bytes"`  // EditFileSize: what a whole-file refresh ships, before framing
	EditDeltaBytes uint64  `json:"edit_delta_bytes"` // the refresh's pull of the same edit, kosha bytes both ways
	EditDeltaPct   float64 `json:"edit_delta_pct"`   // delta as % of whole-file

	PromoteFullBytes  uint64  `json:"promote_full_bytes"`  // EditFileSize: what a whole-file promote repair fetches
	PromoteDeltaBytes uint64  `json:"promote_delta_bytes"` // fetch bytes of the block-level repair
	PromoteDeltaPct   float64 `json:"promote_delta_pct"`
}

// dedupPayload deterministically fills n bytes from a seeded LCG; distinct
// seeds give chunk-wise unrelated payloads, equal seeds byte-identical ones.
func dedupPayload(n int, seed uint64) []byte {
	b := make([]byte, n)
	s := seed*0x9e3779b97f4a7c15 + 1
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = byte(s >> 33)
	}
	return b
}

// spliceEdit returns data with a 16-byte marker written at off — the
// "one chunk changed" mutation the edit and promote arms use.
func spliceEdit(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	copy(out[off:], "EDITED-SIXTEEN-B")
	return out
}

// primaryOf locates the cluster node that owns vpath.
func primaryOf(c *cluster.Cluster, vpath string) (*core.Node, int, error) {
	pl, _, err := c.Nodes[0].ResolvePath(vpath)
	if err != nil {
		return nil, 0, fmt.Errorf("resolve %s: %w", vpath, err)
	}
	for i, nd := range c.Nodes {
		if nd.Addr() == pl.Node {
			return nd, i, nil
		}
	}
	return nil, 0, fmt.Errorf("primary %s not in cluster", pl.Node)
}

// staleWrite rewrites the file at vpath on its tree's primary while the link
// between the primary and one of its replica candidates is cut: the primary
// applies the write and bumps its version, the mirror is dropped, and that
// candidate is stale by exactly this write. The candidate chosen is the one
// closest to the tree's key — the node that inherits the root if the primary
// dies, so a promote afterwards has a repair to do. The link is then healed
// and only the overlay repaired: a full Stabilize would run everyone's
// replica sync and converge the tree before the measured refresh. stale is
// the candidate's address.
func staleWrite(c *cluster.Cluster, replicas int, vpath string, data []byte) (primary *core.Node, pi int, stale simnet.Addr, err error) {
	pn := strings.SplitN(vpath, "/", 3)[1]
	primary, pi, err = primaryOf(c, "/"+pn)
	if err != nil {
		return nil, 0, "", err
	}
	cands := primary.Overlay().ReplicaCandidates(replicas)
	if len(cands) < replicas {
		return nil, 0, "", fmt.Errorf("primary %s has %d replica candidates, want %d", primary.Addr(), len(cands), replicas)
	}
	ids := make([]id.ID, len(cands))
	for i, cd := range cands {
		ids[i] = cd.ID
	}
	best, _ := id.Closest(core.Key(pn), ids)
	stale = cands[0].Addr
	for _, cd := range cands {
		if cd.ID == best {
			stale = cd.Addr
		}
	}
	c.Net.SetPartition(func(a, b simnet.Addr) bool {
		return (a == primary.Addr() && b == stale) || (a == stale && b == primary.Addr())
	})
	_, err = primary.NewMount().WriteFile(vpath, data)
	c.Net.SetPartition(nil)
	if err != nil {
		return nil, 0, "", fmt.Errorf("write %s behind the partition: %w", vpath, err)
	}
	for round := 0; round < 3; round++ {
		for _, nd := range c.Nodes {
			nd.Overlay().Stabilize()
		}
	}
	return primary, pi, stale, nil
}

// runDedupRatioArm publishes the duplicate-heavy corpus and reads the
// cluster-wide block-index accounting. Each tree's first file seeds the
// hierarchy normally; the rest are written while the network is fully
// partitioned, so the replicas catch up through the measured anti-entropy
// pull (the path that chunks and indexes) instead of the per-op mirror
// fan-out.
func runDedupRatioArm(opts DedupOptions) (logical, stored int64, err error) {
	c, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: koshaCfg()})
	if err != nil {
		return 0, 0, err
	}

	m := c.Mount(0)
	payload := func(u, f int) []byte {
		return dedupPayload(opts.FileSize, uint64((u*opts.FilesPerUser+f)%opts.DistinctPayloads)+101)
	}
	for u := 0; u < opts.Users; u++ {
		if _, err := m.WriteFile(fmt.Sprintf("/dedup%02d/f%03d", u, 0), payload(u, 0)); err != nil {
			return 0, 0, fmt.Errorf("seed tree %d: %w", u, err)
		}
	}
	c.Stabilize()

	primaries := make([]*core.Node, opts.Users)
	for u := 0; u < opts.Users; u++ {
		nd, _, err := primaryOf(c, fmt.Sprintf("/dedup%02d", u))
		if err != nil {
			return 0, 0, err
		}
		primaries[u] = nd
	}

	// Write the corpus on each tree's own primary with every link cut: the
	// applies are local, the mirrors drop, and the replicas are now stale
	// by the whole corpus.
	c.Net.SetPartition(func(a, b simnet.Addr) bool { return true })
	for u := 0; u < opts.Users; u++ {
		pm := primaries[u].NewMount()
		for f := 1; f < opts.FilesPerUser; f++ {
			if _, err := pm.WriteFile(fmt.Sprintf("/dedup%02d/f%03d", u, f), payload(u, f)); err != nil {
				c.Net.SetPartition(nil)
				return 0, 0, fmt.Errorf("populate u%d f%03d: %w", u, f, err)
			}
		}
	}
	c.Net.SetPartition(nil)
	c.Stabilize()

	for _, nd := range c.Nodes {
		st := nd.Repl().CASStats()
		logical += st.LogicalBytes
		stored += st.UniqueBytes
	}
	return logical, stored, nil
}

// runDedupEditArm replicates one big file, makes the replica stale by a
// 16-byte edit applied behind a partition, and returns the kosha-service
// bytes (both ways) the primary's next SyncReplicas moves to reconverge.
func runDedupEditArm(opts DedupOptions) (uint64, error) {
	cfg := koshaCfg()
	c, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
	if err != nil {
		return 0, err
	}

	data := dedupPayload(opts.EditFileSize, 7)
	if _, err := c.Mount(0).WriteFile("/dedit00/blob.bin", data); err != nil {
		return 0, fmt.Errorf("populate blob: %w", err)
	}
	c.Stabilize()

	primary, _, _, err := staleWrite(c, cfg.Replicas, "/dedit00/blob.bin", spliceEdit(data, opts.EditFileSize/2))
	if err != nil {
		return 0, err
	}
	c.Net.ResetStats()
	primary.SyncReplicas()
	return c.Net.ServiceStats(core.KoshaService).Bytes, nil
}

// runDedupPromoteArm replicates one big file at K=2, makes the would-be
// successor's copy stale by the 16-byte edit, crashes the primary, and
// returns how many bytes the successor's pull repair fetches while
// promoting: its own repl.fetch.bytes counter. The replica set's other
// repairs (a new candidate pulling the whole file from the promoted
// successor) count on the nodes that pull them.
func runDedupPromoteArm(opts DedupOptions) (uint64, error) {
	cfg := koshaCfg()
	cfg.Replicas = 2
	nodes := opts.Nodes
	if nodes < 5 {
		nodes = 5
	}
	c, err := cluster.New(cluster.Options{Nodes: nodes, Seed: opts.Seed, Config: cfg})
	if err != nil {
		return 0, err
	}

	data := dedupPayload(opts.EditFileSize, 13)
	if _, err := c.Mount(0).WriteFile("/djob00/blob.bin", data); err != nil {
		return 0, fmt.Errorf("populate blob: %w", err)
	}
	c.Stabilize()

	_, pi, stale, err := staleWrite(c, cfg.Replicas, "/djob00/blob.bin", spliceEdit(data, opts.EditFileSize/2))
	if err != nil {
		return 0, err
	}
	var fetched *obs.Counter
	for _, nd := range c.Nodes {
		if nd.Addr() == stale {
			fetched = nd.Obs().Counter("repl.fetch.bytes")
		}
	}
	if fetched == nil {
		return 0, fmt.Errorf("successor %s not in cluster", stale)
	}
	before := fetched.Load()
	c.Fail(pi)
	c.Stabilize()
	return fetched.Load() - before, nil
}

// RunDedup executes all three arms.
func RunDedup(opts DedupOptions) (*DedupResult, error) {
	logical, stored, err := runDedupRatioArm(opts)
	if err != nil {
		return nil, fmt.Errorf("dedup ratio arm: %w", err)
	}
	editDelta, err := runDedupEditArm(opts)
	if err != nil {
		return nil, fmt.Errorf("edit arm: %w", err)
	}
	promDelta, err := runDedupPromoteArm(opts)
	if err != nil {
		return nil, fmt.Errorf("promote arm: %w", err)
	}

	res := &DedupResult{
		Nodes:             opts.Nodes,
		Users:             opts.Users,
		FilesPerUser:      opts.FilesPerUser,
		DistinctPayloads:  opts.DistinctPayloads,
		FileSize:          opts.FileSize,
		LogicalBytes:      logical,
		StoredBytes:       stored,
		EditFileSize:      opts.EditFileSize,
		EditFullBytes:     uint64(opts.EditFileSize),
		EditDeltaBytes:    editDelta,
		PromoteFullBytes:  uint64(opts.EditFileSize),
		PromoteDeltaBytes: promDelta,
	}
	if stored > 0 {
		res.DedupRatio = float64(logical) / float64(stored)
	}
	if opts.EditFileSize > 0 {
		res.EditDeltaPct = float64(editDelta) / float64(opts.EditFileSize) * 100
		res.PromoteDeltaPct = float64(promDelta) / float64(opts.EditFileSize) * 100
	}
	return res, nil
}

// Fprint renders the result as a text report.
func (r *DedupResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Content-addressed chunk store, %d nodes\n", r.Nodes)
	fmt.Fprintf(w, "corpus: %d users x %d files x %d B (%d distinct payloads)\n",
		r.Users, r.FilesPerUser, r.FileSize, r.DistinctPayloads)
	fmt.Fprintf(w, "%-26s %12d\n", "logical bytes indexed", r.LogicalBytes)
	fmt.Fprintf(w, "%-26s %12d\n", "distinct block bytes", r.StoredBytes)
	fmt.Fprintf(w, "%-26s %12.2fx\n", "dedup ratio", r.DedupRatio)
	fmt.Fprintf(w, "16-byte edit in a %d B file, sync bytes to reconverge:\n", r.EditFileSize)
	fmt.Fprintf(w, "%-26s %12d\n", "whole-file refresh", r.EditFullBytes)
	fmt.Fprintf(w, "%-26s %12d  (%.1f%% of whole-file)\n", "chunk delta", r.EditDeltaBytes, r.EditDeltaPct)
	fmt.Fprintf(w, "promote repair after primary crash, fetch bytes:\n")
	fmt.Fprintf(w, "%-26s %12d\n", "whole-file fetch", r.PromoteFullBytes)
	fmt.Fprintf(w, "%-26s %12d  (%.1f%% of whole-file)\n", "block-level repair", r.PromoteDeltaBytes, r.PromoteDeltaPct)
}

// FprintCSV renders the three arms as CSV.
func (r *DedupResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "metric,full,delta")
	fmt.Fprintf(w, "corpus_bytes,%d,%d\n", r.LogicalBytes, r.StoredBytes)
	fmt.Fprintf(w, "edit_sync_bytes,%d,%d\n", r.EditFullBytes, r.EditDeltaBytes)
	fmt.Fprintf(w, "promote_fetch_bytes,%d,%d\n", r.PromoteFullBytes, r.PromoteDeltaBytes)
}
