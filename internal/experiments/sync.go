package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
)

// SyncOptions parameterizes the anti-entropy experiment: a replicated
// N-file subtree goes one file stale on its replica (the mirror is lost to
// a partition), and the replica refresh is charged for the bytes it moves
// to converge again, against the content a full copy of the tree must move.
type SyncOptions struct {
	Nodes    int
	Files    int // files in the replicated subtree
	FileSize int // bytes per file
	Seed     uint64
}

// DefaultSyncOptions uses the acceptance shape: one stale file in a
// 100-file tree.
func DefaultSyncOptions() SyncOptions {
	return SyncOptions{
		Nodes:    4,
		Files:    100,
		FileSize: 4 << 10,
		Seed:     17,
	}
}

// QuickSyncOptions is the -quick shrink: a smaller tree of smaller files.
func QuickSyncOptions() SyncOptions {
	o := DefaultSyncOptions()
	o.Files = 32
	o.FileSize = 2 << 10
	return o
}

// SyncResult compares the Merkle delta sync of a one-file staleness against
// a full copy of the tree.
type SyncResult struct {
	Nodes        int     `json:"nodes"`
	Files        int     `json:"files"`
	FileSize     int     `json:"file_size"`
	FullBytes    uint64  `json:"full_bytes"` // Files x FileSize: the content any full re-push ships, before framing
	DeltaBytes   uint64  `json:"delta_bytes"`
	DeltaPct     float64 `json:"delta_pct"`     // delta bytes as % of full bytes
	FilesSent    uint64  `json:"files_sent"`    // shipped by the delta sync
	FilesSkipped uint64  `json:"files_skipped"` // proven current by digest
}

// RunSync builds a cluster, replicates a Files-file subtree, makes the
// replica exactly one file stale by partitioning the primary from it during
// a touch, heals the network, and sets the kosha-service bytes the primary's
// next SyncReplicas moves against the content bytes of a full copy.
func RunSync(opts SyncOptions) (*SyncResult, error) {
	cfg := koshaCfg()
	// Membership-driven resync would heal the staleness behind the
	// experiment's back; every sync here is driven explicitly.
	cfg.NoAutoSync = true
	c, err := cluster.New(cluster.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
	if err != nil {
		return nil, err
	}

	m := c.Mount(0)
	data := make([]byte, opts.FileSize)
	for i := range data {
		data[i] = byte(i)
	}
	for f := 0; f < opts.Files; f++ {
		if _, err := m.WriteFile(fmt.Sprintf("/sync00/f%03d", f), data); err != nil {
			return nil, fmt.Errorf("populate f%03d: %w", f, err)
		}
	}
	c.Stabilize()

	// Touch one file (same size, different bytes) behind a partition: the
	// replica is now stale by exactly that file.
	touched := append([]byte(nil), data...)
	touched[0] ^= 0xff
	primary, _, err := staleWrite(c, cfg.Replicas, fmt.Sprintf("/sync00/f%03d", opts.Files/2), touched)
	if err != nil {
		return nil, err
	}

	before := primary.Obs().Snapshot().Counters
	c.Net.ResetStats()
	primary.SyncReplicas()
	after := primary.Obs().Snapshot().Counters
	res := &SyncResult{
		Nodes:        opts.Nodes,
		Files:        opts.Files,
		FileSize:     opts.FileSize,
		FullBytes:    uint64(opts.Files) * uint64(opts.FileSize),
		DeltaBytes:   c.Net.ServiceStats(core.KoshaService).Bytes,
		FilesSent:    after["repl.sync.files.sent"] - before["repl.sync.files.sent"],
		FilesSkipped: after["repl.sync.files.skipped"] - before["repl.sync.files.skipped"],
	}
	if res.FullBytes > 0 {
		res.DeltaPct = float64(res.DeltaBytes) / float64(res.FullBytes) * 100
	}
	return res, nil
}

// Fprint renders the result as a text table.
func (r *SyncResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Replica refresh after a 1-file touch, %d nodes (%d files x %d B)\n",
		r.Nodes, r.Files, r.FileSize)
	fmt.Fprintf(w, "%-22s %12s\n", "strategy", "bytes moved")
	fmt.Fprintf(w, "%-22s %12d\n", "full re-push", r.FullBytes)
	fmt.Fprintf(w, "%-22s %12d\n", "merkle delta", r.DeltaBytes)
	fmt.Fprintf(w, "delta sync moved %.1f%% of the full push; shipped %d file(s), digests skipped %d\n",
		r.DeltaPct, r.FilesSent, r.FilesSkipped)
}

// FprintCSV renders the comparison as CSV.
func (r *SyncResult) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, "strategy,bytes,files_sent,files_skipped")
	fmt.Fprintf(w, "full,%d,,\n", r.FullBytes)
	fmt.Fprintf(w, "delta,%d,%d,%d\n", r.DeltaBytes, r.FilesSent, r.FilesSkipped)
}
