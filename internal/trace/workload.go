package trace

import "math/rand"

// This file turns a synthesized file-system snapshot (GenFS) into a
// sustained operation stream: chaos.TraceWorkload replays the Purdue trace
// not as a one-shot ingest but as continuous traffic — creates and overwrites
// drawn from the trace's Zipf user activity and lognormal sizes, mixed
// with reads, stats, and directory scans of data written so far. The
// stream is self-consistent (reads only target files already written) and
// deterministic per (trace, config, seed).

// WorkloadOpKind classifies one workload operation.
type WorkloadOpKind int

const (
	// OpWrite creates or overwrites a trace file.
	OpWrite WorkloadOpKind = iota
	// OpRead reads back a file written earlier in the stream.
	OpRead
	// OpStat stats a file written earlier in the stream.
	OpStat
	// OpReaddir lists the directory of a file written earlier.
	OpReaddir
)

func (k WorkloadOpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpStat:
		return "stat"
	case OpReaddir:
		return "readdir"
	}
	return "?"
}

// WorkloadOp is one operation of the stream.
type WorkloadOp struct {
	Kind WorkloadOpKind
	Path string // file path (OpWrite/OpRead/OpStat) or directory (OpReaddir)
	Size int64  // payload size for OpWrite
}

// WorkloadConfig parameterizes the stream.
type WorkloadConfig struct {
	// ReadFrac/WriteFrac/StatFrac/ReaddirFrac weigh the operation mix; they
	// are normalized, so any positive scale works.
	ReadFrac, WriteFrac, StatFrac, ReaddirFrac float64
	// MaxFileBytes caps write payload sizes. The Purdue trace's lognormal
	// tail reaches into megabytes; replaying tens of thousands of such
	// writes across hundreds of in-memory stores (times K replicas) would
	// be all allocator and no protocol, so the soak truncates payloads
	// while keeping the trace's paths and tree shape. 0 keeps trace sizes.
	MaxFileBytes int64
}

// DefaultWorkloadConfig is the soak's mix: read-mostly with a steady write
// stream, a sprinkle of metadata scans.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		ReadFrac:     0.50,
		WriteFrac:    0.30,
		StatFrac:     0.15,
		ReaddirFrac:  0.05,
		MaxFileBytes: 4 << 10,
	}
}

// Workload is a deterministic operation stream over one FSTrace.
type Workload struct {
	cfg   WorkloadConfig
	r     *rand.Rand
	files []File

	written    []int        // indices into files, in write order
	wasWritten map[int]bool // membership for written
	cursor     int          // next never-written file to create
}

// NewWorkload builds a stream over t. The same (t, cfg, seed) always yields
// the same operation sequence.
func NewWorkload(t *FSTrace, cfg WorkloadConfig, seed uint64) *Workload {
	if cfg.ReadFrac+cfg.WriteFrac+cfg.StatFrac+cfg.ReaddirFrac <= 0 {
		cfg = DefaultWorkloadConfig()
	}
	return &Workload{
		cfg:        cfg,
		r:          rand.New(rand.NewSource(int64(seed))),
		files:      t.Files,
		wasWritten: map[int]bool{},
	}
}

// Written returns how many distinct trace files the stream has created.
func (w *Workload) Written() int { return len(w.written) }

// Next returns the next operation of the stream.
func (w *Workload) Next() WorkloadOp {
	kind := w.pick()
	if len(w.written) == 0 {
		kind = OpWrite // nothing to read yet
	}
	switch kind {
	case OpWrite:
		// Fresh create while trace files remain (sustaining the ingest),
		// otherwise an overwrite of a previously-written file.
		var idx int
		if w.cursor < len(w.files) {
			idx = w.cursor
			w.cursor++
			w.written = append(w.written, idx)
			w.wasWritten[idx] = true
		} else {
			idx = w.written[w.r.Intn(len(w.written))]
		}
		f := w.files[idx]
		size := f.Size
		if w.cfg.MaxFileBytes > 0 && size > w.cfg.MaxFileBytes {
			size = w.cfg.MaxFileBytes
		}
		return WorkloadOp{Kind: OpWrite, Path: f.Path, Size: size}
	case OpReaddir:
		f := w.files[w.written[w.r.Intn(len(w.written))]]
		return WorkloadOp{Kind: OpReaddir, Path: DirOf(f.Path)}
	default: // OpRead, OpStat
		f := w.files[w.written[w.r.Intn(len(w.written))]]
		return WorkloadOp{Kind: kind, Path: f.Path}
	}
}

func (w *Workload) pick() WorkloadOpKind {
	total := w.cfg.ReadFrac + w.cfg.WriteFrac + w.cfg.StatFrac + w.cfg.ReaddirFrac
	v := w.r.Float64() * total
	switch {
	case v < w.cfg.WriteFrac:
		return OpWrite
	case v < w.cfg.WriteFrac+w.cfg.ReadFrac:
		return OpRead
	case v < w.cfg.WriteFrac+w.cfg.ReadFrac+w.cfg.StatFrac:
		return OpStat
	default:
		return OpReaddir
	}
}
