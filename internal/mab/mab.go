// Package mab implements the Modified Andrew Benchmark used in Section 6.1:
// "The benchmark was modified to run on FreeBSD with a larger workload ...
// The file distribution used is 51MB in size, with a maximum subdirectory
// level of 5." The five phases (mkdir, copy, stat, grep, compile) issue the
// same operation mix as the original MAB — directory creation, file copy,
// recursive stat, full-content scan, and a compile pass that reads sources
// and writes objects — against any file-system client, and report simulated
// seconds per phase.
package mab

import (
	"fmt"
	"math/rand"

	"repro/internal/simnet"
)

// Phase identifies one MAB phase.
type Phase int

const (
	PhaseMkdir Phase = iota
	PhaseCopy
	PhaseStat
	PhaseGrep
	PhaseCompile
	numPhases
)

// Phases lists all phases in execution order.
var Phases = []Phase{PhaseMkdir, PhaseCopy, PhaseStat, PhaseGrep, PhaseCompile}

// MarshalText spells a phase by name wherever it is encoded as text (the
// keys and values of koshabench's JSON tables).
func (p Phase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p Phase) String() string {
	switch p {
	case PhaseMkdir:
		return "mkdir"
	case PhaseCopy:
		return "copy"
	case PhaseStat:
		return "stat"
	case PhaseGrep:
		return "grep"
	case PhaseCompile:
		return "compile"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// ChunkSize is the rsize/wsize used for data transfer, matching a typical
// NFSv3 mount's 32 KB transfer size. Both the Kosha and plain-NFS clients
// move data in these units so per-RPC overheads are charged equally.
const ChunkSize = 32 << 10

// FS is the client surface the benchmark drives. Implementations exist for
// a Kosha mount and for a plain NFS client (the baseline).
type FS interface {
	// MkdirAll creates a directory and missing ancestors.
	MkdirAll(path string) (simnet.Cost, error)
	// WriteFile creates (truncates) a file and writes the data in
	// ChunkSize units.
	WriteFile(path string, data []byte) (simnet.Cost, error)
	// ReadFile reads a whole file in ChunkSize units.
	ReadFile(path string) ([]byte, simnet.Cost, error)
	// Stat fetches attributes.
	Stat(path string) (simnet.Cost, error)
}

// WFile is one source file in the benchmark tree.
type WFile struct {
	Path string
	Size int
}

// Workload is the benchmark's file distribution.
type Workload struct {
	Root  string // all paths live under this virtual directory
	Dirs  []string
	Files []WFile
}

// TotalBytes sums the file sizes.
func (w *Workload) TotalBytes() int {
	t := 0
	for _, f := range w.Files {
		t += f.Size
	}
	return t
}

// Config parameterizes workload generation.
type Config struct {
	Root       string
	TotalBytes int
	MaxDepth   int // maximum subdirectory level
	Dirs       int
	Files      int
}

// Paper51MB reproduces the stated distribution: 51 MB, maximum
// subdirectory level 5.
func Paper51MB() Config {
	return Config{Root: "/mab", TotalBytes: 51 << 20, MaxDepth: 5, Dirs: 320, Files: 1200}
}

// Tiny is a scaled-down workload for unit tests.
func Tiny() Config {
	return Config{Root: "/mab", TotalBytes: 256 << 10, MaxDepth: 3, Dirs: 6, Files: 24}
}

// Generate builds a deterministic workload: a directory tree of bounded
// depth with files spread across it, sizes jittered around the mean and
// scaled to hit TotalBytes exactly.
func Generate(cfg Config, seed uint64) *Workload {
	r := rand.New(rand.NewSource(int64(seed)))
	w := &Workload{Root: cfg.Root}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}

	dirs := []string{cfg.Root}
	depth := map[string]int{cfg.Root: 1}
	for len(dirs) < cfg.Dirs+1 {
		parent := dirs[r.Intn(len(dirs))]
		if depth[parent] >= cfg.MaxDepth {
			continue
		}
		child := fmt.Sprintf("%s/dir%02d", parent, len(dirs))
		dirs = append(dirs, child)
		depth[child] = depth[parent] + 1
	}
	w.Dirs = dirs

	// Files are copied into their own subdirectories, created during the
	// copy phase as cp -r would (the original benchmark copies a source
	// tree); this is why the copy phase, like mkdir, is sensitive to the
	// distribution level (Table 2's discussion).
	mean := cfg.TotalBytes / max(cfg.Files, 1)
	total := 0
	const filesPerCopyDir = 4
	var copyDir string
	for i := 0; i < cfg.Files; i++ {
		if i%filesPerCopyDir == 0 {
			parent := dirs[r.Intn(len(dirs))]
			if depth[parent] >= cfg.MaxDepth {
				parent = dirs[0]
			}
			copyDir = fmt.Sprintf("%s/mod%03d", parent, i/filesPerCopyDir)
		}
		size := int(float64(mean) * (0.25 + 1.5*r.Float64()))
		if size < 64 {
			size = 64
		}
		w.Files = append(w.Files, WFile{
			Path: fmt.Sprintf("%s/src%03d.c", copyDir, i),
			Size: size,
		})
		total += size
	}
	// Scale to the exact target.
	if total > 0 && cfg.TotalBytes > 0 {
		scale := float64(cfg.TotalBytes) / float64(total)
		sum := 0
		for i := range w.Files {
			w.Files[i].Size = max(int(float64(w.Files[i].Size)*scale), 1)
			sum += w.Files[i].Size
		}
		w.Files[len(w.Files)-1].Size += cfg.TotalBytes - sum
	}
	return w
}

// CPUModel charges processor time for the benchmark's computation: the
// Andrew benchmark's total is dominated by the compile phase's CPU work,
// which is identical under Kosha and NFS and is exactly why the paper's
// file-system overheads appear as single-digit percentages of the total.
type CPUModel struct {
	// CompileBytesPerSec is gcc's throughput over source bytes.
	CompileBytesPerSec float64
	// GrepBytesPerSec is the scan rate of the grep phase.
	GrepBytesPerSec float64
	// StatPerEntry is per-entry processing in the stat phase.
	StatPerEntry simnet.Cost
}

// P4CPU models the testbed's 2.0 GHz Pentium 4 (Section 6.1).
var P4CPU = CPUModel{
	CompileBytesPerSec: 2.5e6,
	GrepBytesPerSec:    150e6,
	StatPerEntry:       simnet.Cost(20_000), // 20µs
}

func (c CPUModel) compileCost(n int) simnet.Cost {
	if c.CompileBytesPerSec <= 0 {
		return 0
	}
	return simnet.Cost(float64(n) / c.CompileBytesPerSec * 1e9)
}

func (c CPUModel) grepCost(n int) simnet.Cost {
	if c.GrepBytesPerSec <= 0 {
		return 0
	}
	return simnet.Cost(float64(n) / c.GrepBytesPerSec * 1e9)
}

// Result carries per-phase simulated times.
type Result struct {
	Phase map[Phase]simnet.Cost
}

// Total sums all phases.
func (r Result) Total() simnet.Cost {
	var t simnet.Cost
	for _, c := range r.Phase {
		t += c
	}
	return t
}

// Seconds returns a phase's simulated seconds.
func (r Result) Seconds(p Phase) float64 { return r.Phase[p].Seconds() }

// Run executes the five MAB phases against fs with the P4 CPU model.
func Run(fs FS, w *Workload) (Result, error) {
	return RunCPU(fs, w, P4CPU)
}

// RunCPU executes the five MAB phases against fs and reports per-phase
// simulated time (file-system costs plus cpu's processing costs).
func RunCPU(fs FS, w *Workload, cpu CPUModel) (Result, error) {
	res := Result{Phase: make(map[Phase]simnet.Cost, numPhases)}

	// Phase 1: mkdir — create the directory hierarchy.
	var cost simnet.Cost
	for _, d := range w.Dirs {
		c, err := fs.MkdirAll(d)
		cost = simnet.Seq(cost, c)
		if err != nil {
			return res, fmt.Errorf("mab mkdir %s: %w", d, err)
		}
	}
	res.Phase[PhaseMkdir] = cost

	// Phase 2: copy — populate the tree with source files, creating each
	// module's directory on first touch as a recursive copy does.
	cost = 0
	madeDir := make(map[string]bool, len(w.Files)/2)
	for _, f := range w.Files {
		if dir := dirOf(f.Path); !madeDir[dir] {
			madeDir[dir] = true
			c, err := fs.MkdirAll(dir)
			cost = simnet.Seq(cost, c)
			if err != nil {
				return res, fmt.Errorf("mab copy mkdir %s: %w", dir, err)
			}
		}
		c, err := fs.WriteFile(f.Path, payload(f.Size))
		cost = simnet.Seq(cost, c)
		if err != nil {
			return res, fmt.Errorf("mab copy %s: %w", f.Path, err)
		}
	}
	res.Phase[PhaseCopy] = cost

	// Phase 3: stat — recursive status of every entry.
	cost = 0
	for _, d := range w.Dirs {
		c, err := fs.Stat(d)
		cost = simnet.Seq(cost, c)
		if err != nil {
			return res, fmt.Errorf("mab stat %s: %w", d, err)
		}
	}
	for _, f := range w.Files {
		c, err := fs.Stat(f.Path)
		cost = simnet.Seq(cost, c)
		if err != nil {
			return res, fmt.Errorf("mab stat %s: %w", f.Path, err)
		}
	}
	cost = simnet.Seq(cost, simnet.Cost(int64(cpu.StatPerEntry)*int64(len(w.Dirs)+len(w.Files))))
	res.Phase[PhaseStat] = cost

	// Phase 4: grep — scan every byte of every file.
	cost = 0
	for _, f := range w.Files {
		data, c, err := fs.ReadFile(f.Path)
		cost = simnet.Seq(cost, c)
		if err != nil {
			return res, fmt.Errorf("mab grep %s: %w", f.Path, err)
		}
		if len(data) != f.Size {
			return res, fmt.Errorf("mab grep %s: short read %d/%d", f.Path, len(data), f.Size)
		}
		cost = simnet.Seq(cost, cpu.grepCost(len(data)))
	}
	res.Phase[PhaseGrep] = cost

	// Phase 5: compile — read each source, emit an object of about half
	// its size, then link everything into one binary.
	cost = 0
	linked := 0
	for _, f := range w.Files {
		_, c, err := fs.ReadFile(f.Path)
		cost = simnet.Seq(cost, c)
		if err != nil {
			return res, fmt.Errorf("mab compile read %s: %w", f.Path, err)
		}
		cost = simnet.Seq(cost, cpu.compileCost(f.Size))
		obj := f.Path[:len(f.Path)-2] + ".o"
		c, err = fs.WriteFile(obj, payload(f.Size/2))
		cost = simnet.Seq(cost, c)
		if err != nil {
			return res, fmt.Errorf("mab compile write %s: %w", obj, err)
		}
		linked += f.Size / 2
	}
	c, err := fs.WriteFile(w.Root+"/a.out", payload(linked/8))
	cost = simnet.Seq(cost, c)
	if err != nil {
		return res, fmt.Errorf("mab link: %w", err)
	}
	res.Phase[PhaseCompile] = cost

	return res, nil
}

// payload builds file contents of the given size. Content is
// deterministic but non-trivial so read verification is meaningful.
func payload(size int) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 131)
	}
	return data
}

func dirOf(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
