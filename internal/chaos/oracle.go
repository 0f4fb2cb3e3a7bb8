// Package chaos is the deterministic fault-injection harness for the Kosha
// reproduction: a seeded scheduler drives a cluster.Cluster through scripted
// or randomized schedules of crashes, revives, joins, asymmetric partitions,
// message loss/duplication, and latency spikes, while an in-memory oracle
// model checks the paper's availability invariants (Section 5, Figures 8-9):
// with at least one live replica, every read returns the acknowledged
// contents, no acknowledged write is lost, and per-subtree replica counts
// re-converge to K after stabilization.
//
// Everything is reproducible from one logged seed: the workload mix, the
// randomized schedule, and the retry backoff jitter inside the nodes all
// derive from it.
package chaos

import (
	"bytes"
	"fmt"
	"path"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
)

// Oracle is the in-memory reference model of the virtual file system, the
// only one: the scheduler's runs here, the scale soak, the fuzzers and the
// oracle sweep in internal/cluster all check a cluster against it. It is
// exported and returns errors so that it works outside a *testing.T.
type Oracle struct {
	files map[string][]byte // virtual path -> contents
	// history records every value ever acknowledged at a path. While the
	// network is degraded a read may be served by a node holding an older —
	// but previously acknowledged — state; the lenient checks accept those
	// and still catch fabricated or torn contents.
	history map[string]map[string]struct{}
	dirs    map[string]struct{} // virtual dir paths (besides "/")
}

// NewOracle returns an empty model.
func NewOracle() *Oracle {
	return &Oracle{
		files:   map[string][]byte{},
		history: map[string]map[string]struct{}{},
		dirs:    map[string]struct{}{},
	}
}

func (o *Oracle) remember(p string, data []byte) {
	h := o.history[p]
	if h == nil {
		h = map[string]struct{}{}
		o.history[p] = h
	}
	h[string(data)] = struct{}{}
}

// acceptedStale reports whether data was at some point the acknowledged
// contents of p.
func (o *Oracle) acceptedStale(p string, data []byte) bool {
	_, ok := o.history[p][string(data)]
	return ok
}

// MkdirAll records a directory chain.
func (o *Oracle) MkdirAll(p string) {
	parts := core.SplitVirtual(p)
	for i := 1; i <= len(parts); i++ {
		o.dirs[core.JoinVirtual(parts[:i])] = struct{}{}
	}
}

// WriteFile records a file write (creating parents).
func (o *Oracle) WriteFile(p string, data []byte) {
	o.MkdirAll(path.Dir(p))
	o.files[p] = append([]byte(nil), data...)
	o.remember(p, data)
}

// RemoveAll records a subtree removal.
func (o *Oracle) RemoveAll(p string) {
	delete(o.files, p)
	delete(o.dirs, p)
	prefix := p + "/"
	for f := range o.files {
		if strings.HasPrefix(f, prefix) {
			delete(o.files, f)
		}
	}
	for d := range o.dirs {
		if strings.HasPrefix(d, prefix) {
			delete(o.dirs, d)
		}
	}
}

// Rename moves a path (file or subtree) to a new path.
func (o *Oracle) Rename(from, to string) {
	if data, ok := o.files[from]; ok {
		delete(o.files, from)
		o.files[to] = data
		o.remember(to, data)
	}
	if _, ok := o.dirs[from]; ok {
		delete(o.dirs, from)
		o.dirs[to] = struct{}{}
	}
	prefix := from + "/"
	for p, v := range o.files {
		if strings.HasPrefix(p, prefix) {
			delete(o.files, p)
			np := to + strings.TrimPrefix(p, from)
			o.files[np] = v
			o.remember(np, v)
		}
	}
	for d := range o.dirs {
		if strings.HasPrefix(d, prefix) {
			delete(o.dirs, d)
			o.dirs[to+strings.TrimPrefix(d, from)] = struct{}{}
		}
	}
}

// Exists reports whether the model knows the path.
func (o *Oracle) Exists(p string) bool {
	if _, ok := o.files[p]; ok {
		return true
	}
	_, ok := o.dirs[p]
	return ok
}

// FileContent returns the acknowledged contents of p, if the model knows
// the file. The scale soak uses it to judge individual reads inline instead
// of sweeping every file per step.
func (o *Oracle) FileContent(p string) ([]byte, bool) {
	data, ok := o.files[p]
	return data, ok
}

// Files returns the model's file paths in sorted order — the deterministic
// iteration the seeded runner needs.
func (o *Oracle) Files() []string {
	out := make([]string, 0, len(o.files))
	for p := range o.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Dirs returns the model's directory paths in sorted order.
func (o *Oracle) Dirs() []string {
	out := make([]string, 0, len(o.dirs))
	for d := range o.dirs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// List returns the sorted child names of a directory per the model.
func (o *Oracle) List(dir string) []string {
	seen := map[string]struct{}{}
	prefix := dir + "/"
	if dir == "/" {
		prefix = "/"
	}
	collect := func(p string) {
		if !strings.HasPrefix(p, prefix) || p == dir {
			return
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" {
			seen[rest] = struct{}{}
		}
	}
	for f := range o.files {
		collect(f)
	}
	for d := range o.dirs {
		collect(d)
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CheckFiles verifies every model file reads back with the acknowledged
// contents through m — the per-step invariant ("no write is lost once
// acknowledged; all reads return oracle contents").
func (o *Oracle) CheckFiles(m *core.Mount) error {
	for _, p := range o.Files() {
		got, _, err := m.ReadFile(p)
		if err != nil {
			return fmt.Errorf("read %s: %w", p, err)
		}
		if !bytes.Equal(got, o.files[p]) {
			return fmt.Errorf("content mismatch at %s: got %d bytes, want %d", p, len(got), len(o.files[p]))
		}
	}
	return nil
}

// CheckFilesLenient is CheckFiles for use while message loss or partitions
// degrade the network: a read that fails outright counts as an availability
// miss (the retry budget is finite by design), and a read served by a node
// with an older view may return any *previously acknowledged* contents —
// but contents that were never acknowledged at that path are always a
// safety violation.
func (o *Oracle) CheckFilesLenient(m *core.Mount) (missed int, err error) {
	for _, p := range o.Files() {
		got, _, rerr := m.ReadFile(p)
		if rerr != nil {
			missed++
			continue
		}
		if bytes.Equal(got, o.files[p]) {
			continue
		}
		if o.acceptedStale(p, got) {
			missed++
			continue
		}
		return missed, fmt.Errorf("fabricated contents at %s: got %d bytes, never acknowledged", p, len(got))
	}
	return missed, nil
}

// Check verifies files, directory listings, and the absence of removed
// paths — the full convergence invariant used at checkpoints.
func (o *Oracle) Check(m *core.Mount) error {
	if err := o.CheckFiles(m); err != nil {
		return err
	}
	for _, d := range append([]string{"/"}, o.Dirs()...) {
		vh, attr, _, err := m.LookupPath(d)
		if err != nil {
			return fmt.Errorf("lookup dir %s: %w", d, err)
		}
		if attr.Type != localfs.TypeDir {
			return fmt.Errorf("%s resolved to non-directory", d)
		}
		ents, _, err := m.Readdir(vh)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", d, err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name)
		}
		sort.Strings(names)
		if got, want := strings.Join(names, ","), strings.Join(o.List(d), ","); got != want {
			return fmt.Errorf("listing of %s: got [%s], want [%s]", d, got, want)
		}
	}
	for _, probe := range []string{"/chaos-ghost", "/d0/chaos-ghost"} {
		if o.Exists(probe) {
			continue
		}
		if _, _, _, err := m.LookupPath(probe); !nfs.IsStatus(err, nfs.ErrNoEnt) {
			return fmt.Errorf("deleted path %s still resolvable (err=%v)", probe, err)
		}
	}
	return nil
}
