package chaos

import (
	"fmt"
	"path"
	"slices"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// WorkloadSource is the traffic a run drives between its steps: Mix or
// TraceWorkload.
type WorkloadSource interface {
	// ops readies the workload on the freshly built cluster and returns
	// op, which issues the run's n'th operation and judges it against the
	// model as it completes.
	ops(x *harness) (op func(n int) error, err error)
}

// Mix is the runner's own workload: writes, mkdirs, subtree removes,
// same-parent renames and read-backs over paths of up to three levels drawn
// from a three-name alphabet. Three files are written before the first step
// so that it has acknowledged state to threaten.
type Mix struct{}

func (Mix) ops(x *harness) (func(int) error, error) {
	for i := 0; i < 3; i++ {
		p, data := fmt.Sprintf("/d%d/seed", i), []byte(fmt.Sprintf("seed-%d", i))
		if _, err := x.m.WriteFile(p, data); err != nil {
			return nil, fmt.Errorf("prepopulate %s: %v", p, err)
		}
		x.model.WriteFile(p, data)
	}
	x.c.Stabilize()
	return x.mixOp, nil
}

func (x *harness) randPath() string {
	parts := make([]string, 1+x.r.Intn(3))
	for i := range parts {
		parts[i] = fmt.Sprintf("d%d", x.r.Intn(3))
	}
	return core.JoinVirtual(parts)
}

// mixOp performs one operation of the Mix, keeping the model in lockstep.
func (x *harness) mixOp(n int) error {
	m, r := x.m, x.r
	switch r.Intn(8) {
	case 0, 1, 2: // write (create or overwrite)
		p := x.randPath() + fmt.Sprintf("/f%d", r.Intn(5))
		data := make([]byte, r.Intn(1500))
		r.Read(data)
		return x.write(p, data)
	case 3: // mkdir
		p := x.randPath()
		if err := x.acked("mkdir "+p, func() (simnet.Cost, error) {
			_, cost, err := m.MkdirAll(p)
			return cost, err
		}); err != nil {
			return err
		}
		x.model.MkdirAll(p)
	case 4: // remove subtree
		p := x.randPath()
		if !x.model.Exists(p) {
			return nil
		}
		if err := x.acked("rm "+p, func() (simnet.Cost, error) {
			cost, err := m.RemoveAllPath(p)
			if nfs.IsStatus(err, nfs.ErrNoEnt) {
				// The earlier (lost-looking) attempt had removed it.
				return cost, nil
			}
			return cost, err
		}); err != nil {
			return err
		}
		x.model.RemoveAll(p)
	case 5, 6: // read-back of a known file
		return x.readback()
	case 7: // rename within the same parent
		p := x.randPath()
		if !x.model.Exists(p) {
			return nil
		}
		parts := core.SplitVirtual(p)
		parent := core.JoinVirtual(parts[:len(parts)-1])
		newName := fmt.Sprintf("rn%d", n)
		x.rep.Ops++
		parentVH, _, cost, err := m.LookupPath(parent)
		x.rep.OpCost += cost
		if err != nil {
			return fmt.Errorf("rename lookup %s: %v", parent, err)
		}
		cost, err = m.Rename(parentVH, parts[len(parts)-1], parentVH, newName)
		x.rep.OpCost += cost
		if err != nil {
			return fmt.Errorf("rename %s: %v", p, err)
		}
		x.model.Rename(p, path.Join(parent, newName))
	}
	return nil
}

// TraceWorkload replays trace.Workload's read-mostly operation mix
// (trace.DefaultWorkloadConfig) over a file system synthesized from FS:
// fresh creates in trace order, reads, stats and listings of written files.
type TraceWorkload struct{ FS trace.FSConfig }

func (t TraceWorkload) ops(x *harness) (func(int) error, error) {
	seed := uint64(x.o.Seed)
	work := trace.NewWorkload(trace.GenFS(t.FS, seed+2), trace.DefaultWorkloadConfig(), seed+3)
	return func(int) error {
		op := work.Next()
		switch op.Kind {
		case trace.OpWrite:
			data := make([]byte, op.Size)
			x.r.Read(data)
			return x.write(op.Path, data)
		case trace.OpRead:
			return x.read(op.Path)
		case trace.OpStat, trace.OpReaddir:
			x.rep.Ops++
			vh, attr, cost, err := x.m.LookupPath(op.Path)
			x.rep.OpCost += cost
			if err != nil {
				return fmt.Errorf("%v %s: %v", op.Kind, op.Path, err)
			}
			if op.Kind == trace.OpStat {
				if attr.Type != localfs.TypeRegular {
					return fmt.Errorf("stat %s resolved to %v, want regular file", op.Path, attr.Type)
				}
				return nil
			}
			ents, cost, err := x.m.Readdir(vh)
			x.rep.OpCost += cost
			if err != nil {
				return fmt.Errorf("readdir %s: %v", op.Path, err)
			}
			for _, name := range x.model.List(op.Path) {
				if !slices.ContainsFunc(ents, func(e core.DirEntry) bool { return e.Name == name }) {
					return fmt.Errorf("readdir %s missing acknowledged entry %q", op.Path, name)
				}
			}
		}
		return nil
	}, nil
}
