package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/diskfs"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

// TestConcurrentMountDisjointPaths drives one shared Mount from many
// goroutines, each working an independent file, and verifies under -race
// that the sharded handle table and metadata caches keep the hot path safe:
// lookups, reads, writes, and stats on disjoint files must neither corrupt
// state nor observe each other's data.
func TestConcurrentMountDisjointPaths(t *testing.T) {
	_, nodes := testCluster(t, 4, 9401, Config{})
	m := nodes[0].NewMount()

	const workers = 8
	const iters = 25
	for i := 0; i < workers; i++ {
		if _, err := m.WriteFile(fmt.Sprintf("/conc/w%d/data", i), []byte(fmt.Sprintf("seed-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vpath := fmt.Sprintf("/conc/w%d/data", w)
			want := fmt.Sprintf("seed-%d", w)
			for it := 0; it < iters; it++ {
				vh, _, _, err := m.LookupPath(vpath)
				if err != nil {
					errs <- fmt.Errorf("worker %d lookup: %w", w, err)
					return
				}
				if _, _, err := m.Getattr(vh); err != nil {
					errs <- fmt.Errorf("worker %d getattr: %w", w, err)
					return
				}
				data, _, _, err := m.Read(vh, 0, 64)
				if err != nil || string(data) != want {
					errs <- fmt.Errorf("worker %d read: %q err=%v", w, data, err)
					return
				}
				if _, _, err := m.Write(vh, 0, []byte(want)); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				m.forget(vh)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentMountSharedPath hammers one file and one directory from
// many goroutines: concurrent reads, attribute fetches, directory listings,
// and interleaved writes against the same virtual path. Exercises the
// shared-shard paths (same hash buckets, same handle rows) plus concurrent
// cache invalidation.
func TestConcurrentMountSharedPath(t *testing.T) {
	_, nodes := testCluster(t, 4, 9402, Config{})
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/shared/hot.txt", []byte("hot")); err != nil {
		t.Fatal(err)
	}
	dirVH, _, _, err := m.LookupPath("/shared")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch w % 4 {
				case 0: // reader
					vh, _, _, err := m.Lookup(dirVH, "hot.txt")
					if err != nil {
						errs <- fmt.Errorf("reader lookup: %w", err)
						return
					}
					if _, _, _, err := m.Read(vh, 0, 16); err != nil {
						errs <- fmt.Errorf("reader read: %w", err)
						return
					}
					m.forget(vh)
				case 1: // statter
					vh, _, _, err := m.Lookup(dirVH, "hot.txt")
					if err != nil {
						errs <- fmt.Errorf("statter lookup: %w", err)
						return
					}
					if _, _, err := m.Getattr(vh); err != nil {
						errs <- fmt.Errorf("statter getattr: %w", err)
						return
					}
					m.forget(vh)
				case 2: // lister
					if _, _, err := m.Readdir(dirVH); err != nil {
						errs <- fmt.Errorf("lister readdir: %w", err)
						return
					}
				case 3: // writer
					vh, _, _, err := m.Lookup(dirVH, "hot.txt")
					if err != nil {
						errs <- fmt.Errorf("writer lookup: %w", err)
						return
					}
					if _, _, err := m.Write(vh, 0, []byte("hot")); err != nil {
						errs <- fmt.Errorf("writer write: %w", err)
						return
					}
					m.forget(vh)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	data, _, err := m.ReadFile("/shared/hot.txt")
	if err != nil || string(data) != "hot" {
		t.Fatalf("after stress: %q err=%v", data, err)
	}
	if spread := m.ReadSpread(); len(spread) == 0 {
		t.Fatal("no reads recorded")
	}
}

// TestUnlinkNeverRemovesSpecialLink: FSUnlink types its victim and removes it
// under one store lock, so however a name flips between a regular file and a
// special link while another goroutine unlinks it, only the file ever goes.
// The flipper removes each link it planted itself; a link that is missing by
// then was taken by the unlink. Run under -race, on both stores.
func TestUnlinkNeverRemovesSpecialLink(t *testing.T) {
	disk, err := diskfs.Open(t.TempDir(), 0, simnet.Disk7200)
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]localfs.FileSystem{"localfs": localfs.New(0, simnet.Disk7200), "diskfs": disk} {
		t.Run(name, func(t *testing.T) {
			state := uint64(5)
			n := NewNodeWithStore("k0", id.Rand128(&state), simnet.New(simnet.LAN100), Config{}, store)
			dir, err := store.MkdirAll("/a/b")
			if err != nil {
				t.Fatal(err)
			}
			const flips = 400
			stop := make(chan struct{})
			unlinked := make(chan int)
			go func() {
				removed := 0
				for {
					select {
					case <-stop:
						unlinked <- removed
						return
					default:
					}
					if _, _, err := n.applyFSOp(FSOp{Kind: FSUnlink, Path: "/a/b/x"}, false); err == nil {
						removed++
					} else if st := nfs.ToStatus(err); st != nfs.ErrNoEnt && st != nfs.ErrIsDir {
						t.Errorf("unlink: %v", err)
					}
				}
			}()
			taken := 0
			for i := 0; i < flips; i++ {
				if _, _, err := store.Create(dir.Ino, "x", 0o644, false); err != nil {
					t.Fatalf("flip %d: create: %v", i, err)
				}
				if _, err := store.Remove(dir.Ino, "x"); err != nil && nfs.ToStatus(err) != nfs.ErrNoEnt {
					t.Fatalf("flip %d: remove the file: %v", i, err)
				}
				if _, _, err := store.Symlink(dir.Ino, "x", MakeLinkTarget("pn", "/store")); err != nil {
					t.Fatalf("flip %d: plant the link: %v", i, err)
				}
				if _, err := store.Remove(dir.Ino, "x"); err != nil {
					taken++
				}
			}
			close(stop)
			removed := <-unlinked
			if taken > 0 {
				t.Errorf("%d of %d special links were gone before their planter removed them", taken, flips)
			}
			t.Logf("%d flips, %d files unlinked in between", flips, removed)
		})
	}
}
