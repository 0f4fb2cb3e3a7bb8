package mab

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/racetest"
	"repro/internal/simnet"
)

func TestNFSAdapterHandleCaching(t *testing.T) {
	fs := NewBaseline(simnet.LAN100, simnet.Disk7200)
	if _, err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 1000)
	if _, err := fs.WriteFile("/a/b/f", payload); err != nil {
		t.Fatal(err)
	}
	// A second stat of a cached path costs exactly one GETATTR; a fresh
	// deep path costs more (per-component lookups).
	c1, err := fs.Stat("/a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile("/a/b/c/d/e/f2", payload); err != nil {
		t.Fatal(err)
	}
	// Evict nothing; stat the brand-new deep file again: cached → 1 RPC.
	c2, err := fs.Stat("/a/b/c/d/e/f2")
	if err != nil {
		t.Fatal(err)
	}
	if c2 > c1*2 {
		t.Fatalf("cached stat of deep path (%v) should cost like a shallow one (%v)", c2, c1)
	}
	// Reads return exactly what was written, chunk boundaries included.
	big := make([]byte, ChunkSize*2+123)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := fs.WriteFile("/big", big); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.ReadFile("/big")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("chunked round trip: %d bytes err=%v", len(got), err)
	}
}

func TestKoshaAdapterMatchesMountState(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 4, Seed: 61, Config: core.Config{Replicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewKoshaFS(c.Mount(0))
	if _, err := fs.MkdirAll("/w/x/y"); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, ChunkSize+77)
	for i := range big {
		big[i] = byte(i * 3)
	}
	if _, err := fs.WriteFile("/w/x/y/data", big); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.ReadFile("/w/x/y/data")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("adapter round trip: %d bytes err=%v", len(got), err)
	}
	// The same file is visible through an independent mount.
	out, _, err := c.Mount(2).ReadFile("/w/x/y/data")
	if err != nil || !bytes.Equal(out, big) {
		t.Fatalf("independent mount: %d bytes err=%v", len(out), err)
	}
	// Stat through the adapter sees the right size.
	if _, err := fs.Stat("/w/x/y/data"); err != nil {
		t.Fatal(err)
	}
}

func TestAdapterMissingFileErrors(t *testing.T) {
	fs := NewBaseline(simnet.LAN100, simnet.Disk7200)
	if _, _, err := fs.ReadFile("/nope"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("read missing err = %v", err)
	}
	if _, err := fs.Stat("/nope"); !nfs.IsStatus(err, nfs.ErrNoEnt) {
		t.Fatalf("stat missing err = %v", err)
	}
}

func TestRunIsDeterministicPerSeedAndFS(t *testing.T) {
	w := Generate(Tiny(), 5)
	r1, err := Run(NewBaseline(simnet.LAN100, simnet.Disk7200), w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(NewBaseline(simnet.LAN100, simnet.Disk7200), Generate(Tiny(), 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Phases {
		if r1.Phase[p] != r2.Phase[p] {
			t.Fatalf("phase %v differs across identical runs: %v vs %v", p, r1.Phase[p], r2.Phase[p])
		}
	}
}

// TestReadFileAllocatesTheFileOnce: a KoshaFS knows the size of a file it
// wrote, so its ReadFile reads every chunk in place, into one buffer of that
// size: a three-chunk file allocates its size and the READs' codecs, under
// 4 KiB more, where it allocated three reply frames and the buffer they were
// joined into. NFSFS does the same against its server.
func TestReadFileAllocatesTheFileOnce(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 4, Seed: 61, Config: core.Config{Replicas: 1, TraceBufSize: -1}})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*ChunkSize+8<<10) // 72 KiB: 32 + 32 + 8
	for i := range data {
		data[i] = byte(i * 5)
	}
	for _, fs := range []FS{NewKoshaFS(c.Mount(0)), NewBaseline(simnet.LAN100, simnet.Disk7200)} {
		if _, err := fs.MkdirAll("/r"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteFile("/r/f", data); err != nil {
			t.Fatal(err)
		}
		got, _, err := fs.ReadFile("/r/f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%T: %d bytes err=%v", fs, len(got), err)
		}
		racetest.SkipAllocs(t)
		const reads = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			if _, _, err := fs.ReadFile("/r/f"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > uint64(len(data))+4<<10 {
			t.Errorf("%T: ReadFile of a %d-byte file allocated %d bytes, want <= its size + 4 KiB", fs, len(data), per)
		}
	}
}
