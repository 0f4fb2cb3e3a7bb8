package cas

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func reassemble(t *testing.T, data []byte, m Manifest) {
	t.Helper()
	var off int64
	for i, c := range m {
		end := off + int64(c.Len)
		if end > int64(len(data)) {
			t.Fatalf("chunk %d overruns data: off=%d len=%d total=%d", i, off, c.Len, len(data))
		}
		if SumChunk(data[off:end]) != c.Hash {
			t.Fatalf("chunk %d hash mismatch", i)
		}
		off = end
	}
	if off != int64(len(data)) {
		t.Fatalf("manifest covers %d of %d bytes", off, len(data))
	}
}

func TestSplitRoundTripAndBounds(t *testing.T) {
	for _, n := range []int{0, 1, MinChunk - 1, MinChunk, MinChunk + 1, 300 << 10, 2 << 20} {
		data := randBytes(int64(n)+7, n)
		m := Split(data)
		reassemble(t, data, m)
		if int64(len(data)) != m.TotalLen() {
			t.Fatalf("n=%d TotalLen=%d", n, m.TotalLen())
		}
		for i, c := range m {
			if c.Len > MaxChunk {
				t.Fatalf("n=%d chunk %d len %d > MaxChunk", n, i, c.Len)
			}
			if i < len(m)-1 && c.Len < MinChunk {
				t.Fatalf("n=%d non-final chunk %d len %d < MinChunk", n, i, c.Len)
			}
		}
		if !Split(data).Equal(m) {
			t.Fatalf("n=%d Split not deterministic", n)
		}
	}
}

// A small edit in the middle of a large file must leave all but O(1) chunks
// identical — the property block-level delta sync is built on.
func TestSplitLocalEditRealigns(t *testing.T) {
	data := randBytes(42, 2<<20)
	m1 := Split(data)
	edited := append([]byte(nil), data...)
	for i := 0; i < 16; i++ {
		edited[1<<20+i] ^= 0xff
	}
	m2 := Split(edited)
	have := make(map[Hash]bool, len(m1))
	for _, c := range m1 {
		have[c.Hash] = true
	}
	missing := 0
	for _, c := range m2 {
		if !have[c.Hash] {
			missing++
		}
	}
	if missing == 0 || missing > 3 {
		t.Fatalf("edit changed %d of %d chunks; want 1..3", missing, len(m2))
	}
}

func TestSplitPathologicalContentForcesCuts(t *testing.T) {
	// Constant bytes never hit a boundary; the MaxChunk fallback must cap
	// every chunk.
	data := make([]byte, 1<<20)
	m := Split(data)
	reassemble(t, data, m)
	for i, c := range m {
		if c.Len != MaxChunk && i != len(m)-1 {
			t.Fatalf("chunk %d len %d; want forced MaxChunk cuts", i, c.Len)
		}
	}
}

func TestManifestCodecRoundTrip(t *testing.T) {
	m := Split(randBytes(9, 400<<10))
	e := wire.NewEncoder(64)
	PutManifest(e, m)
	want := make([]Hash, len(m))
	for i, c := range m {
		want[i] = c.Hash
	}
	PutHashes(e, want)
	d := wire.NewDecoder(e.Bytes())
	if got := GetManifest(d); !got.Equal(m) {
		t.Fatal("manifest round trip mismatch")
	}
	hs := GetHashes(d)
	if len(hs) != len(m) || hs[0] != m[0].Hash {
		t.Fatal("hashes round trip mismatch")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRefcountAndGC(t *testing.T) {
	fs := localfs.New(0, simnet.DiskModel{})
	reg := obs.NewRegistry()
	s := NewStore(fs, reg)

	blob := randBytes(11, 300<<10)
	if err := fs.WriteFile("/a", blob); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", blob); err != nil {
		t.Fatal(err)
	}
	m := Split(blob)
	s.AddFile("/a", m)
	s.AddFile("/b", m)

	st := s.Stats()
	if st.Files != 2 || st.Blocks != len(m) {
		t.Fatalf("stats=%+v want 2 files, %d blocks", st, len(m))
	}
	if st.LogicalBytes != 2*int64(len(blob)) || st.UniqueBytes != int64(len(blob)) {
		t.Fatalf("logical=%d unique=%d", st.LogicalBytes, st.UniqueBytes)
	}
	snap := reg.Snapshot().Counters
	if snap["repl.cas.blocks.stored"] != uint64(len(m)) || snap["repl.cas.blocks.deduped"] != uint64(len(m)) {
		t.Fatalf("counters=%v", snap)
	}

	// Dropping one reference keeps the blocks; dropping the last GCs them.
	s.Forget("/a")
	if st := s.Stats(); st.Blocks != len(m) || st.UniqueBytes != int64(len(blob)) {
		t.Fatalf("after forget /a: %+v", st)
	}
	s.ForgetTree("/")
	st = s.Stats()
	if st.Blocks != 0 || st.Files != 0 || st.UniqueBytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("after forget all: %+v", st)
	}
	if got := reg.Snapshot().Counters["repl.cas.bytes.gc"]; got != uint64(len(blob)) {
		t.Fatalf("gc bytes=%d want %d", got, len(blob))
	}
}

func TestStoreGetVerifiesAndPrunesStale(t *testing.T) {
	fs := localfs.New(0, simnet.DiskModel{})
	s := NewStore(fs, nil)
	blob := randBytes(13, 64<<10)
	if err := fs.WriteFile("/f", blob); err != nil {
		t.Fatal(err)
	}
	m := Split(blob)
	s.AddFile("/f", m)

	got, ok := s.Get(m[0].Hash)
	if !ok || !bytes.Equal(got, blob[:m[0].Len]) {
		t.Fatal("Get did not return indexed bytes")
	}

	// Mutate the file out from under the index: Get must fail verification
	// rather than return wrong bytes.
	if err := fs.WriteFile("/f", randBytes(14, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(m[0].Hash); ok {
		t.Fatal("Get returned stale bytes after mutation")
	}
	if !s.Has(m[0].Hash) {
		t.Fatal("stale location pruning must not drop the reference")
	}
}
