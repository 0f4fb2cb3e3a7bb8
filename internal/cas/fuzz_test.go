package cas

import (
	"bytes"
	"testing"
)

// FuzzChunker pins the chunker's contract on arbitrary input: splitting is
// deterministic, every chunk hash-verifies against its slice of the input,
// concatenating the chunks reproduces the input exactly, chunk sizes stay
// within [MinChunk, MaxChunk] (short final chunk excepted). Seed corpus
// lives in testdata/fuzz/FuzzChunker.
func FuzzChunker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello kosha"))
	f.Add(bytes.Repeat([]byte{0}, MinChunk+1))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 5000))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := Split(data)
		var off int64
		for i, c := range m {
			end := off + int64(c.Len)
			if c.Len == 0 || end > int64(len(data)) {
				t.Fatalf("chunk %d bad extent off=%d len=%d total=%d", i, off, c.Len, len(data))
			}
			if c.Len > MaxChunk {
				t.Fatalf("chunk %d len %d > MaxChunk", i, c.Len)
			}
			if i < len(m)-1 && c.Len < MinChunk {
				t.Fatalf("non-final chunk %d len %d < MinChunk", i, c.Len)
			}
			if SumChunk(data[off:end]) != c.Hash {
				t.Fatalf("chunk %d hash mismatch", i)
			}
			off = end
		}
		if off != int64(len(data)) {
			t.Fatalf("manifest covers %d of %d bytes", off, len(data))
		}
		if !Split(data).Equal(m) {
			t.Fatal("Split not deterministic")
		}
	})
}
