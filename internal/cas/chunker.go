// Package cas provides content-addressed chunking for the replication data
// path: a content-defined chunker (buzhash rolling window, ~64 KiB target)
// that decomposes a file into an ordered manifest of SHA-256-addressed
// chunks, and a reference-counted block index (store.go) that records where
// identical bytes already live on a node's local store. Manifests are the
// leaf level of the Merkle digest exchange (internal/merkle), and the block
// index is what lets replica sync and promote-time repair ship only the
// chunks the other side lacks.
package cas

import (
	"crypto/sha256"
	"math/bits"

	"repro/internal/id"
)

// Hash identifies a chunk by the SHA-256 of its bytes.
type Hash [32]byte

// Chunk is one manifest entry: a content hash plus the chunk length.
type Chunk struct {
	Hash Hash
	Len  uint32
}

// Manifest is the ordered chunk decomposition of one file. Concatenating
// the chunks in order reproduces the file exactly.
type Manifest []Chunk

// TotalLen is the byte length of the file the manifest describes.
func (m Manifest) TotalLen() int64 {
	var n int64
	for _, c := range m {
		n += int64(c.Len)
	}
	return n
}

// Equal reports whether two manifests describe identical content.
func (m Manifest) Equal(o Manifest) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

const (
	// MinChunk is the smallest content-defined chunk the splitter emits
	// (except for a short final chunk). It also bounds how far an edit can
	// shift the preceding boundary.
	MinChunk = 8 << 10
	// MaxChunk forces a cut when pathological content never hits a
	// boundary — the fixed-size fallback. It caps the bytes a single-chunk
	// diff can ship.
	MaxChunk = 256 << 10
	// boundaryMask gives an expected run of 64 KiB beyond MinChunk before a
	// boundary fires (p = 2^-16 per byte), so chunks average ~72 KiB.
	boundaryMask = 1<<16 - 1
	// chunkWindow is the buzhash window. With a 64-byte window over 64-bit
	// table words the slide is rol1(h) ^ t[out] ^ t[in].
	chunkWindow = 64
)

// buzTable is the fixed byte-substitution table for the rolling hash,
// generated from a pinned splitmix64 stream. It must never change: chunk
// boundaries — and through them every manifest and file digest in a
// cluster — are derived from it.
var buzTable = buildBuzTable()

func buildBuzTable() (t [256]uint64) {
	s := uint64(id.SplitMixGamma)
	for i := range t {
		t[i] = id.SplitMix64(&s)
	}
	return t
}

// SumChunk is the content address of a chunk's bytes.
func SumChunk(b []byte) Hash { return sha256.Sum256(b) }

// Split cuts data into content-defined chunks. Boundaries depend only on a
// 64-byte window of surrounding bytes, so a local edit re-chunks the region
// it touches and boundaries re-align on the first shared window downstream —
// the property block-level delta sync relies on. Split(data) of equal data
// is identical everywhere (the table is pinned), and chunk sizes are bounded
// to [MinChunk, MaxChunk] with a forced cut at MaxChunk.
func Split(data []byte) Manifest {
	var m Manifest
	for len(data) > 0 {
		n := cutPoint(data)
		m = append(m, Chunk{Hash: SumChunk(data[:n]), Len: uint32(n)})
		data = data[n:]
	}
	return m
}

// cutPoint returns the length of the next chunk at the head of data.
func cutPoint(data []byte) int {
	if len(data) <= MinChunk {
		return len(data)
	}
	limit := MaxChunk
	if len(data) < limit {
		limit = len(data)
	}
	var h uint64
	for _, b := range data[MinChunk-chunkWindow : MinChunk] {
		h = bits.RotateLeft64(h, 1) ^ buzTable[b]
	}
	for i := MinChunk; i < limit; i++ {
		if h&boundaryMask == 0 {
			return i
		}
		// Slide the window one byte right: out = data[i-window], in = data[i].
		// rol(t[out], window) == t[out] because window == 64.
		h = bits.RotateLeft64(h, 1) ^ buzTable[data[i-chunkWindow]] ^ buzTable[data[i]]
	}
	return limit
}
