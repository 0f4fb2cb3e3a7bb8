package cas

import "repro/internal/wire"

// PutManifest appends a manifest as a counted array of (hash, len) pairs.
func PutManifest(e *wire.Encoder, m Manifest) {
	e.PutUint32(uint32(len(m)))
	for _, c := range m {
		e.PutDigest(c.Hash)
		e.PutUint32(c.Len)
	}
}

// GetManifest decodes a manifest written by PutManifest.
func GetManifest(d *wire.Decoder) Manifest {
	n := d.ArrayLen()
	if n == 0 || d.Err() != nil {
		return nil
	}
	m := make(Manifest, 0, n)
	for i := 0; i < n; i++ {
		h := d.Digest()
		l := d.Uint32()
		if d.Err() != nil {
			return nil
		}
		m = append(m, Chunk{Hash: h, Len: l})
	}
	return m
}

// PutHashes appends a counted array of chunk hashes (CHUNK_FETCH requests).
func PutHashes(e *wire.Encoder, hs []Hash) {
	e.PutUint32(uint32(len(hs)))
	for _, h := range hs {
		e.PutDigest(h)
	}
}

// GetHashes decodes a hash list written by PutHashes.
func GetHashes(d *wire.Decoder) []Hash {
	n := d.ArrayLen()
	if n == 0 || d.Err() != nil {
		return nil
	}
	hs := make([]Hash, 0, n)
	for i := 0; i < n; i++ {
		hs = append(hs, d.Digest())
	}
	if d.Err() != nil {
		return nil
	}
	return hs
}
