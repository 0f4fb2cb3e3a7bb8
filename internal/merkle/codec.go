package merkle

import (
	"repro/internal/localfs"
	"repro/internal/wire"
)

// Wire codec for digests and entry lists, used by the kosha digest-exchange
// procedures (kTreeDigest/kDirDigests). Follows the XDR conventions of
// internal/wire: counted arrays, length-prefixed strings, fixed opaques.

// GetDigest reads a digest.
func GetDigest(d *wire.Decoder) Digest {
	return d.Digest()
}

// PutEntries appends a counted array of directory entries.
func PutEntries(e *wire.Encoder, ents []Entry) {
	e.PutUint32(uint32(len(ents)))
	for _, ent := range ents {
		e.PutString(ent.Name)
		e.PutUint32(uint32(ent.Type))
		e.PutDigest(ent.Digest)
	}
}

// GetEntries reads a counted array of directory entries.
func GetEntries(d *wire.Decoder) []Entry {
	n := d.ArrayLen()
	out := make([]Entry, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		var ent Entry
		ent.Name = d.String()
		ent.Type = localfs.FileType(d.Uint32())
		ent.Digest = d.Digest()
		if d.Err() != nil {
			return nil
		}
		out = append(out, ent)
	}
	return out
}
