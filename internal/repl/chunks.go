package repl

import (
	"errors"

	"repro/internal/cas"
	"repro/internal/localfs"
	"repro/internal/simnet"
)

// ManifestLocal returns the chunk manifest of the local regular file at
// phys, computing and indexing it as needed — the CHUNK_MANIFEST server
// primitive. ok is false when phys is missing or not a regular file.
func (e *Engine) ManifestLocal(phys string) (cas.Manifest, bool) {
	attr, err := e.store.LookupPath(phys)
	if err != nil || attr.Type != localfs.TypeRegular {
		return nil, false
	}
	m, err := e.mk.ManifestOf(phys)
	if err != nil {
		return nil, false
	}
	return m, true
}

// HaveBlocks answers a HAVE query against the local block index.
func (e *Engine) HaveBlocks(hs []cas.Hash) []bool { return e.cas.HasAll(hs) }

// GetBlock serves one block's bytes from the local index (hash-verified) —
// the CHUNK_FETCH server primitive.
func (e *Engine) GetBlock(h cas.Hash) ([]byte, bool) { return e.cas.Get(h) }

// CASStats snapshots the block index accounting (dedup experiment).
func (e *Engine) CASStats() cas.StoreStats { return e.cas.Stats() }

// SetFetchHook installs a test hook invoked after every CHUNK_FETCH round
// trip the engine issues (holder address plus batch size). The chaos
// harness uses it to crash holders mid-fetch at a deterministic point.
func (e *Engine) SetFetchHook(fn func(holder simnet.Addr, blocks int)) {
	e.mu.Lock()
	e.fetchHook = fn
	e.mu.Unlock()
}

// ErrMissingChunk reports an FSChunkWrite reference the receiver could not
// resolve from its block index; the sender answers by re-shipping the span
// verbatim.
var ErrMissingChunk = errors.New("repl: referenced chunk not present locally")

// AssembleChunks materializes an FSChunkWrite span's bytes on the receiver:
// inline chunks are consumed from op.Data in order, references resolve
// against the local block index (or chunks appearing earlier in the same
// span). Every chunk is verified against its hash before use.
func (e *Engine) AssembleChunks(op FSOp) ([]byte, error) {
	var size int
	for _, cr := range op.Chunks {
		size += int(cr.Len)
	}
	buf := make([]byte, 0, size)
	data := op.Data
	local := make(map[cas.Hash][]byte)
	for _, cr := range op.Chunks {
		if cr.Inline {
			if len(data) < int(cr.Len) {
				return nil, ErrMissingChunk
			}
			b := data[:cr.Len]
			data = data[cr.Len:]
			if cas.SumChunk(b) != cr.Hash {
				return nil, ErrMissingChunk
			}
			buf = append(buf, b...)
			local[cr.Hash] = b
			continue
		}
		if b, ok := local[cr.Hash]; ok {
			buf = append(buf, b...)
			continue
		}
		b, ok := e.cas.Get(cr.Hash)
		if !ok || len(b) != int(cr.Len) {
			return nil, ErrMissingChunk
		}
		buf = append(buf, b...)
		local[cr.Hash] = b
	}
	return buf, nil
}
