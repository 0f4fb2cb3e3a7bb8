package repl

import (
	"repro/internal/cas"
	"repro/internal/localfs"
	"repro/internal/simnet"
)

// ManifestLocal returns the chunk manifest of the local regular file at
// phys, computing and indexing it as needed, and the file's mode — the
// CHUNK_MANIFEST server primitive. ok is false when phys is missing or not a
// regular file.
func (e *Engine) ManifestLocal(phys string) (cas.Manifest, uint32, bool) {
	attr, err := e.store.LookupPath(phys)
	if err != nil || attr.Type != localfs.TypeRegular {
		return nil, 0, false
	}
	m, err := e.mk.ManifestOf(phys)
	if err != nil {
		return nil, 0, false
	}
	return m, attr.Mode, true
}

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
