package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path"
	"sort"
)

// The oracle: every byte the harness writes is a pure function of (path at
// write time, version, offset, seed), so any read — whole file, window, random
// poke, from any mount — is checked without keeping a copy, and a model of
// acknowledged writes (sizes, versions, directory membership) judges every
// stat and listing.

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a splitmix64 stream: allocation-free and identical on every host.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	v := mix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return v
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// contentKey identifies one version of one file's bytes.
func contentKey(seed uint64, p string, version uint32) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return mix64(h.Sum64() ^ seed ^ uint64(version)<<40)
}

// fill writes the payload bytes [off, off+len(buf)) of the content key:
// byte i of the file is byte i%8 of mix64(key + i/8).
func fill(buf []byte, key uint64, off int64) {
	i := 0
	for ; i < len(buf) && (off+int64(i))%8 != 0; i++ {
		buf[i] = payloadByte(key, off+int64(i))
	}
	w := uint64(off+int64(i)) / 8
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], mix64(key+w))
		w++
	}
	for ; i < len(buf); i++ {
		buf[i] = payloadByte(key, off+int64(i))
	}
}

func payloadByte(key uint64, pos int64) byte {
	return byte(mix64(key+uint64(pos)/8) >> (8 * (uint64(pos) % 8)))
}

// check reports whether buf equals the payload at [off, off+len(buf)).
func check(buf []byte, key uint64, off int64) bool {
	var want [4096]byte
	for len(buf) > 0 {
		n := min(len(buf), len(want))
		fill(want[:n], key, off)
		if !bytes.Equal(buf[:n], want[:n]) {
			return false
		}
		buf, off = buf[n:], off+int64(n)
	}
	return true
}

// fileState is the acknowledged state of one file.
type fileState struct {
	key  uint64 // content key of the acknowledged bytes
	size int
}

// model is the acknowledged-writes model of one system under test.
type model struct {
	seed  uint64
	files map[string]fileState
	dirs  map[string]map[string]bool // directory -> child name -> is a directory
}

func newModel(seed uint64) *model {
	return &model{seed: seed, files: map[string]fileState{}, dirs: map[string]map[string]bool{"/": {}}}
}

// addDir records dir (and its ancestors) as existing.
func (m *model) addDir(p string) {
	if p == "/" || m.dirs[p] != nil {
		return
	}
	parent, base := path.Dir(p), path.Base(p)
	m.addDir(parent)
	m.dirs[parent][base] = true
	m.dirs[p] = map[string]bool{}
}

func (m *model) rmDir(p string) {
	parent, base := path.Dir(p), path.Base(p)
	delete(m.dirs[parent], base)
	delete(m.dirs, p)
}

// wrote records an acknowledged whole-file write of the given version.
func (m *model) wrote(p string, version uint32, size int) uint64 {
	key := contentKey(m.seed, p, version)
	m.setFile(p, fileState{key: key, size: size})
	return key
}

func (m *model) setFile(p string, st fileState) {
	dir, base := path.Dir(p), path.Base(p)
	m.addDir(dir)
	m.dirs[dir][base] = false
	m.files[p] = st
}

func (m *model) rmFile(p string) {
	dir, base := path.Dir(p), path.Base(p)
	delete(m.dirs[dir], base)
	delete(m.files, p)
}

// entry is one row of a directory listing as the oracle compares it.
type entry struct {
	Name  string
	IsDir bool
}

// checkListing compares a listing with the model's view of dir.
func (m *model) checkListing(dir string, got []entry) error {
	want := m.dirs[dir]
	if len(got) != len(want) {
		return fmt.Errorf("listing %s: %d entries, want %d", dir, len(got), len(want))
	}
	for _, e := range got {
		isDir, ok := want[e.Name]
		if !ok || isDir != e.IsDir {
			return fmt.Errorf("listing %s: unexpected entry %q (dir=%v)", dir, e.Name, e.IsDir)
		}
	}
	return nil
}

// checkFile compares a whole-file read with the model.
func (m *model) checkFile(p string, data []byte) error {
	st, ok := m.files[p]
	if !ok {
		return fmt.Errorf("read %s: not in the model", p)
	}
	if len(data) != st.size {
		return fmt.Errorf("read %s: %d bytes, want %d", p, len(data), st.size)
	}
	if !check(data, st.key, 0) {
		return fmt.Errorf("read %s: content mismatch", p)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
