package wire

import (
	"bytes"
	"testing"
)

// FuzzDecoderNoPanic feeds arbitrary bytes through every decoder entry
// point: malformed input must produce errors, never panics or huge
// allocations.
func FuzzDecoderNoPanic(f *testing.F) {
	e := NewEncoder(64)
	e.PutUint32(7)
	e.PutString("seed")
	e.PutOpaque([]byte{1, 2, 3})
	e.PutStrings([]string{"a", "b"})
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		sink := int(d.Uint32())
		sink += len(d.String())
		sink += len(d.Opaque())
		sink += len(d.Strings())
		if d.Bool() {
			sink++
		}
		sink += int(d.Int64())
		_ = d.Float64()
		var fixed [8]byte
		d.FixedOpaque(fixed[:])
		sink += d.ArrayLen()
		_ = d.Done()
		_ = sink

		// The borrowing decode obeys the same limits as the copying one and
		// never hands out bytes beyond its item, let alone beyond the input.
		ref, cp := NewDecoder(data), NewDecoder(data)
		for ref.Err() == nil {
			before := ref.Remaining()
			r, c := ref.OpaqueRef(), cp.Opaque()
			if !bytes.Equal(r, c) || (ref.Err() == nil) != (cp.Err() == nil) || ref.Remaining() != cp.Remaining() {
				t.Fatalf("OpaqueRef %x (err %v) and Opaque %x (err %v) disagree", r, ref.Err(), c, cp.Err())
			}
			if len(r) > MaxOpaque || cap(r) != len(r) || len(r) > before {
				t.Fatalf("borrowed opaque len %d cap %d out of %d remaining bytes", len(r), cap(r), before)
			}
			if len(r) > 0 {
				start := len(data) - before + 4
				if &r[0] != &data[start] {
					t.Fatalf("borrowed opaque does not point into the input at %d", start)
				}
			}
		}
	})
}

// FuzzRoundTrip checks that whatever the encoder produces, the decoder
// reads back verbatim.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(1), "hello", []byte{9, 9})
	f.Add(uint32(0), "", []byte{})
	f.Fuzz(func(t *testing.T, a uint32, s string, p []byte) {
		e := NewEncoder(64)
		e.PutUint32(a)
		e.PutString(s)
		e.PutOpaque(p)
		d := NewDecoder(e.Bytes())
		if d.Uint32() != a {
			t.Fatal("u32 mismatch")
		}
		if d.String() != s {
			t.Fatal("string mismatch")
		}
		if got := d.Opaque(); !bytes.Equal(got, p) && !(len(got) == 0 && len(p) == 0) {
			t.Fatal("opaque mismatch")
		}
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	})
}
