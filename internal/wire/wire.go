// Package wire implements an XDR-style binary codec (RFC 4506 subset) used
// for NFS RPC bodies and Pastry overlay messages. NFS is defined over XDR,
// so reproducing the encoding keeps the substrate faithful: all quantities
// are big-endian, opaque data is padded to 4-byte boundaries, and strings
// are length-prefixed opaques.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MaxOpaque bounds a single opaque/string item to keep a corrupted length
// prefix from causing a huge allocation.
const MaxOpaque = 1 << 26 // 64 MiB

// MaxItems bounds decoded array lengths for the same reason.
const MaxItems = 1 << 20

// ErrShort is returned when a decode runs past the end of the buffer.
var ErrShort = errors.New("wire: buffer too short")

// ErrTooLong is returned when a length prefix exceeds the codec limits.
var ErrTooLong = errors.New("wire: item exceeds size limit")

func pad4(n int) int { return (4 - n%4) % 4 }

// Encoder appends XDR-encoded values to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity hint.
func NewEncoder(capHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capHint)}
}

// Bytes returns the encoded buffer. The encoder retains ownership; callers
// must copy if they keep the slice past the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint32 appends a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutInt32 appends a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 appends a 64-bit unsigned integer.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutInt64 appends a 64-bit signed integer.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool appends a boolean as a 32-bit 0/1.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFloat64 appends an IEEE-754 double.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// Grow reserves room for n more bytes, so a frame whose size is known up
// front is allocated once, at that size, instead of regrown as it fills.
// Repeated small reservations still amortise by doubling.
func (e *Encoder) Grow(n int) {
	if need := len(e.buf) + n; need > cap(e.buf) {
		buf := make([]byte, len(e.buf), max(need, 2*cap(e.buf)))
		copy(buf, e.buf)
		e.buf = buf
	}
}

// PutOpaque appends variable-length opaque data: u32 length, bytes, padding.
// The frame grows at most once for it.
func (e *Encoder) PutOpaque(p []byte) {
	e.Grow(4 + len(p) + pad4(len(p)))
	e.PutUint32(uint32(len(p)))
	e.PutFixedOpaque(p)
}

// PutOpaqueFunc appends one opaque item whose content fill appends to the
// buffer it is given, so a producer writes the bytes into the frame itself
// instead of handing over a slice to copy. The length word and the padding
// are written after fill returns; fill must leave the bytes before its
// argument's length as they are.
func (e *Encoder) PutOpaqueFunc(fill func(dst []byte) []byte) {
	at := len(e.buf)
	e.buf = fill(append(e.buf, 0, 0, 0, 0))
	n := len(e.buf) - at - 4
	binary.BigEndian.PutUint32(e.buf[at:], uint32(n))
	for i := 0; i < pad4(n); i++ {
		e.buf = append(e.buf, 0)
	}
}

// SetBool overwrites the boolean word at byte offset at, one an earlier
// PutBool wrote, for a value known only after what follows it is encoded.
func (e *Encoder) SetBool(at int, v bool) {
	var w uint32
	if v {
		w = 1
	}
	binary.BigEndian.PutUint32(e.buf[at:], w)
}

// PutFixedOpaque appends fixed-length opaque data (no length prefix).
func (e *Encoder) PutFixedOpaque(p []byte) {
	e.buf = append(e.buf, p...)
	for i := 0; i < pad4(len(p)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// DigestSize is the fixed length of a content digest on the wire (SHA-256,
// see internal/merkle).
const DigestSize = 32

// PutDigest appends a fixed 32-byte content digest.
func (e *Encoder) PutDigest(d [DigestSize]byte) {
	e.PutFixedOpaque(d[:])
}

// PutString appends a string as a variable-length opaque.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	for i := 0; i < pad4(len(s)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// PutStrings appends a counted array of strings.
func (e *Encoder) PutStrings(ss []string) {
	e.PutUint32(uint32(len(ss)))
	for _, s := range ss {
		e.PutString(s)
	}
}

// Decoder consumes XDR-encoded values from a byte slice.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for decoding. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at the start of buf and clears its error, as
// NewDecoder does, for a decoder that is part of a larger value and so needs
// no allocation of its own.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the first error encountered, if any. Once an error occurs all
// further reads return zero values, so call sites may decode a full struct
// and check Err once.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done returns an error if bytes remain or a decode error occurred; call it
// at the end of a message to reject trailing garbage.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) || n < 0 {
		d.fail(ErrShort)
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

// Uint32 reads a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// Int32 reads a 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 reads a 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Int64 reads a 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool reads a 32-bit boolean. Any nonzero value is true, per XDR practice.
func (d *Decoder) Bool() bool { return d.Uint32() != 0 }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Opaque reads variable-length opaque data. The returned slice is a copy.
func (d *Decoder) Opaque() []byte {
	p := d.OpaqueRef()
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// OpaqueRef reads variable-length opaque data without copying: the result
// aliases the decoder's buffer, its capacity capped so an append cannot
// reach the bytes that follow. For consumers that copy the bytes into their
// own storage or hand them to the buffer's owner; anything kept past the
// buffer's lifetime needs Opaque.
func (d *Decoder) OpaqueRef() []byte {
	n := d.Uint32()
	if n > MaxOpaque {
		d.fail(ErrTooLong)
		return nil
	}
	p := d.take(int(n))
	if p == nil {
		return nil
	}
	d.take(pad4(int(n)))
	return p[:n:n]
}

// FixedOpaque reads n bytes of fixed-length opaque data into dst.
func (d *Decoder) FixedOpaque(dst []byte) {
	p := d.take(len(dst))
	if p == nil {
		return
	}
	copy(dst, p)
	d.take(pad4(len(dst)))
}

// Digest reads a fixed 32-byte content digest.
func (d *Decoder) Digest() (out [DigestSize]byte) {
	d.FixedOpaque(out[:])
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint32()
	if n > MaxOpaque {
		d.fail(ErrTooLong)
		return ""
	}
	p := d.take(int(n))
	if p == nil {
		return ""
	}
	d.take(pad4(int(n)))
	return string(p)
}

// Strings reads a counted array of strings.
func (d *Decoder) Strings() []string {
	n := d.Uint32()
	if n > MaxItems {
		d.fail(ErrTooLong)
		return nil
	}
	out := make([]string, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// ArrayLen reads a counted-array length prefix and validates it: against
// MaxItems, and against the bytes that follow — every item encodes to at
// least one 4-byte word, so a count the buffer cannot hold is refused here,
// before the caller sizes an allocation by it.
func (d *Decoder) ArrayLen() int {
	n := d.Uint32()
	if n > MaxItems {
		d.fail(ErrTooLong)
		return 0
	}
	if int(n) > d.Remaining()/4 {
		d.fail(ErrShort)
		return 0
	}
	return int(n)
}
