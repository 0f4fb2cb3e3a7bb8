// Package wire implements an XDR-style binary codec (RFC 4506 subset) used
// for NFS RPC bodies and Pastry overlay messages. NFS is defined over XDR,
// so reproducing the encoding keeps the substrate faithful: all quantities
// are big-endian, opaque data is padded to 4-byte boundaries, and strings
// are length-prefixed opaques.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
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

// Encoder appends XDR-encoded values to a byte slice, its head, and records
// the bodies PutOpaqueRef lends it beside the head instead of copying them.
type Encoder struct {
	buf  []byte
	lent []Lent
}

// NewEncoder returns an encoder with the given initial capacity hint.
func NewEncoder(capHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capHint)}
}

// Use points the encoder at buf's storage: encoding appends from buf[:0], and
// only a frame that outgrows cap(buf) allocates, growing past it as a fresh
// encoder's frame would (once, for a PutOpaque). For an encoder that lives beside an array in a
// larger object (Codec), so a small frame costs no allocation of its own.
func (e *Encoder) Use(buf []byte) {
	e.buf = buf[:0]
	e.lent = e.lent[:0]
}

// Bytes returns the encoded buffer. The encoder retains ownership; callers
// must copy if they keep the slice past the next Put call. A frame that
// lends a body is not one buffer: Bytes panics on it, and Frame returns it.
func (e *Encoder) Bytes() []byte {
	if len(e.lent) > 0 {
		panic("wire: Bytes of a frame that lends a body; use Frame")
	}
	return e.buf
}

// Frame returns the encoded frame: the head and the bodies lent to it. The
// encoder retains ownership of the head, as for Bytes.
func (e *Encoder) Frame() Frame { return Frame{Head: e.buf, Lent: e.lent} }

// Len returns the number of bytes encoded into the head so far: the offset
// the next Put writes at, lent bodies not counted.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse, forgetting the bodies it was lent.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.lent)
	e.lent = e.lent[:0]
}

// PutUint32 appends a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

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

// Grow reserves room for n more bytes, so a frame whose size is known up
// front is allocated once, at that size, instead of regrown as it fills. A
// reservation into an empty frame is exact, whatever room the frame started
// on (a Codec's array); later ones amortise by doubling.
func (e *Encoder) Grow(n int) {
	if need := len(e.buf) + n; need > cap(e.buf) {
		size := need
		if len(e.buf) > 0 {
			size = max(need, 2*cap(e.buf))
		}
		buf := make([]byte, len(e.buf), size)
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

// PutOpaqueRef appends variable-length opaque data without copying it: the
// length word and the padding go into the head, and p is recorded as a body
// lent to the frame at that offset. The joined frame is byte for byte what
// PutOpaque encodes. p is read-only until the frame's last send returns.
func (e *Encoder) PutOpaqueRef(p []byte) {
	e.PutUint32(uint32(len(p)))
	if len(p) > 0 {
		e.lent = append(e.lent, Lent{At: len(e.buf), Body: p[:len(p):len(p)]})
	}
	for i := 0; i < pad4(len(p)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// LendSink records the spare capacity of p, p[len(p):cap(p)], as the
// frame's sink: the writable buffer where the caller wants the reply's data.
// It adds no bytes to the frame and is the last call that encodes it. The
// one handler run that takes the sink (TakeSink) may write it until the call
// returns; nothing keeps it after that.
func (e *Encoder) LendSink(p []byte) {
	e.lent = append(e.lent, Lent{At: len(e.buf), Body: p[len(p):len(p):cap(p)]})
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

// smallFrame is the frame a Codec holds without allocating. 264 bytes makes
// the Codec — a 48-byte Encoder, a 72-byte Decoder, one 32-byte Lent and the
// array — 416 bytes, exactly a Go size class.
const smallFrame = 264

// Codec is one message's encoder and decoder together with storage for a
// small frame, in one allocation: the encoder starts on the array, so a frame
// of up to smallFrame bytes costs nothing more and only a larger one grows a
// buffer of its own, and the record of the first body the frame lends, or
// of the sink it lends, sits beside it. A frame encoded into the array lives
// as long as the Codec does, and a Codec kept alive by its frame keeps alive
// whatever its decoder reads: point D at nil (D.Reset(nil)) before handing
// E's bytes away.
//
// A request is encoded into a Codec from GetCodec and freed (Free) once its
// call has returned and its reply has been decoded: no transport and no
// handler keeps a request past its call (DESIGN §10), so the head is dead
// then. A reply is the caller's to keep: a server encodes it into a pooled
// Codec too and hands the caller Keep's bytes, or into a NewCodec when the
// reply's head must outlive the handler (LendReply).
type Codec struct {
	E     Encoder
	D     Decoder
	lent  [1]Lent
	small [smallFrame]byte
}

// NewCodec returns a Codec whose encoder starts on the Codec's own array:
// the one for a reply, which its caller keeps.
func NewCodec() *Codec { return new(Codec).start() }

func (c *Codec) start() *Codec {
	c.E.Use(c.small[:])
	c.E.lent = c.lent[:0]
	return c
}

// codecs holds the freed request Codecs. Free leaves nothing in one that
// points outside it, so the pool pins no frame, reply or body.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// GetCodec returns a Codec for a request, as NewCodec does but recycled from
// the pool: its caller frees it once the call has returned and the reply has
// been decoded.
func GetCodec() *Codec { return codecs.Get().(*Codec).start() }

// Free returns a Codec from GetCodec to the pool. Nothing may use c, a frame
// it encoded or a slice of its head afterwards. It resets the decoder to
// nil, clears the records of the bodies and the sink the frame lent, and
// drops a head that grew past the array, so the pooled Codec holds no
// reply, request or body, nor a large frame. A nil c is a no-op, for a call
// that failed before it had a reply.
func (c *Codec) Free() {
	if c == nil {
		return
	}
	if poisonFreed.Load() {
		c.poison()
	} else {
		clear(c.E.lent)
		c.lent = [1]Lent{}
	}
	c.D = Decoder{}
	c.E = Encoder{}
	codecs.Put(c)
}

// Keep returns the encoded head, which lends no body, for a caller to keep
// past Free: a bare status word as its shared frame (StatusFrame), any other
// head in the Codec's array as a copy of its own length, and a head that
// grew past the array as itself, which the Codec then lets go of, so Free
// neither poisons it nor pools it.
func (c *Codec) Keep() []byte {
	b := c.E.Bytes()
	if cap(b) > 0 && &b[:1][0] == &c.small[0] {
		if len(b) == 4 {
			return StatusFrame(binary.BigEndian.Uint32(b))
		}
		return bytes.Clone(b)
	}
	c.E.Use(c.small[:])
	return b
}

// statusFrames holds the frame of every reply that is a status word alone,
// for the words below its length: every NFS status and every kosha code.
var statusFrames = func() (t [256][4]byte) {
	for i := range t {
		binary.BigEndian.PutUint32(t[i][:], uint32(i))
	}
	return t
}()

// StatusFrame returns the 4-byte frame of a reply that is the status word v
// alone. For v below 256 it is a package-level frame shared by every such
// reply, so a bare status costs no allocation; it is read-only, as every
// reply is once handed to a transport (DESIGN §10's borrow rule), and no
// Codec owns it, so no Free poisons or pools it. A larger v gets a frame of
// its own.
func StatusFrame(v uint32) []byte {
	if v < uint32(len(statusFrames)) {
		return statusFrames[v][:4:4]
	}
	return binary.BigEndian.AppendUint32(make([]byte, 0, 4), v)
}

// Poison is the byte a freed Codec's head is filled with while PoisonFreed is
// on, so a use after Free shows as a run of it where data was expected.
const Poison = 0xDB

var (
	poisonFreed atomic.Bool
	poisonBody  = bytes.Repeat([]byte{Poison}, 16)
)

func init() { poisonFreed.Store(raceEnabled) }

// PoisonFreed sets whether Free fills a Codec's head, the array and any
// larger head it grew, with Poison and points its lent records at a body of
// Poison before pooling it, and returns the previous setting. It is on in a
// binary built with the race detector, so the raced tests run every call
// path against recycled heads; a test turns it on to do the same without.
func PoisonFreed(on bool) bool { return poisonFreed.Swap(on) }

// PoisonLent fills b with Poison while PoisonFreed is on: for a buffer
// outside this package that is lent as a request head is, and dead once its
// borrower has returned, so a borrower that kept it reads Poison there too.
func PoisonLent(b []byte) {
	if poisonFreed.Load() {
		fillPoison(b)
	}
}

func fillPoison(b []byte) {
	for i := range b {
		b[i] = Poison
	}
}

func (c *Codec) poison() {
	fillPoison(c.small[:])
	fillPoison(c.E.buf[:cap(c.E.buf)])
	for _, lent := range [][]Lent{c.lent[:], c.E.lent[:cap(c.E.lent)]} {
		for i := range lent {
			lent[i] = Lent{At: -1, Body: poisonBody}
		}
	}
}

// Lent is one body lent to a frame: Body's bytes sit in the joined frame
// just before Head[At:]. A record with an empty Body is the frame's sink
// (LendSink), and Body's capacity is the room it offers; PutOpaqueRef never
// records an empty body.
type Lent struct {
	At   int
	Body []byte
}

// Frame is an encoded message as an Encoder leaves it: Head, the bytes the
// encoder wrote, and the bodies PutOpaqueRef lent it, in order of offset,
// with its sink if it lends one. Joined, it is the flat frame the same calls
// with PutOpaque encode; a sink adds nothing to it. A frame that lends
// nothing is its head.
type Frame struct {
	Head []byte
	Lent []Lent
}

// Len returns the length of the joined frame.
func (f Frame) Len() int {
	n := len(f.Head)
	for _, l := range f.Lent {
		n += len(l.Body)
	}
	return n
}

// AppendTo appends the joined frame to dst.
func (f Frame) AppendTo(dst []byte) []byte {
	at := 0
	for _, l := range f.Lent {
		dst = append(append(dst, f.Head[at:l.At]...), l.Body...)
		at = l.At
	}
	return append(dst, f.Head[at:]...)
}

// AppendPieces appends the joined frame's non-empty pieces to v in order —
// stretches of the head and the lent bodies between them — for one
// vectored write of the frame from where its bytes lie.
func (f Frame) AppendPieces(v [][]byte) [][]byte {
	at := 0
	for _, l := range f.Lent {
		if l.At > at {
			v = append(v, f.Head[at:l.At])
		}
		if len(l.Body) > 0 {
			v = append(v, l.Body)
		}
		at = l.At
	}
	if len(f.Head) > at {
		v = append(v, f.Head[at:])
	}
	return v
}

// sink returns the frame's sink record, if it lends one.
func (f Frame) sink() (Lent, bool) {
	for _, l := range f.Lent {
		if len(l.Body) == 0 {
			return l, true
		}
	}
	return Lent{}, false
}

// The request argument of a transport call is a byte slice, so a frame that
// lends bodies crosses the call as its head, and lending keeps the frame
// findable from that head until the call returns: Lend files the frame under
// its head's first byte, FrameOf — what a transport counts and sends, what a
// server decodes — looks it up, EndLend takes it out. A slice that heads no
// lent frame is a one-piece frame.
//
// A request that lends a sink files its reply the same way: the handler run
// that takes the sink (TakeSink) returns LendReply's head, and ReplyOf gives
// the transport and the caller the reply frame whose body is the sink's
// filled part.
var lending struct {
	mu     sync.Mutex
	n      atomic.Int64 // frames filed, so FrameOf skips the lock when none is
	frames map[*byte]lentFrame
}

type lentFrame struct {
	f     Frame
	refs  int
	taken bool  // a handler run has taken f's sink
	reply Frame // the reply LendReply filed, its body in f's sink
}

// Lend returns the request slice that carries f through a transport call:
// f's head, under which f stays filed until the matching EndLend. A frame
// that lends nothing is returned as its head and filed nowhere. A frame an
// Encoder built has a head whenever it lends, the body's length word.
func Lend(f Frame) []byte {
	if len(f.Lent) == 0 {
		return f.Head
	}
	if len(f.Head) == 0 {
		panic("wire: Lend of a frame that lends a body but has no head")
	}
	k := &f.Head[0]
	lending.mu.Lock()
	if lending.frames == nil {
		lending.frames = make(map[*byte]lentFrame)
	}
	lf := lending.frames[k]
	lf.f = f
	lf.refs++
	lending.frames[k] = lf
	lending.mu.Unlock()
	lending.n.Add(1)
	return f.Head
}

// EndLend ends one Lend of f: once the last call that carried f has
// returned, FrameOf no longer finds it.
func EndLend(f Frame) {
	if len(f.Lent) == 0 {
		return
	}
	k := &f.Head[0]
	lending.mu.Lock()
	lf, ok := lending.frames[k]
	if lf.refs > 1 {
		lf.refs--
		lending.frames[k] = lf
	} else {
		delete(lending.frames, k)
	}
	lending.mu.Unlock()
	if ok {
		lending.n.Add(-1)
	}
}

// FrameOf returns the frame a transport call's request slice carries: the
// lent frame req heads, or req itself as a one-piece frame. Every call
// through a transport asks, so the common answer, nothing is lent, inlines.
func FrameOf(req []byte) Frame {
	if lending.n.Load() == 0 {
		return Frame{Head: req}
	}
	return lentFrameOf(req)
}

func lentFrameOf(req []byte) Frame {
	if len(req) == 0 {
		return Frame{Head: req}
	}
	lending.mu.Lock()
	lf, ok := lending.frames[&req[0]]
	lending.mu.Unlock()
	if !ok || len(lf.f.Head) != len(req) {
		return Frame{Head: req}
	}
	return lf.f
}

// TakeSink returns the sink the lent frame req heads, empty and with the room
// its caller offers, and marks it taken: ok is false when req lends no sink
// or a handler run took it already, so a duplicate delivery of the request
// (simnet.LinkFault.Dup) or a retry finds it taken and replies flat. The one
// run that takes it may append to it until the call returns, and replies
// with LendReply.
func TakeSink(req []byte) (sink []byte, ok bool) {
	if lending.n.Load() == 0 || len(req) == 0 {
		return nil, false
	}
	k := &req[0]
	lending.mu.Lock()
	defer lending.mu.Unlock()
	lf, filed := lending.frames[k]
	if !filed || len(lf.f.Head) != len(req) || lf.taken {
		return nil, false
	}
	s, ok := lf.f.sink()
	if !ok {
		return nil, false
	}
	lf.taken = true
	lending.frames[k] = lf
	return s.Body, true
}

// LendReply returns the response slice that carries f, the reply of the run
// that took req's sink, back through the transport: f's head, with f filed
// beside req's frame until the caller's EndLend, so ReplyOf finds it. f lends
// at most one body, the sink's filled part, which PutOpaqueRef recorded. A
// reply that lends anything else — bytes a store read into a buffer of its
// own because the sink had too little room — comes back joined, a flat
// frame.
func LendReply(req []byte, f Frame) []byte {
	if len(f.Lent) == 0 {
		return f.Head
	}
	if len(f.Lent) == 1 && len(req) > 0 {
		k := &req[0]
		lending.mu.Lock()
		lf, filed := lending.frames[k]
		s, ok := lf.f.sink()
		if filed && ok && lf.taken && cap(s.Body) > 0 && &f.Lent[0].Body[0] == &s.Body[:1][0] {
			lf.reply = f
			lending.frames[k] = lf
			lending.mu.Unlock()
			return f.Head
		}
		lending.mu.Unlock()
	}
	return f.AppendTo(make([]byte, 0, f.Len()))
}

// ReplyOf returns the reply frame a call's response slice carries: the one
// the handler run that took req's sink filed with LendReply, whose body is
// the sink's filled part, or resp itself as a one-piece frame. A transport
// counts and charges its length; the caller decodes it, before EndLend. The
// filed reply is matched by its head's bytes, so a layer that copies the
// response slice still finds it; a flat reply, which carries its data, never
// has the same bytes as a head whose data sits in the sink.
func ReplyOf(req, resp []byte) Frame {
	if lending.n.Load() == 0 || len(req) == 0 || len(resp) == 0 {
		return Frame{Head: resp}
	}
	lending.mu.Lock()
	lf, filed := lending.frames[&req[0]]
	lending.mu.Unlock()
	if !filed || len(lf.f.Head) != len(req) || !bytes.Equal(lf.reply.Head, resp) {
		return Frame{Head: resp}
	}
	return Frame{Head: resp, Lent: lf.reply.Lent}
}

// Decoder consumes XDR-encoded values from a byte slice or a Frame: buf is
// the frame's head, and lent holds the bodies not yet read, each at its
// offset of buf.
type Decoder struct {
	buf  []byte
	lent []Lent
	off  int
	err  error
}

// NewDecoder wraps buf for decoding. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at the start of buf and clears its error, as
// NewDecoder does, for a decoder that is part of a larger value and so needs
// no allocation of its own.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// ResetFrame is Reset for a frame that may lend bodies: the decoder reads
// the joined frame, and OpaqueRef at a lent body returns the body itself.
func (d *Decoder) ResetFrame(f Frame) { *d = Decoder{buf: f.Head, lent: f.Lent} }

// Err returns the first error encountered, if any. Once an error occurs all
// further reads return zero values, so call sites may decode a full struct
// and check Err once.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int {
	n := len(d.buf) - d.off
	for _, l := range d.lent {
		n += len(l.Body)
	}
	return n
}

// Done returns an error if bytes remain or a decode error occurred; call it
// at the end of a message to reject trailing garbage.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("wire: %d trailing bytes", n)
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
	if len(d.lent) > 0 && d.lent[0].At < d.off+n {
		d.join()
	}
	if d.off+n > len(d.buf) || n < 0 {
		d.fail(ErrShort)
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

// join copies the unread rest of the frame, lent bodies and all, into one
// buffer and reads on from there: the path of a read that does not line up
// with a lent body, which only a decode of the wrong message takes.
func (d *Decoder) join() {
	f := Frame{Head: d.buf[d.off:], Lent: make([]Lent, len(d.lent))}
	for i, l := range d.lent {
		f.Lent[i] = Lent{At: l.At - d.off, Body: l.Body}
	}
	d.buf, d.lent, d.off = f.AppendTo(make([]byte, 0, f.Len())), nil, 0
}

// Uint32 reads a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

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
// aliases the decoder's buffer, or is the body itself where the frame lends
// one, its capacity capped so an append cannot reach the bytes that follow.
// For consumers that copy the bytes into their own storage or hand them to
// the buffer's owner; anything kept past the buffer's lifetime needs Opaque.
func (d *Decoder) OpaqueRef() []byte {
	n := d.Uint32()
	if n > MaxOpaque {
		d.fail(ErrTooLong)
		return nil
	}
	if d.err == nil && len(d.lent) > 0 && d.lent[0].At == d.off && len(d.lent[0].Body) == int(n) {
		p := d.lent[0].Body
		d.lent = d.lent[1:]
		d.take(pad4(int(n)))
		return p[:n:n]
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

// StringRef reads a length-prefixed string without copying it: a view of the
// bytes OpaqueRef would return, valid only as long as they are. It is for a
// name or path a handler lends to calls that borrow it, a store's included
// (localfs.FileSystem); anything kept past the request needs String, or
// strings.Clone of the view.
func (d *Decoder) StringRef() string { return View(d.OpaqueRef()) }

// View returns b's bytes as a string without copying them. The string is
// valid only while b's bytes are alive and unchanged, so it is lent as b is.
func View(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

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
