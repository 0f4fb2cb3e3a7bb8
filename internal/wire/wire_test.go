package wire

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/racetest"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutUint32(0xdeadbeef)
	e.PutUint64(0x0123456789abcdef)
	e.PutInt64(-1 << 62)
	e.PutBool(true)
	e.PutBool(false)

	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 0xdeadbeef {
		t.Errorf("u32 = %x", v)
	}
	if v := d.Uint64(); v != 0x0123456789abcdef {
		t.Errorf("u64 = %x", v)
	}
	if v := d.Int64(); v != -1<<62 {
		t.Errorf("i64 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool mismatch")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder(32)
		p := bytes.Repeat([]byte{0xab}, n)
		e.PutOpaque(p)
		if e.Len()%4 != 0 {
			t.Fatalf("opaque of %d bytes not 4-aligned: %d", n, e.Len())
		}
		d := NewDecoder(e.Bytes())
		got := d.Opaque()
		if !bytes.Equal(got, p) {
			t.Fatalf("opaque %d round trip: %v", n, got)
		}
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFixedOpaque(t *testing.T) {
	e := NewEncoder(16)
	e.PutFixedOpaque([]byte{1, 2, 3, 4, 5})
	e.PutUint32(9)
	d := NewDecoder(e.Bytes())
	var dst [5]byte
	d.FixedOpaque(dst[:])
	if dst != [5]byte{1, 2, 3, 4, 5} {
		t.Fatalf("fixed = %v", dst)
	}
	if d.Uint32() != 9 {
		t.Fatal("value after padded fixed opaque misaligned")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutString("")
	e.PutString("abc")
	e.PutString("héllo, wörld")
	d := NewDecoder(e.Bytes())
	if d.String() != "" || d.String() != "abc" || d.String() != "héllo, wörld" {
		t.Fatal("string round trip failed")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if d.Uint32() != 0 {
		t.Error("short read should yield zero")
	}
	if d.Err() != ErrShort {
		t.Errorf("err = %v", d.Err())
	}
	// Further reads stay zero and do not panic.
	if d.Uint64() != 0 || d.String() != "" {
		t.Error("reads after error should yield zeros")
	}
	if d.Done() == nil {
		t.Error("Done should report the error")
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(MaxOpaque + 1)
	d := NewDecoder(e.Bytes())
	if d.Opaque() != nil || d.Err() != ErrTooLong {
		t.Errorf("oversized opaque accepted: %v", d.Err())
	}

	e.Reset()
	e.PutUint32(MaxItems + 1)
	d = NewDecoder(e.Bytes())
	if d.ArrayLen() != 0 || d.Err() != ErrTooLong {
		t.Errorf("oversized ArrayLen accepted: %v", d.Err())
	}

	// A count the rest of the buffer cannot hold, at one word per item.
	e.Reset()
	e.PutUint32(3)
	e.PutUint32(0)
	e.PutUint32(0)
	d = NewDecoder(e.Bytes())
	if d.ArrayLen() != 0 || d.Err() != ErrShort {
		t.Errorf("ArrayLen 3 with 2 words left accepted: %v", d.Err())
	}
	e.PutUint32(0)
	if d = NewDecoder(e.Bytes()); d.ArrayLen() != 3 || d.Err() != nil {
		t.Errorf("ArrayLen 3 with 3 words left refused: %v", d.Err())
	}
}

func TestTrailingGarbage(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(1)
	e.PutUint32(2)
	d := NewDecoder(e.Bytes())
	d.Uint32()
	if err := d.Done(); err == nil {
		t.Error("Done should reject trailing bytes")
	}
}

func TestDecoderDoesNotCopyInput(t *testing.T) {
	// Opaque must copy out, so mutating the source after decode is safe.
	e := NewEncoder(16)
	e.PutOpaque([]byte{1, 2, 3, 4})
	buf := append([]byte(nil), e.Bytes()...)
	d := NewDecoder(buf)
	got := d.Opaque()
	buf[4] = 0xff
	if got[0] != 1 {
		t.Fatal("Opaque must return a copy")
	}
}

func TestPropScalarsRoundTrip(t *testing.T) {
	f := func(a uint32, c uint64, e64 int64, bl bool) bool {
		e := NewEncoder(64)
		e.PutUint32(a)
		e.PutUint64(c)
		e.PutInt64(e64)
		e.PutBool(bl)
		d := NewDecoder(e.Bytes())
		return d.Uint32() == a && d.Uint64() == c && d.Int64() == e64 &&
			d.Bool() == bl && d.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropOpaqueStringsRoundTrip(t *testing.T) {
	f := func(p []byte, s string) bool {
		e := NewEncoder(64)
		e.PutOpaque(p)
		e.PutString(s)
		d := NewDecoder(e.Bytes())
		gp := d.Opaque()
		gs := d.String()
		if !bytes.Equal(gp, p) && !(len(gp) == 0 && len(p) == 0) {
			return false
		}
		return gs == s && d.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropEncodedLengthAligned(t *testing.T) {
	f := func(p []byte, s string) bool {
		e := NewEncoder(32)
		e.PutOpaque(p)
		e.PutString(s)
		return e.Len()%4 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeMixed(b *testing.B) {
	payload := bytes.Repeat([]byte{7}, 1024)
	e := NewEncoder(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutUint32(42)
		e.PutString("lookup")
		e.PutOpaque(payload)
	}
}

func BenchmarkDecodeMixed(b *testing.B) {
	payload := bytes.Repeat([]byte{7}, 1024)
	e := NewEncoder(2048)
	e.PutUint32(42)
	e.PutString("lookup")
	e.PutOpaque(payload)
	buf := e.Bytes()
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		d.Uint32()
		sink += len(d.String())
		sink += len(d.Opaque())
	}
	_ = sink
}

// OpaqueRef is Opaque without the copy: same checks, and a result that can
// neither be appended into the bytes that follow nor outlive its limits.
func TestOpaqueRefBorrows(t *testing.T) {
	e := NewEncoder(32)
	e.PutOpaque([]byte{1, 2, 3, 4, 5})
	e.PutUint32(0xfeedface)
	buf := append([]byte(nil), e.Bytes()...)

	d := NewDecoder(buf)
	got := d.OpaqueRef()
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5}) || cap(got) != 5 {
		t.Fatalf("OpaqueRef = %v cap %d, want the 5 bytes capped at 5", got, cap(got))
	}
	if &got[0] != &buf[4] {
		t.Fatal("OpaqueRef copied the data")
	}
	_ = append(got, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA)
	if v := d.Uint32(); v != 0xfeedface || d.Done() != nil {
		t.Fatalf("appending to a borrowed opaque reached the next field: %x err=%v", v, d.Done())
	}

	big := NewEncoder(8)
	big.PutUint32(MaxOpaque + 1)
	d = NewDecoder(big.Bytes())
	if d.OpaqueRef() != nil || d.Err() != ErrTooLong {
		t.Errorf("oversized borrowed opaque accepted: %v", d.Err())
	}
	d = NewDecoder(buf[:7]) // length says 5, only 3 bytes follow
	if d.OpaqueRef() != nil || d.Err() != ErrShort {
		t.Errorf("short borrowed opaque accepted: %v", d.Err())
	}
}

// PutOpaqueFunc writes the bytes PutOpaque would for what fill appends, and
// SetBool rewrites an earlier word in place: a READ reply whose eof is known
// only after its data. A frame whose size is reserved up front is allocated
// exactly once.
func TestPutOpaqueFuncAndGrow(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5, 6}} {
		want := NewEncoder(0)
		want.PutBool(true)
		want.PutOpaque(data)
		want.PutUint32(0xfeedface)
		got := NewEncoder(0)
		at := got.Len()
		got.PutBool(false)
		got.PutOpaqueFunc(func(dst []byte) []byte { return append(dst, data...) })
		got.SetBool(at, true)
		got.PutUint32(0xfeedface)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("PutOpaqueFunc(%d bytes) = %x, want %x", len(data), got.Bytes(), want.Bytes())
		}
	}

	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(10, func() {
		e := NewEncoder(16)
		e.PutOpaqueFunc(func(dst []byte) []byte { return append(dst, 1, 2, 3, 4, 5) })
	}); n != 1 {
		t.Errorf("a 9-byte opaque filled within a 16-byte frame took %.0f allocations, want 1", n)
	}

	payload := make([]byte, 1<<20)
	if n := testing.AllocsPerRun(10, func() {
		e := NewEncoder(128)
		e.PutUint32(0)
		e.PutBool(true)
		e.PutOpaque(payload)
	}); n != 2 { // the 128-byte start and the frame at its final size
		t.Errorf("a sized 1 MiB frame took %.0f allocations, want 2", n)
	}
}

// TestDecoderReset: a decoder held by value is pointed at a new buffer with
// Reset, which forgets the old one's position and error, without allocating.
func TestDecoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(7)
	var d Decoder
	d.Reset([]byte{1})
	if d.Uint32() != 0 || d.Err() == nil {
		t.Fatal("a 1-byte buffer decoded a word")
	}
	d.Reset(e.Bytes())
	if v := d.Uint32(); v != 7 || d.Done() != nil {
		t.Fatalf("after Reset: %d, %v", v, d.Done())
	}
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() { d.Reset(e.Bytes()); d.Uint32() }); n != 0 {
		t.Errorf("Reset allocates %.0f times, want 0", n)
	}
}

var codecSink *Codec

// TestCodecIsOneSizeClass: a Codec is exactly 416 bytes, a Go size class, so
// the array costs no rounding; a frame that fits the array is encoded with
// the Codec's one allocation, and one that does not grows past it once, into
// a buffer of its own that holds the bytes written before it outgrew the
// array. A frame that lends one body records it in the Codec too.
func TestCodecIsOneSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Codec{}); size != 416 {
		t.Fatalf("Codec is %d bytes, want 416", size)
	}
	racetest.SkipAllocs(t)
	payload := make([]byte, 1<<10)
	for _, c := range []struct {
		body   int
		allocs float64
	}{{smallFrame - 8, 1}, {smallFrame - 4, 2}, {len(payload), 2}} {
		var frame []byte
		if n := testing.AllocsPerRun(100, func() {
			codecSink = NewCodec()
			codecSink.E.PutUint32(7)
			codecSink.E.PutOpaque(payload[:c.body])
			frame = codecSink.E.Bytes()
		}); n != c.allocs {
			t.Errorf("a %d-byte frame encoded in a Codec took %.0f allocations, want %.0f", len(frame), n, c.allocs)
		}
		want := NewEncoder(0)
		want.PutUint32(7)
		want.PutOpaque(payload[:c.body])
		inArray := &frame[0] == &codecSink.small[0]
		if !bytes.Equal(frame, want.Bytes()) || inArray != (len(frame) <= smallFrame) {
			t.Errorf("a %d-byte frame: in the array %v, bytes equal %v", len(frame), inArray, bytes.Equal(frame, want.Bytes()))
		}
	}
}

// TestCodecLendsOneBodyInPlace: a Codec frame that lends one body of any size
// is the Codec's one allocation; a second lent body grows the record of them.
func TestCodecLendsOneBodyInPlace(t *testing.T) {
	racetest.SkipAllocs(t)
	payload := make([]byte, 32<<10)
	for _, c := range []struct {
		bodies int
		allocs float64
	}{{1, 1}, {2, 2}} {
		if n := testing.AllocsPerRun(100, func() {
			codecSink = NewCodec()
			codecSink.E.PutUint32(7)
			for i := 0; i < c.bodies; i++ {
				codecSink.E.PutOpaqueRef(payload)
			}
		}); n != c.allocs {
			t.Errorf("a Codec frame lending %d 32 KiB bodies took %.0f allocations, want %.0f", c.bodies, n, c.allocs)
		}
	}
}

// TestLentFrameJoinsToTheFlatFrame: PutOpaqueRef encodes what PutOpaque
// does, padding and the fields after it in the head, the body uncopied; a
// decoder reading the frame returns the body itself, and a read that does
// not line up with a lent body sees the joined bytes all the same.
func TestLentFrameJoinsToTheFlatFrame(t *testing.T) {
	body := []byte{1, 2, 3, 4, 5, 6, 7}
	flat, lent := NewEncoder(0), NewEncoder(0)
	for _, e := range []*Encoder{flat, lent} {
		e.PutUint32(9)
		if e == flat {
			e.PutOpaque(body)
			e.PutOpaque(nil)
		} else {
			e.PutOpaqueRef(body)
			e.PutOpaqueRef(nil)
		}
		e.PutString("tail")
	}
	f := lent.Frame()
	if len(f.Lent) != 1 || f.Lent[0].At != 8 || &f.Lent[0].Body[0] != &body[0] {
		t.Fatalf("lent %+v: want the one body, uncopied, at head offset 8", f.Lent)
	}
	if got := f.AppendTo(nil); !bytes.Equal(got, flat.Bytes()) || f.Len() != len(got) {
		t.Fatalf("joined frame %x (Len %d), want %x", got, f.Len(), flat.Bytes())
	}
	var pieces []byte
	for _, p := range f.AppendPieces(nil) {
		if len(p) == 0 {
			t.Fatal("an empty piece")
		}
		pieces = append(pieces, p...)
	}
	if !bytes.Equal(pieces, flat.Bytes()) {
		t.Fatalf("pieces %x, want %x", pieces, flat.Bytes())
	}

	var d Decoder
	d.ResetFrame(f)
	if d.Remaining() != len(flat.Bytes()) || d.Uint32() != 9 {
		t.Fatal("head word")
	}
	if got := d.OpaqueRef(); &got[0] != &body[0] || cap(got) != len(body) {
		t.Fatal("OpaqueRef at a lent body did not return the body, capped")
	}
	if len(d.OpaqueRef()) != 0 || d.String() != "tail" || d.Done() != nil {
		t.Fatalf("after the body: %v", d.Done())
	}
	// A read across the body's place joins the rest and reads on in it.
	d.ResetFrame(f)
	d.Uint32()
	d.Uint32()
	var fixed [7]byte
	d.FixedOpaque(fixed[:])
	if !bytes.Equal(fixed[:], body) || len(d.OpaqueRef()) != 0 || d.String() != "tail" || d.Done() != nil {
		t.Fatalf("a misaligned read of the lent frame: %x, %v", fixed, d.Done())
	}
	defer func() {
		if recover() == nil {
			t.Error("Bytes of a lending encoder did not panic")
		}
	}()
	lent.Bytes()
}

// TestLendFindsTheFrameByItsHead: between Lend and EndLend the request slice
// Lend returned names the whole frame; any other slice, and the same one
// after the last EndLend, is a one-piece frame.
func TestLendFindsTheFrameByItsHead(t *testing.T) {
	e := NewEncoder(0)
	e.PutUint32(1)
	e.PutOpaqueRef([]byte("body"))
	f := e.Frame()
	req := Lend(f)
	if &req[0] != &f.Head[0] || len(req) != len(f.Head) {
		t.Fatal("Lend did not return the head")
	}
	Lend(f) // a second send of the same frame
	if got := FrameOf(req); got.Len() != f.Len() || len(got.Lent) != 1 {
		t.Fatalf("FrameOf(head) = %+v", got)
	}
	if got := FrameOf(req[:4]); len(got.Lent) != 0 || got.Len() != 4 {
		t.Fatal("a prefix of the head found the lent frame")
	}
	EndLend(f)
	if len(FrameOf(req).Lent) != 1 {
		t.Fatal("the first EndLend of two forgot the frame")
	}
	EndLend(f)
	if got := FrameOf(req); len(got.Lent) != 0 || got.Len() != len(req) {
		t.Fatal("the frame is still found after its last EndLend")
	}
	EndLend(f) // one too many: ignored
	if lending.n.Load() != 0 {
		t.Fatalf("%d frames counted as lent after every EndLend", lending.n.Load())
	}
	flat := Frame{Head: []byte{1, 2, 3, 4}}
	if r := Lend(flat); &r[0] != &flat.Head[0] || len(FrameOf(r).Lent) != 0 {
		t.Fatal("a frame that lends nothing")
	}
	EndLend(flat)
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() {
		FrameOf(Lend(f))
		EndLend(f)
	}); n != 0 {
		t.Errorf("lending a frame allocates %.0f times, want 0", n)
	}
}

// TestLendingFromManyGoroutines: goroutines lend frames of their own and one
// frame they share; each finds exactly its own frame from its head, and the
// shared one stays found until its last lender is done.
func TestLendingFromManyGoroutines(t *testing.T) {
	shared := NewEncoder(0)
	shared.PutUint32(0)
	shared.PutOpaqueRef([]byte("shared"))
	sf := shared.Frame()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte{byte(g), 1, 2}
			for i := 0; i < 500; i++ {
				e := NewEncoder(8)
				e.PutUint32(uint32(g))
				e.PutOpaqueRef(body)
				f := e.Frame()
				req := Lend(f)
				sreq := Lend(sf)
				if got := FrameOf(req); len(got.Lent) != 1 || &got.Lent[0].Body[0] != &body[0] {
					t.Errorf("goroutine %d found %+v for its own frame", g, got)
					return
				}
				if got := FrameOf(sreq); len(got.Lent) != 1 || got.Len() != sf.Len() {
					t.Errorf("goroutine %d lost the shared frame while lending it", g)
					return
				}
				EndLend(sf)
				EndLend(f)

				sink := make([]byte, 0, 8)
				q := NewEncoder(8)
				q.PutUint32(uint32(g))
				q.LendSink(sink)
				qf := q.Frame()
				qreq := Lend(qf)
				s, ok := TakeSink(qreq)
				if _, again := TakeSink(qreq); !ok || again {
					t.Errorf("goroutine %d took its sink %v, then again %v", g, ok, again)
					return
				}
				r := NewEncoder(8)
				r.PutOpaqueRef(append(s, byte(g)))
				if got := ReplyOf(qreq, LendReply(qreq, r.Frame())); len(got.Lent) != 1 || &got.Lent[0].Body[0] != &sink[:1][0] {
					t.Errorf("goroutine %d lost its sink reply", g)
					return
				}
				EndLend(qf)
			}
		}()
	}
	wg.Wait()
	if got := FrameOf(sf.Head); len(got.Lent) != 0 {
		t.Error("the shared frame is still filed after every lender ended")
	}
}

// TestSinkIsTakenOnce: a request that lends a sink adds no bytes to its
// frame; between Lend and EndLend the first TakeSink gets the sink, empty
// with the room the caller left, and every later one finds it taken. The
// reply the taker files with LendReply comes back from ReplyOf for its head,
// or a copy of it, and any other response slice is a one-piece frame.
func TestSinkIsTakenOnce(t *testing.T) {
	dst := make([]byte, 3, 64)
	x := NewCodec()
	x.E.PutUint32(6)
	x.E.LendSink(dst)
	f := x.E.Frame()
	if f.Len() != 4 || len(f.AppendPieces(nil)) != 1 {
		t.Fatalf("a frame lending a sink is %d bytes in %d pieces, want its 4-byte head", f.Len(), len(f.AppendPieces(nil)))
	}
	if _, ok := TakeSink(f.Head); ok {
		t.Fatal("a sink taken before its frame was lent")
	}
	req := Lend(f)
	sink, ok := TakeSink(req)
	if !ok || len(sink) != 0 || cap(sink) != 61 || &sink[:1][0] != &dst[:4][3] {
		t.Fatalf("TakeSink = len %d cap %d ok %v, want dst's 61 spare bytes", len(sink), cap(sink), ok)
	}
	if _, ok := TakeSink(req); ok {
		t.Fatal("the sink was taken twice")
	}
	var d Decoder
	d.ResetFrame(FrameOf(req))
	if d.Uint32() != 6 || d.Done() != nil {
		t.Fatalf("decoding a request that lends a sink: %v", d.Done())
	}

	filled := append(sink, "filled"...)
	r := NewEncoder(0)
	r.PutUint32(0)
	r.PutOpaqueRef(filled)
	head := LendReply(req, r.Frame())
	if &head[0] != &r.Frame().Head[0] {
		t.Fatal("LendReply did not return the reply's head")
	}
	flat := NewEncoder(0)
	flat.PutUint32(0)
	flat.PutOpaque([]byte("filled"))
	for _, resp := range [][]byte{head, append([]byte(nil), head...)} {
		got := ReplyOf(req, resp)
		if !bytes.Equal(got.AppendTo(nil), flat.Bytes()) || len(got.Lent) != 1 || &got.Lent[0].Body[0] != &dst[:4][3] {
			t.Fatalf("ReplyOf = %x, want %x with the body in the sink", got.AppendTo(nil), flat.Bytes())
		}
	}
	if got := ReplyOf(req, flat.Bytes()); len(got.Lent) != 0 {
		t.Fatal("a flat response was taken for the filed reply")
	}
	if !racetest.Enabled {
		if n := testing.AllocsPerRun(100, func() {
			TakeSink(req)
			ReplyOf(req, head)
		}); n != 0 {
			t.Errorf("TakeSink and ReplyOf allocate %.0f times, want 0", n)
		}
	}
	EndLend(f)
	if got := ReplyOf(req, head); len(got.Lent) != 0 {
		t.Fatal("the reply is still filed after EndLend")
	}
	if lending.n.Load() != 0 {
		t.Fatalf("%d frames counted as lent after every EndLend", lending.n.Load())
	}
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() {
		x.E.Reset()
		x.E.PutUint32(6)
		x.E.LendSink(dst)
	}); n != 0 {
		t.Errorf("lending a sink from a Codec allocates %.0f times, want 0", n)
	}
}

// TestLendReplyJoinsWhatIsNotTheSink: a reply whose request's sink no one
// took, a reply to a request that lends no sink, and a reply that lends a
// body outside the sink all come back joined, flat frames.
func TestLendReplyJoinsWhatIsNotTheSink(t *testing.T) {
	dst := make([]byte, 0, 16)
	e := NewEncoder(0)
	e.PutUint32(6)
	e.LendSink(dst)
	f := e.Frame()
	req := Lend(f)
	defer EndLend(f)
	reply := func(body []byte) Frame {
		r := NewEncoder(0)
		r.PutUint32(0)
		r.PutOpaqueRef(body)
		return r.Frame()
	}
	joined := func(name string, req []byte, rf Frame) {
		t.Helper()
		resp := LendReply(req, rf)
		if !bytes.Equal(resp, rf.AppendTo(nil)) || len(ReplyOf(req, resp).Lent) != 0 {
			t.Errorf("%s: LendReply = %x, want the joined frame", name, resp)
		}
	}
	joined("sink not taken", req, reply(append(dst, "x"...)))
	joined("no sink lent", []byte{0, 0, 0, 6}, reply(append(dst, "x"...)))
	TakeSink(req)
	joined("body outside the sink", req, reply([]byte("elsewhere")))
}
