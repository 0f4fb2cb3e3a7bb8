package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/racetest"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutUint32(0xdeadbeef)
	e.PutInt32(-7)
	e.PutUint64(0x0123456789abcdef)
	e.PutInt64(-1 << 62)
	e.PutBool(true)
	e.PutBool(false)
	e.PutFloat64(3.5)
	e.PutFloat64(math.Inf(-1))

	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 0xdeadbeef {
		t.Errorf("u32 = %x", v)
	}
	if v := d.Int32(); v != -7 {
		t.Errorf("i32 = %d", v)
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
	if v := d.Float64(); v != 3.5 {
		t.Errorf("f64 = %v", v)
	}
	if v := d.Float64(); !math.IsInf(v, -1) {
		t.Errorf("f64 inf = %v", v)
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

func TestStringsArray(t *testing.T) {
	ss := []string{"a", "", "directory name", "x/y/z"}
	e := NewEncoder(64)
	e.PutStrings(ss)
	d := NewDecoder(e.Bytes())
	got := d.Strings()
	if len(got) != len(ss) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ss {
		if got[i] != ss[i] {
			t.Errorf("strings[%d] = %q", i, got[i])
		}
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
	if d.Strings() != nil || d.Err() != ErrTooLong {
		t.Errorf("oversized array accepted: %v", d.Err())
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
	f := func(a uint32, b int32, c uint64, e64 int64, bl bool, fl float64) bool {
		e := NewEncoder(64)
		e.PutUint32(a)
		e.PutInt32(b)
		e.PutUint64(c)
		e.PutInt64(e64)
		e.PutBool(bl)
		e.PutFloat64(fl)
		d := NewDecoder(e.Bytes())
		ok := d.Uint32() == a && d.Int32() == b && d.Uint64() == c &&
			d.Int64() == e64 && d.Bool() == bl
		g := d.Float64()
		if math.IsNaN(fl) {
			ok = ok && math.IsNaN(g)
		} else {
			ok = ok && g == fl
		}
		return ok && d.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropOpaqueStringsRoundTrip(t *testing.T) {
	f := func(p []byte, s string, ss []string) bool {
		e := NewEncoder(64)
		e.PutOpaque(p)
		e.PutString(s)
		e.PutStrings(ss)
		d := NewDecoder(e.Bytes())
		gp := d.Opaque()
		gs := d.String()
		gss := d.Strings()
		if !bytes.Equal(gp, p) && !(len(gp) == 0 && len(p) == 0) {
			return false
		}
		if gs != s {
			return false
		}
		if len(gss) != len(ss) {
			return false
		}
		for i := range ss {
			if gss[i] != ss[i] {
				return false
			}
		}
		return d.Done() == nil
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

// TestCodecIsOneSizeClass: a Codec is exactly 320 bytes, a Go size class, so
// the array costs no rounding; a frame that fits the array is encoded with
// the Codec's one allocation, and one that does not grows past it once, into
// a buffer of its own that holds the bytes written before it outgrew the
// array.
func TestCodecIsOneSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Codec{}); size != 320 {
		t.Fatalf("Codec is %d bytes, want 320", size)
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
