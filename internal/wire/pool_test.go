package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/racetest"
)

// TestPooledCodecStartsClean: a Codec from GetCodec encodes what a NewCodec
// does, whatever the Codec it recycles encoded, lent or decoded before, and
// a request that fits the array costs no allocation once the pool is warm.
func TestPooledCodecStartsClean(t *testing.T) {
	encode := func(x *Codec) Frame {
		x.E.PutUint32(7)
		x.E.PutString("name")
		return x.E.Frame()
	}
	want := encode(NewCodec()).AppendTo(nil)
	for i := 0; i < 3; i++ {
		x := GetCodec()
		if x.E.Len() != 0 || len(x.E.Frame().Lent) != 0 || x.D.Remaining() != 0 {
			t.Fatalf("round %d: a pooled Codec starts with %d head bytes, %d lent records, %d bytes to decode",
				i, x.E.Len(), len(x.E.Frame().Lent), x.D.Remaining())
		}
		if got := encode(x); !bytes.Equal(got.AppendTo(nil), want) || len(got.Lent) != 0 {
			t.Fatalf("round %d: pooled frame %x, want %x", i, got.AppendTo(nil), want)
		}
		x.E.PutOpaqueRef(make([]byte, 8<<10))
		x.E.PutOpaque(make([]byte, 1<<10)) // past the array
		x.E.LendSink(make([]byte, 0, 64))
		x.D.Reset(want)
		x.Free()
	}
	var nilCodec *Codec
	nilCodec.Free() // a failed call's
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() {
		x := GetCodec()
		encode(x)
		x.Free()
	}); n != 0 {
		t.Errorf("a pooled request of %d bytes allocates %.0f times, want 0", len(want), n)
	}
}

// TestFreedCodecPinsNothing: a freed Codec, which the pool keeps, holds
// nothing it pointed at before: not a head that grew past its array, a body
// or a sink its frame lent, nor the reply its decoder read. Each is a 1 MiB
// buffer whose finalizer must run while the Codec itself is still held.
func TestFreedCodecPinsNothing(t *testing.T) {
	x := GetCodec()
	freed := use(x)
	x.Free()
	deadline := time.Now().Add(time.Second)
	for left := len(freed); left > 0 && time.Now().Before(deadline); {
		runtime.GC()
		for name, c := range freed {
			select {
			case <-c:
				delete(freed, name)
				left--
			default:
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name := range freed {
		t.Errorf("the %s is still alive while the freed Codec is held", name)
	}
	runtime.KeepAlive(x)
}

// use fills x as a request that outgrew its array and lends a body and a
// sink, and points its decoder at a reply; the channels close as each of the
// four buffers is collected.
func use(x *Codec) map[string]chan struct{} {
	const mib = 1 << 20
	body, sink, reply := make([]byte, mib), make([]byte, 0, mib), make([]byte, mib)
	x.E.PutUint32(7)
	x.E.PutOpaque(make([]byte, mib))
	x.E.PutOpaqueRef(body)
	x.E.LendSink(sink)
	x.D.ResetFrame(Frame{Head: reply})
	x.D.Uint32()
	freed := map[string]chan struct{}{}
	for name, p := range map[string]*byte{
		"grown head": &x.E.Frame().Head[0],
		"lent body":  &body[0],
		"sink":       &sink[:1][0],
		"reply":      &reply[0],
	} {
		c := make(chan struct{})
		freed[name] = c
		runtime.SetFinalizer(p, func(*byte) { close(c) })
	}
	return freed
}

// TestFreedCodecIsPoisoned: with PoisonFreed on, a frame kept past its
// Codec's Free reads Poison: its head's bytes, and its lent body.
func TestFreedCodecIsPoisoned(t *testing.T) {
	defer PoisonFreed(PoisonFreed(true))
	x := GetCodec()
	x.E.PutUint32(7)
	x.E.PutOpaqueRef([]byte("body"))
	x.E.PutString("tail")
	kept := x.E.Frame()
	x.Free()
	if bytes.Count(kept.Head, []byte{Poison}) != len(kept.Head) {
		t.Errorf("a kept head reads %x after Free, want all %#x", kept.Head, Poison)
	}
	if len(kept.Lent) != 1 || bytes.Count(kept.Lent[0].Body, []byte{Poison}) != len(kept.Lent[0].Body) {
		t.Errorf("a kept frame's lent body reads %q after Free, want %#x", kept.Lent[0].Body, Poison)
	}
}

// TestKeptReplyOutlivesFree: Keep hands out a head that a later Free and
// reuse of the Codec leave alone, with PoisonFreed on: a head in the array
// as a copy of its own length, one that grew past the array as the grown
// frame itself, which the Codec no longer points at.
func TestKeptReplyOutlivesFree(t *testing.T) {
	defer PoisonFreed(PoisonFreed(true))
	for _, n := range []int{4, smallFrame, smallFrame + 4, 3 * smallFrame} {
		x := GetCodec()
		want := bytes.Repeat([]byte{0x5A}, n)
		x.E.PutFixedOpaque(want)
		head := x.E.Bytes()
		got := x.Keep()
		if &got[0] == &x.small[0] || n > smallFrame && &got[0] != &head[0] {
			t.Errorf("a %d-byte head is kept in the Codec's array, or a grown one as a copy", n)
		}
		if x.E.Len() != 0 && n > smallFrame {
			t.Errorf("a %d-byte grown head is still the Codec's after Keep", n)
		}
		x.Free()
		y := GetCodec()
		y.E.PutFixedOpaque(bytes.Repeat([]byte{0x11}, 2*n))
		y.Free()
		if !bytes.Equal(got, want) {
			t.Errorf("a kept %d-byte head changed after Free and reuse: %x...", n, got[:4])
		}
	}
}

// TestStatusFrameIsShared: a reply that is a status word alone is kept as
// the package's shared frame for that word, not a copy, and neither Free nor
// reuse of the Codec, with PoisonFreed on, poisons it or hands it out as a
// head to encode into. A word past the table gets a frame of its own.
func TestStatusFrameIsShared(t *testing.T) {
	defer PoisonFreed(PoisonFreed(true))
	for _, v := range []uint32{0, 1, 22, 170, 255} {
		x := GetCodec()
		x.E.PutUint32(v)
		got := x.Keep()
		if &got[0] != &statusFrames[v][0] || len(got) != 4 || cap(got) != 4 {
			t.Fatalf("status %d: kept %x (cap %d), not the shared frame", v, got, cap(got))
		}
		x.Free()
		for i := 0; i < 4; i++ {
			y := GetCodec()
			if len(y.E.Bytes()) != 0 || cap(y.E.Bytes()) > 0 && &y.E.Bytes()[:1][0] == &statusFrames[v][0] {
				t.Fatalf("status %d: a pooled Codec encodes into the shared frame", v)
			}
			y.E.PutFixedOpaque(bytes.Repeat([]byte{0x11}, 64))
			y.Free()
		}
		want := []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
		if !bytes.Equal(got, want) || !bytes.Equal(StatusFrame(v), want) {
			t.Errorf("status %d reads %x after Free and reuse, want %x", v, got, want)
		}
	}
	if a, b := StatusFrame(1<<16), StatusFrame(1<<16); &a[0] == &b[0] || !bytes.Equal(a, []byte{0, 1, 0, 0}) {
		t.Errorf("status 65536 = %x, shared %v; want a frame of its own", a, &a[0] == &b[0])
	}
	racetest.SkipAllocs(t)
	if n := testing.AllocsPerRun(100, func() {
		x := GetCodec()
		x.E.PutUint32(0)
		x.Keep()
		x.Free()
	}); n != 0 {
		t.Errorf("keeping a bare status allocates %.0f times, want 0", n)
	}
}
