package wire

import (
	"bytes"
	"encoding/binary"
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
	e.PutUint32(2) // a counted array of two strings
	e.PutString("a")
	e.PutString("b")
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		sink := int(d.Uint32())
		sink += len(d.String())
		sink += len(d.Opaque())
		for i := d.ArrayLen(); i > 0; i-- {
			sink += len(d.String())
		}
		if d.Bool() {
			sink++
		}
		sink += int(d.Int64())
		sink += int(d.Uint64())
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

// FuzzLentFrame encodes one field sequence twice, flat and with every opaque
// lent: the joined lent frame must be the flat frame byte for byte, the same
// length, and decode to the same values, each lent opaque the body itself.
// Each byte of ops picks a field; data supplies the values.
func FuzzLentFrame(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 4}, []byte("a field sequence with opaques of odd sizes: 1, 5, 1023"))
	f.Add([]byte{1, 1, 1}, []byte{})
	f.Add([]byte{}, []byte{9})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		next := func(n int) []byte {
			n = min(n, len(data))
			p := data[:n:n]
			data = data[n:]
			return p
		}
		word := func() uint64 {
			var w [8]byte
			copy(w[:], next(8))
			return binary.BigEndian.Uint64(w[:])
		}
		flat, lent := NewEncoder(0), NewEncoder(0)
		type field struct {
			kind byte
			n    uint64
			p    []byte
		}
		var fields []field
		for _, op := range ops {
			switch fl := (field{kind: op % 5}); fl.kind {
			case 0:
				fl.n = uint64(uint32(word()))
				flat.PutUint32(uint32(fl.n))
				lent.PutUint32(uint32(fl.n))
				fields = append(fields, fl)
			case 1:
				fl.p = next(int(word() % 1100))
				flat.PutOpaque(fl.p)
				lent.PutOpaqueRef(fl.p)
				fields = append(fields, fl)
			case 2:
				fl.p = next(int(word() % 40))
				flat.PutString(string(fl.p))
				lent.PutString(string(fl.p))
				fields = append(fields, fl)
			case 3:
				fl.n = word()
				flat.PutUint64(fl.n)
				lent.PutUint64(fl.n)
				fields = append(fields, fl)
			case 4:
				fl.p = next(int(word() % 9))
				flat.PutFixedOpaque(fl.p)
				lent.PutFixedOpaque(fl.p)
				fields = append(fields, fl)
			}
		}
		fr := lent.Frame()
		if got := fr.AppendTo(nil); !bytes.Equal(got, flat.Bytes()) || fr.Len() != len(flat.Bytes()) {
			t.Fatalf("joined lent frame %x (Len %d), flat %x", got, fr.Len(), flat.Bytes())
		}
		var d Decoder
		d.ResetFrame(fr)
		for i, fl := range fields {
			switch fl.kind {
			case 0:
				if v := d.Uint32(); uint64(v) != fl.n {
					t.Fatalf("field %d: u32 %d, want %d", i, v, fl.n)
				}
			case 1:
				got := d.OpaqueRef()
				if !bytes.Equal(got, fl.p) || (len(got) > 0 && &got[0] != &fl.p[0]) {
					t.Fatalf("field %d: opaque %x is not the lent body %x", i, got, fl.p)
				}
			case 2:
				if v := d.String(); v != string(fl.p) {
					t.Fatalf("field %d: string %q, want %q", i, v, fl.p)
				}
			case 3:
				if v := d.Uint64(); v != fl.n {
					t.Fatalf("field %d: u64 %d, want %d", i, v, fl.n)
				}
			case 4:
				got := make([]byte, len(fl.p))
				d.FixedOpaque(got)
				if !bytes.Equal(got, fl.p) {
					t.Fatalf("field %d: fixed %x, want %x", i, got, fl.p)
				}
			}
		}
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSinkReply encodes one reply twice, flat and with its first opaque put
// in the sink its request lent (when the sink has room for it) and any other
// opaque lent: the reply ReplyOf gives must join to the flat reply byte for
// byte and decode to the same values, the sink's opaque the sink's own
// bytes. Each byte of ops picks a field; data supplies the values; room is
// the sink's.
func FuzzSinkReply(f *testing.F) {
	f.Add([]byte{0, 0, 1}, []byte("status, eof, then the data of a READ"), uint16(64))
	f.Add([]byte{1, 2, 1, 3}, []byte("a sink opaque mid-frame and one lent beside it"), uint16(5))
	f.Add([]byte{0, 1}, []byte("room short of the opaque"), uint16(2))
	f.Add([]byte{1}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, ops, data []byte, room uint16) {
		next := func(n int) []byte {
			n = min(n, len(data))
			p := data[:n:n]
			data = data[n:]
			return p
		}
		dst := make([]byte, 0, room)
		q := NewEncoder(0)
		q.PutUint32(6)
		q.LendSink(dst)
		qf := q.Frame()
		req := Lend(qf)
		defer EndLend(qf)
		sink, taken := TakeSink(req)
		if !taken {
			t.Fatal("the sink of a lent request was not there to take")
		}
		flat, r := NewEncoder(0), NewEncoder(0)
		var vals [][]byte
		inSinkAt := -1
		for _, op := range ops {
			switch op % 4 {
			case 0:
				w := next(4)
				v := binary.BigEndian.AppendUint32(nil, uint32(len(w)))
				flat.PutFixedOpaque(v)
				r.PutFixedOpaque(v)
				vals = append(vals, v)
			case 1:
				p := next(int(op) * 3)
				flat.PutOpaque(p)
				switch {
				case inSinkAt < 0 && len(p) > 0 && len(p) <= cap(sink):
					inSinkAt = len(vals)
					r.PutOpaqueRef(append(sink, p...))
				case inSinkAt >= 0 && op%8 == 5:
					r.PutOpaqueRef(p)
				default:
					r.PutOpaque(p)
				}
				vals = append(vals, p)
			case 2:
				s := next(int(op) % 13)
				flat.PutString(string(s))
				r.PutString(string(s))
				vals = append(vals, s)
			case 3:
				p := next(int(op) % 9)
				flat.PutFixedOpaque(p)
				r.PutFixedOpaque(p)
				vals = append(vals, p)
			}
		}
		reply := ReplyOf(req, LendReply(req, r.Frame()))
		if got := reply.AppendTo(nil); !bytes.Equal(got, flat.Bytes()) || reply.Len() != len(flat.Bytes()) {
			t.Fatalf("the sink reply joins to %x (Len %d), the flat one is %x", got, reply.Len(), flat.Bytes())
		}
		var ds, df Decoder
		ds.ResetFrame(reply)
		df.Reset(flat.Bytes())
		for i, op := range ops {
			var a, b []byte
			switch op % 4 {
			case 0:
				a, b = make([]byte, 4), make([]byte, 4)
				ds.FixedOpaque(a)
				df.FixedOpaque(b)
			case 1:
				a, b = ds.OpaqueRef(), df.OpaqueRef()
				if i == inSinkAt && len(reply.Lent) == 1 && &a[0] != &sink[:1][0] {
					t.Fatalf("field %d: the sink's opaque decoded from elsewhere", i)
				}
			case 2:
				a, b = []byte(ds.String()), []byte(df.String())
			case 3:
				a, b = make([]byte, len(vals[i])), make([]byte, len(vals[i]))
				ds.FixedOpaque(a)
				df.FixedOpaque(b)
			}
			if !bytes.Equal(a, b) || !bytes.Equal(a, vals[i]) {
				t.Fatalf("field %d: %x from the sink reply, %x flat, want %x", i, a, b, vals[i])
			}
		}
		if ds.Done() != nil || df.Done() != nil {
			t.Fatalf("trailing: %v / %v", ds.Done(), df.Done())
		}
	})
}
