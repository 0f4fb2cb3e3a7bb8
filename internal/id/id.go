// Package id implements the 128-bit circular node/key identifier space used
// by the Pastry overlay (Rowstron & Druschel, Middleware 2001) and by Kosha's
// directory-name hashing (SC 2004, Section 3.1).
//
// Identifiers are unsigned 128-bit integers living on a ring of size 2^128.
// Keys are derived from directory names with SHA-1 (the paper's choice,
// FIPS 180-1), truncated to 128 bits. Routing interprets an identifier as a
// string of digits in base 2^b; Kosha uses b = 4, i.e. hexadecimal digits.
package id

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// Bytes is the identifier width in bytes (128 bits).
const Bytes = 16

// Digits is the number of base-2^b digits in an identifier for b = 4.
const Digits = 32

// BitsPerDigit is Pastry's b parameter. The paper quotes typical bases of 16
// or 32; we fix b = 4 (base 16), FreePastry's default.
const BitsPerDigit = 4

// ID is an unsigned 128-bit identifier on the circular space, stored
// big-endian: b[0] holds the most significant byte.
type ID [Bytes]byte

// Zero is the additive identity of the ring.
var Zero ID

// MaxID is the largest identifier, 2^128 - 1.
var MaxID = ID{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// HashKey derives the 128-bit key for a name, per Section 3.1: "A 128-bit
// unique key is created via a SHA-1 hash of the directory name." SHA-1 yields
// 160 bits; the leading 128 are kept.
func HashKey(name string) ID {
	sum := sha1.Sum([]byte(name))
	var out ID
	copy(out[:], sum[:Bytes])
	return out
}

// FromUint64 builds an identifier whose low 64 bits are v. Useful in tests.
func FromUint64(v uint64) ID {
	var out ID
	binary.BigEndian.PutUint64(out[8:], v)
	return out
}

// FromHex parses a hexadecimal identifier of up to 32 digits. Shorter
// strings are treated as the low-order digits (left-padded with zeros).
func FromHex(s string) (ID, error) {
	if len(s) > 2*Bytes {
		return Zero, fmt.Errorf("id: hex string %q longer than %d digits", s, 2*Bytes)
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Zero, fmt.Errorf("id: bad hex %q: %w", s, err)
	}
	var out ID
	copy(out[Bytes-len(raw):], raw)
	return out, nil
}

// MustHex is FromHex for constant inputs; it panics on malformed input.
func MustHex(s string) ID {
	v, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders the identifier as 32 lowercase hex digits.
func (a ID) String() string { return hex.EncodeToString(a[:]) }

// Short renders the leading 8 hex digits, for logs.
func (a ID) Short() string { return hex.EncodeToString(a[:4]) }

// IsZero reports whether a is the zero identifier.
func (a ID) IsZero() bool { return a == Zero }

// words splits a into its big-endian halves: hi holds bytes 0-7.
func (a ID) words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
}

// fromWords joins two big-endian halves into an identifier.
func fromWords(hi, lo uint64) ID {
	var out ID
	binary.BigEndian.PutUint64(out[:8], hi)
	binary.BigEndian.PutUint64(out[8:], lo)
	return out
}

// sub returns (ahi:alo) - (bhi:blo) mod 2^128 as two words.
func sub(ahi, alo, bhi, blo uint64) (hi, lo uint64) {
	lo, borrow := bits.Sub64(alo, blo, 0)
	hi, _ = bits.Sub64(ahi, bhi, borrow)
	return hi, lo
}

// cmp compares two word pairs as unsigned 128-bit integers: -1, 0, or +1.
func cmp(ahi, alo, bhi, blo uint64) int {
	switch {
	case ahi < bhi, ahi == bhi && alo < blo:
		return -1
	case ahi == bhi && alo == blo:
		return 0
	}
	return 1
}

// Cmp compares a and b as unsigned integers: -1, 0, or +1.
func (a ID) Cmp(b ID) int {
	ahi, alo := a.words()
	bhi, blo := b.words()
	return cmp(ahi, alo, bhi, blo)
}

// Less reports a < b as unsigned integers.
func (a ID) Less(b ID) bool { return a.Cmp(b) < 0 }

// Add returns a + b mod 2^128.
func (a ID) Add(b ID) ID {
	ahi, alo := a.words()
	bhi, blo := b.words()
	lo, carry := bits.Add64(alo, blo, 0)
	hi, _ := bits.Add64(ahi, bhi, carry)
	return fromWords(hi, lo)
}

// Sub returns a - b mod 2^128.
func (a ID) Sub(b ID) ID {
	ahi, alo := a.words()
	bhi, blo := b.words()
	return fromWords(sub(ahi, alo, bhi, blo))
}

// Half is 2^127, the midpoint of the ring.
var Half = ID{0x80}

// Distance returns the minimal circular distance between a and b, i.e.
// min(a-b, b-a) mod 2^128. The result is at most 2^127.
func (a ID) Distance(b ID) ID {
	ahi, alo := a.words()
	bhi, blo := b.words()
	h1, l1 := sub(ahi, alo, bhi, blo)
	h2, l2 := sub(bhi, blo, ahi, alo)
	if cmp(h1, l1, h2, l2) < 0 {
		return fromWords(h1, l1)
	}
	return fromWords(h2, l2)
}

// CWDist returns the clockwise (increasing, wrapping) distance from a to b.
func (a ID) CWDist(b ID) ID { return b.Sub(a) }

// Between reports whether x lies on the clockwise arc (a, b], walking from a
// toward increasing identifiers with wraparound. By convention the empty arc
// (a == b) contains every x except a itself, matching successor-ring usage.
func Between(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	xhi, xlo := x.words()
	ahi, alo := a.words()
	bhi, blo := b.words()
	dxh, dxl := sub(xhi, xlo, ahi, alo)
	dbh, dbl := sub(bhi, blo, ahi, alo)
	return cmp(dxh, dxl, dbh, dbl) <= 0 && x != a
}

// Digit returns the i-th base-2^BitsPerDigit digit of a, counting from the
// most significant digit (i = 0).
func (a ID) Digit(i int) int {
	if i < 0 || i >= Digits {
		panic(fmt.Sprintf("id: digit index %d out of range", i))
	}
	by := a[i/2]
	if i%2 == 0 {
		return int(by >> 4)
	}
	return int(by & 0x0f)
}

// SharedPrefixLen returns the number of leading base-2^b digits a and b
// share. It is the row index used by Pastry's prefix routing.
func SharedPrefixLen(a, b ID) int {
	ahi, alo := a.words()
	bhi, blo := b.words()
	if x := ahi ^ bhi; x != 0 {
		return bits.LeadingZeros64(x) / BitsPerDigit
	}
	if x := alo ^ blo; x != 0 {
		return Digits/2 + bits.LeadingZeros64(x)/BitsPerDigit
	}
	return Digits
}

// WithDigit returns a copy of a whose i-th digit is set to d, used when
// probing routing-table slots during joins.
func (a ID) WithDigit(i, d int) ID {
	if d < 0 || d >= 1<<BitsPerDigit {
		panic(fmt.Sprintf("id: digit value %d out of range", d))
	}
	out := a
	by := i / 2
	if i%2 == 0 {
		out[by] = byte(d)<<4 | out[by]&0x0f
	} else {
		out[by] = out[by]&0xf0 | byte(d)
	}
	return out
}

// Closest returns the identifier among candidates numerically closest to key
// on the ring, breaking exact ties toward the numerically smaller id (so the
// choice is total). ok is false when candidates is empty.
func Closest(key ID, candidates []ID) (best ID, ok bool) {
	for _, c := range candidates {
		if !ok {
			best, ok = c, true
			continue
		}
		dc, db := key.Distance(c), key.Distance(best)
		switch dc.Cmp(db) {
		case -1:
			best = c
		case 0:
			if c.Less(best) {
				best = c
			}
		}
	}
	return best, ok
}

// Rand128 derives a pseudo-random identifier from a 64-bit stream state,
// suitable for simulations that must be reproducible per seed. It applies a
// splitmix64-style mix twice to fill the 128 bits.
func Rand128(state *uint64) ID {
	var out ID
	binary.BigEndian.PutUint64(out[:8], SplitMix64(state))
	binary.BigEndian.PutUint64(out[8:], SplitMix64(state))
	return out
}

// SplitMixGamma is splitmix64's increment, the odd 64-bit golden ratio.
const SplitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 advances a splitmix64 stream and returns its next value. Every
// splitmix64 stream in the module draws through it or Mix64, so a run
// seeded the same replays the same values everywhere.
func SplitMix64(state *uint64) uint64 {
	*state += SplitMixGamma
	return Mix64(*state)
}

// Mix64 is splitmix64's finalizer, a bijection of the 64-bit words that
// flips about half the output bits for each input bit.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
