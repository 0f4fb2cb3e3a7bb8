package id

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// The ring arithmetic works on two 64-bit words; math/big is the reference
// it is checked against, on the edge cases where a carry or borrow crosses
// the word boundary and on random identifiers.

var ring = new(big.Int).Lsh(big.NewInt(1), 128)

func toBig(a ID) *big.Int { return new(big.Int).SetBytes(a[:]) }

// fromBig reduces v mod 2^128 into an identifier.
func fromBig(v *big.Int) ID {
	var out ID
	new(big.Int).Mod(v, ring).FillBytes(out[:])
	return out
}

func refSub(a, b ID) ID { return fromBig(new(big.Int).Sub(toBig(a), toBig(b))) }

func refDistance(a, b ID) ID {
	d1, d2 := refSub(a, b), refSub(b, a)
	if toBig(d1).Cmp(toBig(d2)) < 0 {
		return d1
	}
	return d2
}

func refBetween(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	return toBig(refSub(x, a)).Cmp(toBig(refSub(b, a))) <= 0 && x != a
}

func refSharedPrefixLen(a, b ID) int {
	sa, sb := a.String(), b.String()
	n := 0
	for n < Digits && sa[n] == sb[n] {
		n++
	}
	return n
}

// checkAgainstBig compares every operation on (a, b, x) with its math/big
// reference.
func checkAgainstBig(t *testing.T, a, b, x ID) {
	t.Helper()
	if got, want := a.Add(b), fromBig(new(big.Int).Add(toBig(a), toBig(b))); got != want {
		t.Errorf("%v + %v = %v, want %v", a, b, got, want)
	}
	if got, want := a.Sub(b), refSub(a, b); got != want {
		t.Errorf("%v - %v = %v, want %v", a, b, got, want)
	}
	if got, want := a.Cmp(b), toBig(a).Cmp(toBig(b)); got != want {
		t.Errorf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
	}
	if got, want := a.Less(b), toBig(a).Cmp(toBig(b)) < 0; got != want {
		t.Errorf("Less(%v, %v) = %v, want %v", a, b, got, want)
	}
	if got, want := a.Distance(b), refDistance(a, b); got != want {
		t.Errorf("Distance(%v, %v) = %v, want %v", a, b, got, want)
	}
	if got, want := a.CWDist(b), refSub(b, a); got != want {
		t.Errorf("CWDist(%v, %v) = %v, want %v", a, b, got, want)
	}
	if got, want := Between(x, a, b), refBetween(x, a, b); got != want {
		t.Errorf("Between(%v, %v, %v) = %v, want %v", x, a, b, got, want)
	}
	if got, want := SharedPrefixLen(a, b), refSharedPrefixLen(a, b); got != want {
		t.Errorf("SharedPrefixLen(%v, %v) = %d, want %d", a, b, got, want)
	}
}

// edgeIDs are the identifiers where word-wise arithmetic can go wrong: the
// ends of the ring, its midpoint, and low words of all ones or all zeros
// beside high words of zero, one and all ones, so a carry or a borrow
// crosses the word boundary.
var edgeIDs = []ID{
	Zero,
	FromUint64(1),
	MaxID,
	Half,
	Half.Sub(FromUint64(1)),
	FromUint64(^uint64(0)),
	MustHex("1" + strings.Repeat("0", 16)),
	MustHex("1" + strings.Repeat("f", 16)),
	MustHex(strings.Repeat("f", 16) + strings.Repeat("0", 16)),
	MustHex("8" + strings.Repeat("0", 15) + strings.Repeat("f", 16)),
}

func TestRingArithmeticMatchesBig(t *testing.T) {
	for _, a := range edgeIDs {
		for _, b := range edgeIDs {
			for _, x := range edgeIDs {
				checkAgainstBig(t, a, b, x)
			}
		}
	}
	r := rand.New(rand.NewSource(48))
	for i := 0; i < 5000; i++ {
		a, b, x := randID(r), randID(r), randID(r)
		// Near-equal pairs exercise long shared prefixes and tiny arcs.
		if i%4 == 0 {
			b = a.Add(FromUint64(uint64(r.Intn(1 << 10))))
		}
		checkAgainstBig(t, a, b, x)
	}
}

func FuzzRingArithmetic(f *testing.F) {
	for _, a := range edgeIDs {
		for _, b := range edgeIDs {
			f.Add(a[:], b[:], Half[:])
		}
	}
	f.Fuzz(func(t *testing.T, ra, rb, rx []byte) {
		var a, b, x ID
		copy(a[:], ra)
		copy(b[:], rb)
		copy(x[:], rx)
		checkAgainstBig(t, a, b, x)
	})
}
