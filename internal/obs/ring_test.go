package obs

import (
	"reflect"
	"testing"
)

// TestRing covers the one ring behind every retained-history surface: lazy
// geometric growth to the cap, overwrite-oldest once full, both snapshot
// orders, count clamping, find, and snapshots that do not alias the ring.
func TestRing(t *testing.T) {
	seq := func(from, to int) []int { // inclusive, either direction
		var out []int
		for v := from; ; {
			out = append(out, v)
			if v == to {
				return out
			}
			if from < to {
				v++
			} else {
				v--
			}
		}
	}
	for _, tc := range []struct {
		name     string
		max, put int
		wantCap  int
		oldest   []int
	}{
		{"empty", 4, 0, 0, []int{}},
		{"first put allocates 8 at most", 100, 1, 8, seq(1, 1)},
		{"doubles", 100, 9, 16, seq(1, 9)},
		{"growth stops at max", 20, 20, 20, seq(1, 20)},
		{"small max", 4, 3, 4, seq(1, 3)},
		{"exactly full", 4, 4, 4, seq(1, 4)},
		{"wrapped once", 4, 6, 4, seq(3, 6)},
		{"wrapped many times", 4, 103, 4, seq(100, 103)},
		{"disabled", 0, 5, 0, []int{}},
	} {
		r := ring[int]{max: tc.max}
		for v := 1; v <= tc.put; v++ {
			r.put(v)
		}
		if cap(r.buf) != tc.wantCap {
			t.Errorf("%s: cap = %d, want %d", tc.name, cap(r.buf), tc.wantCap)
		}
		if got := r.oldestFirst(0); !reflect.DeepEqual(got, tc.oldest) {
			t.Errorf("%s: oldestFirst = %v, want %v", tc.name, got, tc.oldest)
		}
		newest := make([]int, len(tc.oldest))
		for i, v := range tc.oldest {
			newest[len(newest)-1-i] = v
		}
		if got := r.newestFirst(0); !reflect.DeepEqual(got, newest) {
			t.Errorf("%s: newestFirst = %v, want %v", tc.name, got, newest)
		}
		if len(tc.oldest) < 2 {
			continue
		}
		// A bounded request returns the newest n either way round.
		if got := r.oldestFirst(2); !reflect.DeepEqual(got, tc.oldest[len(tc.oldest)-2:]) {
			t.Errorf("%s: oldestFirst(2) = %v", tc.name, got)
		}
		if got := r.newestFirst(2); !reflect.DeepEqual(got, newest[:2]) {
			t.Errorf("%s: newestFirst(2) = %v", tc.name, got)
		}
		if got := r.newestFirst(1000); len(got) != len(newest) {
			t.Errorf("%s: newestFirst(1000) returned %d values", tc.name, len(got))
		}
		// find sees exactly the retained values and prefers the newest.
		if p := r.find(func(v *int) bool { return *v <= newest[0] }); p == nil || *p != newest[0] {
			t.Errorf("%s: find(newest) = %v", tc.name, p)
		}
		if p := r.find(func(v *int) bool { return *v < tc.oldest[0] }); p != nil {
			t.Errorf("%s: find returned evicted value %d", tc.name, *p)
		}
		// Snapshots are copies: scribbling on one leaves the ring intact.
		snap := r.oldestFirst(0)
		for i := range snap {
			snap[i] = -1
		}
		if got := r.oldestFirst(0); !reflect.DeepEqual(got, tc.oldest) {
			t.Errorf("%s: snapshot aliases the ring: %v", tc.name, got)
		}
	}
}
