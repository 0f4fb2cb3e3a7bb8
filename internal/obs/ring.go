package obs

// ring is the one bounded buffer behind every retained-history surface in
// this package (recent traces, span fragments, the slow-op recorder, the
// event log, the sampler timeline): it keeps the newest max values,
// overwriting the oldest. Storage grows geometrically up to max, so the many
// short-lived nodes of a simulated cluster never pay for a full buffer.
//
// A ring is not synchronised: the owner holds its own lock around every
// call, and the snapshots are copied out under that lock. Elements are
// copied shallowly; an owner whose T holds slices it may later mutate deep-
// copies them on the way out (see Tracer.Recent).
type ring[T any] struct {
	buf  []T
	max  int
	next int  // slot the next put writes
	full bool // buf holds max values and next is the oldest
}

// put appends v, evicting the oldest value once the ring holds max. A ring
// with max <= 0 retains nothing.
func (r *ring[T]) put(v T) {
	if r.max <= 0 {
		return
	}
	if r.full {
		r.buf[r.next] = v
	} else {
		if len(r.buf) == cap(r.buf) {
			grown := 2 * cap(r.buf)
			if grown == 0 {
				grown = 8
			}
			if grown > r.max {
				grown = r.max
			}
			r.buf = append(make([]T, 0, grown), r.buf...)
		}
		r.buf = append(r.buf, v)
	}
	r.next++
	if r.next == r.max {
		r.next, r.full = 0, true
	}
}

// at returns the i-th oldest retained value, 0 <= i < len(r.buf).
func (r *ring[T]) at(i int) *T {
	if r.full {
		i = (r.next + i) % r.max
	}
	return &r.buf[i]
}

// clamp bounds a requested count to what is retained; n <= 0 means all.
func (r *ring[T]) clamp(n int) int {
	if n <= 0 || n > len(r.buf) {
		return len(r.buf)
	}
	return n
}

// oldestFirst copies out the newest n values in arrival order.
func (r *ring[T]) oldestFirst(n int) []T {
	n = r.clamp(n)
	out := make([]T, n)
	for i := range out {
		out[i] = *r.at(len(r.buf) - n + i)
	}
	return out
}

// newestFirst copies out the newest n values, most recent first.
func (r *ring[T]) newestFirst(n int) []T {
	n = r.clamp(n)
	out := make([]T, n)
	for i := range out {
		out[i] = *r.at(len(r.buf) - 1 - i)
	}
	return out
}

// find returns a pointer to the newest retained value satisfying match, or
// nil. The pointer aliases the ring: copy what is needed before unlocking.
func (r *ring[T]) find(match func(*T) bool) *T {
	for i := len(r.buf) - 1; i >= 0; i-- {
		if v := r.at(i); match(v) {
			return v
		}
	}
	return nil
}
