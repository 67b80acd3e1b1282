package obs

// ring keeps the last size values pushed into it. Its buffer starts small and
// doubles up to size, so a ring that sees little traffic (a quiet node, one
// of the many short-lived nodes of a simulated cluster) never pays for the
// full buffer. A ring does no locking: its owner guards it.
type ring[T any] struct {
	buf  []T
	size int
	next int // slot the next push fills; equals len(buf) until the ring wraps
}

func newRing[T any](size int) ring[T] { return ring[T]{size: size} }

// push appends v, evicting the oldest value once the ring is full. A ring of
// size <= 0 retains nothing.
func (r *ring[T]) push(v T) {
	if r.size <= 0 {
		return
	}
	if len(r.buf) < r.size {
		if len(r.buf) == cap(r.buf) {
			grown := make([]T, len(r.buf), min(max(2*len(r.buf), 8), r.size))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % r.size
}

// newest returns up to n retained values that keep accepts, newest first.
// n <= 0 means all of them; a nil keep accepts every value. The result is
// never longer than the ring, whatever n asks for.
func (r *ring[T]) newest(n int, keep func(*T) bool) []T {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	if n == 0 {
		return nil
	}
	var out []T
	if keep == nil {
		out = make([]T, 0, n)
	}
	for i := 1; i <= len(r.buf) && len(out) < n; i++ {
		v := &r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if keep == nil || keep(v) {
			out = append(out, *v)
		}
	}
	return out
}
