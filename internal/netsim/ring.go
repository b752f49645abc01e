package netsim

// ring is a head-indexed FIFO over a growable circular buffer: a
// continuously busy consumer cycles elements through a fixed backing array
// instead of creeping down an ever-growing slice. Both the drop-tail Queue
// and the Link's in-flight delivery pipeline build on it.
type ring[T any] struct {
	buf []T // circular storage; len is the current capacity
	// head indexes the oldest element. Both are 32-bit so that a Link's
	// two rings take a word less each.
	head  int32
	count int32
}

// len reports the number of queued elements.
func (r *ring[T]) len() int { return int(r.count) }

// capacity reports the current backing-array size (test observability for
// the no-growth-when-busy regression).
func (r *ring[T]) capacity() int { return len(r.buf) }

// push appends v, doubling (and unwrapping) the buffer when full. The
// capacity is always a power of two (it starts at 8 and doubles), so index
// wrapping is a mask, not a division — push/pop sit on the per-packet path.
func (r *ring[T]) push(v T) {
	if int(r.count) == len(r.buf) {
		n := 2 * len(r.buf)
		if n == 0 {
			n = 8
		}
		next := make([]T, n)
		for i := 0; i < int(r.count); i++ {
			next[i] = r.buf[(int(r.head)+i)&(len(r.buf)-1)]
		}
		r.buf = next
		r.head = 0
	}
	r.buf[int(r.head+r.count)&(len(r.buf)-1)] = v
	r.count++
}

// pop removes and returns the oldest element; the vacated slot is zeroed so
// the ring pins no references. Popping an empty ring returns the zero value.
func (r *ring[T]) pop() T {
	var zero T
	if r.count == 0 {
		return zero
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & int32(len(r.buf)-1)
	r.count--
	return v
}

// peek returns the oldest element without removing it. Valid only when
// len() > 0.
func (r *ring[T]) peek() T { return r.buf[r.head] }
