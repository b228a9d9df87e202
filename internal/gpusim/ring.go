package gpusim

// ring is a growable power-of-two FIFO. The simulator's L2 request and
// DRAM channel queues previously advanced a slice head (`q = q[1:]`),
// which strands the consumed prefix and reallocates every time append
// outruns the leaked capacity; the ring reuses one buffer forever, so
// steady-state enqueue/dequeue is allocation-free and the hot loop walks
// a contiguous block. Pop order is FIFO, identical to the slice queues
// it replaces (bit-identity of the simulation does not depend on queue
// representation, only on pop order). The two event rings use it too:
// see Sim.nextEvent.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// peek returns the oldest element without removing it; the ring must
// not be empty.
func (r *ring[T]) peek() T { return r.buf[r.head] }

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop references so pooled values can be reused
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// reset empties the ring in place, clearing the buffer so no stale
// pointers (ops, misses) are retained across Sim.Reset.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}
