package base

// Queue is a FIFO that reuses its backing array. Pop takes the head by
// index; once the popped prefix reaches half the slice the live items move
// to the front, so a queue that never drains stays bounded by its peak
// depth instead of by everything it ever held. Each move of n items
// follows at least n pops, so the copying is amortised O(1) per pop. The
// zero value is an empty queue.
type Queue[T any] struct {
	items []T
	head  int
}

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Pop removes and returns the head, or the zero value and false when the
// queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if live := len(q.items) - q.head; q.head >= live {
		copy(q.items, q.items[q.head:])
		clear(q.items[q.head:])
		q.items = q.items[:live]
		q.head = 0
	}
	return v, true
}
