// Package ring provides a growable circular FIFO buffer.
//
// It exists to replace the slice-shift idiom (q.items = q.items[1:])
// on the delivery hot paths: shifting a slice head keeps every popped
// element reachable through the backing array until the array itself
// turns over, which for queues of delivered payloads pins arbitrarily
// old message bodies in memory. Buffer zeroes each vacated slot on Pop,
// so popped elements become collectable immediately, and reuses its
// storage in a circle, so a steady-state queue allocates nothing.
//
// Buffer is not synchronized. Queue is the one shared between goroutines:
// a Buffer under a lock, with a blocking pop.
package ring

import "sync"

// Buffer is a growable circular FIFO. The zero value is ready to use.
type Buffer[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// Len reports the number of buffered elements.
func (b *Buffer[T]) Len() int { return b.n }

// Push appends v at the tail, growing the storage if full.
func (b *Buffer[T]) Push(v T) {
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)%len(b.buf)] = v
	b.n++
}

// Pop removes and returns the oldest element, zeroing its slot so the
// buffer does not retain it. ok is false when the buffer is empty.
func (b *Buffer[T]) Pop() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	var zero T
	v = b.buf[b.head]
	b.buf[b.head] = zero
	b.head = (b.head + 1) % len(b.buf)
	b.n--
	return v, true
}

// Each calls f on every buffered element, oldest first, without removing
// any. f must not push or pop.
func (b *Buffer[T]) Each(f func(*T)) {
	for i := 0; i < b.n; i++ {
		f(&b.buf[(b.head+i)%len(b.buf)])
	}
}

// Peek returns the oldest element without removing it.
func (b *Buffer[T]) Peek() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	return b.buf[b.head], true
}

// grow doubles the storage (starting at a small power of two) and
// linearizes the elements at the front of the new array.
func (b *Buffer[T]) grow() {
	size := len(b.buf) * 2
	if size == 0 {
		size = 8
	}
	next := make([]T, size)
	for i := 0; i < b.n; i++ {
		next[i] = b.buf[(b.head+i)%len(b.buf)]
	}
	b.buf = next
	b.head = 0
}

// Queue is an unbounded FIFO shared between goroutines: Push never blocks,
// Pop blocks until an item arrives or the queue closes. Items still queued
// at Close are popped as usual; a consumer that wants them dropped stops
// popping.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  Buffer[T]
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues v; it never blocks. Pushing after Close is a no-op.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items.Push(v)
	q.cond.Signal()
}

// Pop blocks until an item is available or the queue closes; ok is false
// only after Close with the queue empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.items.Pop()
}

// Close wakes every blocked Pop. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}
