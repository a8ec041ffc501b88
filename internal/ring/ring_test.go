package ring

import (
	"runtime"
	"testing"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 100; i++ {
		b.Push(i)
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := b.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d, %v", i, v, ok)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("Pop on empty buffer succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	var b Buffer[int]
	next, want := 0, 0
	// Interleave pushes and pops so head wraps many times at every size.
	for round := 0; round < 500; round++ {
		for i := 0; i < 3; i++ {
			b.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			v, ok := b.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d, %v; want %d", round, v, ok, want)
			}
			want++
		}
	}
	for b.Len() > 0 {
		v, ok := b.Pop()
		if !ok || v != want {
			t.Fatalf("drain: Pop = %d, %v; want %d", v, ok, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, pushed %d", want, next)
	}
}

func TestPeek(t *testing.T) {
	var b Buffer[string]
	if _, ok := b.Peek(); ok {
		t.Fatal("Peek on empty buffer succeeded")
	}
	b.Push("a")
	b.Push("b")
	if v, ok := b.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q, %v", v, ok)
	}
	if b.Len() != 2 {
		t.Fatalf("Peek consumed an element: Len = %d", b.Len())
	}
}

// TestPopReleasesElements verifies the reason the package exists: a
// popped element must not stay reachable through the backing array.
func TestPopReleasesElements(t *testing.T) {
	var b Buffer[*[]byte]
	collected := make(chan struct{})
	func() {
		big := new([]byte)
		*big = make([]byte, 1<<20)
		runtime.SetFinalizer(big, func(*[]byte) { close(collected) })
		b.Push(big)
	}()
	b.Push(nil) // keep the buffer non-empty so its array stays live
	if _, ok := b.Pop(); !ok {
		t.Fatal("Pop failed")
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatal("popped element still reachable after GC (slot not zeroed)")
}

// TestQueuePopBlocksUntilPush: a Pop on an empty queue waits for the next
// Push, and items come out in the order they went in.
func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := NewQueue[int]()
	got := make(chan int)
	go func() {
		for {
			v, ok := q.Pop()
			if !ok {
				close(got)
				return
			}
			got <- v
		}
	}()
	select {
	case v := <-got:
		t.Fatalf("Pop on an empty queue returned %d", v)
	case <-time.After(20 * time.Millisecond):
	}
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	for i := 0; i < 3; i++ {
		if v := <-got; v != i {
			t.Fatalf("Pop #%d = %d", i, v)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after every item was popped", q.Len())
	}
	q.Close()
	if _, ok := <-got; ok {
		t.Fatal("Pop returned an item after Close on an empty queue")
	}
}

// TestQueueCloseKeepsWhatIsQueued: Close wakes poppers but drops nothing;
// pushes after it are ignored.
func TestQueueCloseKeepsWhatIsQueued(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1)
	q.Push(2)
	q.Close()
	q.Close()
	q.Push(3)
	if q.Len() != 2 {
		t.Fatalf("Len = %d after Close, want the 2 items pushed before it", q.Len())
	}
	for _, want := range []int{1, 2} {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on a closed, drained queue")
	}
}
