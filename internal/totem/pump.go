package totem

import (
	"sync"

	"eternal/internal/ring"
)

// pump bridges the protocol goroutine to consumers: the protocol must
// never block on a slow consumer (a blocked run loop would stall the
// token). A consumer already waiting on Out gets an item straight from
// In; otherwise items queue here and a forwarding goroutine hands them
// out on the channel.
type pump[T any] struct {
	// mu orders the two paths: In hands over directly only while nothing
	// is queued or in the forwarder's hands (pending == 0).
	mu      sync.Mutex
	pending int
	closed  bool

	queue *ring.Queue[T]
	out   chan T
	done  chan struct{}
}

func newPump[T any]() *pump[T] {
	p := &pump[T]{
		queue: ring.NewQueue[T](),
		out:   make(chan T),
		done:  make(chan struct{}),
	}
	go p.run()
	return p
}

// In hands v to a waiting consumer or enqueues it; it never blocks.
// In after Close is a no-op.
func (p *pump[T]) In(v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if p.pending == 0 {
		select {
		case p.out <- v:
			return
		default:
		}
	}
	p.pending++
	p.queue.Push(v)
}

// Out returns the consumer channel; it is closed after Close.
func (p *pump[T]) Out() <-chan T { return p.out }

// Close stops the pump immediately: queued but unconsumed items are
// dropped and Out closes. Close must be called once.
func (p *pump[T]) Close() {
	// Under the lock, so no In is mid-send when the forwarder closes Out.
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	p.queue.Close()
}

func (p *pump[T]) run() {
	defer close(p.out)
	for {
		v, ok := p.queue.Pop()
		if !ok {
			return
		}
		select {
		case <-p.done:
			return // what is still queued is dropped
		default:
		}
		select {
		case p.out <- v:
		case <-p.done:
			return
		}
		p.mu.Lock()
		p.pending--
		p.mu.Unlock()
	}
}
