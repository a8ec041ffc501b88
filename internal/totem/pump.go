package totem

import "eternal/internal/ring"

// pump bridges the protocol goroutine to consumers: the protocol must
// never block on a slow consumer (a blocked run loop would stall the
// token), so deliveries and membership views queue here and a forwarding
// goroutine hands them out on a channel.
type pump[T any] struct {
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

// In enqueues v; it never blocks. Enqueueing after Close is a no-op.
func (p *pump[T]) In(v T) { p.queue.Push(v) }

// Out returns the consumer channel; it is closed after Close.
func (p *pump[T]) Out() <-chan T { return p.out }

// Close stops the pump immediately: queued but unconsumed items are
// dropped and Out closes. Close must be called once.
func (p *pump[T]) Close() {
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
	}
}
