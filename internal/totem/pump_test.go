package totem

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"eternal/internal/ring"
)

// drainPump is a pump's consumer: it reports every item on got and closes
// got when Out closes, stalling after each item stall says to.
func drainPump(out <-chan int, stall func(int) bool, got chan<- int) {
	defer close(got)
	for {
		v, ok := <-out
		if !ok {
			return
		}
		got <- v
		if stall(v) {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// awaitConsumerWaiting returns once drainPump is blocked on the pump's
// Out channel — the moment In may hand an item straight over.
func awaitConsumerWaiting(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "totem.drainPump(") {
				return
			}
		}
	}
	t.Fatal("the consumer never waited on Out")
}

// TestPumpHandsStraightToAWaitingConsumer: with no forwarder running, a
// consumer waiting on Out still gets In's item, so the hand-off is
// direct; and Close after it closes Out.
func TestPumpHandsStraightToAWaitingConsumer(t *testing.T) {
	p := &pump[int]{queue: ring.NewQueue[int](), out: make(chan int), done: make(chan struct{})}
	got := make(chan int, 1)
	go drainPump(p.Out(), func(int) bool { return false }, got)
	awaitConsumerWaiting(t)
	p.In(1)
	select {
	case v := <-got:
		if v != 1 {
			t.Fatalf("got %d, want 1", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a waiting consumer did not get the item without the forwarder")
	}
	go p.run()
	p.Close()
	select {
	case _, open := <-got:
		if open {
			t.Fatal("an item arrived after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Out did not close after Close")
	}
	p.In(2) // after Close: a no-op, not a send on the closed channel
}

// TestPumpKeepsOrderAcrossDirectAndQueued: a consumer that stalls now and
// then makes In alternate between handing items straight over and
// queueing them for the forwarder; either way they arrive in order.
func TestPumpKeepsOrderAcrossDirectAndQueued(t *testing.T) {
	const n = 1000
	p := newPump[int]()
	got := make(chan int, n)
	go drainPump(p.Out(), func(v int) bool { return v%7 == 0 }, got)
	for v := 0; v < n; v++ {
		if v%25 == 0 {
			awaitConsumerWaiting(t)
		}
		p.In(v)
	}
	for want := 0; want < n; want++ {
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("item %d arrived in position %d", v, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d never arrived", want)
		}
	}
	p.Close()
	if _, open := <-got; open {
		t.Fatal("an item arrived after the last one")
	}
}
