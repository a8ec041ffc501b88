package faultdetect

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestNotifierFanOut(t *testing.T) {
	n := NewNotifier()
	a := n.Subscribe()
	b := n.Subscribe()
	n.Publish(Fault{Group: "g", Node: "x", Reason: "test"})
	for _, ch := range []<-chan Fault{a, b} {
		select {
		case f := <-ch:
			if f.Group != "g" || f.Node != "x" {
				t.Fatalf("fault = %+v", f)
			}
		case <-time.After(time.Second):
			t.Fatal("subscriber missed the event")
		}
	}
}

func TestNotifierSlowSubscriberDropsNotBlocks(t *testing.T) {
	n := NewNotifier()
	_ = n.Subscribe() // never read
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ { // exceed the buffer
			n.Publish(Fault{Group: "g"})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
}

func TestMonitorHealthyReplicaStaysQuiet(t *testing.T) {
	n := NewNotifier()
	sub := n.Subscribe()
	var probes atomic.Int32
	m := StartMonitor("g", "node", 5*time.Millisecond, func() bool {
		probes.Add(1)
		return true
	}, n)
	defer m.Stop()
	time.Sleep(60 * time.Millisecond)
	select {
	case f := <-sub:
		t.Fatalf("unexpected fault %+v", f)
	default:
	}
	if probes.Load() < 3 {
		t.Fatalf("probes = %d, want several", probes.Load())
	}
}

func TestMonitorDetectsFailure(t *testing.T) {
	n := NewNotifier()
	sub := n.Subscribe()
	var probes atomic.Int32
	StartMonitor("g", "node", 5*time.Millisecond, func() bool {
		return probes.Add(1) < 3 // fail on the third probe
	}, n)
	select {
	case f := <-sub:
		if f.Group != "g" || f.Node != "node" {
			t.Fatalf("fault = %+v", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure never detected")
	}
}

func TestMonitorDetectsHang(t *testing.T) {
	n := NewNotifier()
	sub := n.Subscribe()
	block := make(chan struct{})
	defer close(block)
	StartMonitor("g", "node", 15*time.Millisecond, func() bool {
		<-block // a wedged replica never answers
		return true
	}, n)
	select {
	case f := <-sub:
		if f.Reason == "" {
			t.Fatalf("fault = %+v", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang never detected")
	}
}

func TestMonitorStopIdempotentAndQuiet(t *testing.T) {
	n := NewNotifier()
	sub := n.Subscribe()
	m := StartMonitor("g", "node", 5*time.Millisecond, func() bool { return true }, n)
	m.Stop()
	m.Stop()
	select {
	case f := <-sub:
		t.Fatalf("fault after stop: %+v", f)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestMonitorReportsOnceThenStops(t *testing.T) {
	n := NewNotifier()
	sub := n.Subscribe()
	StartMonitor("g", "node", 2*time.Millisecond, func() bool { return false }, n)
	<-sub
	select {
	case f := <-sub:
		t.Fatalf("second fault from the same monitor: %+v", f)
	case <-time.After(30 * time.Millisecond):
	}
}
