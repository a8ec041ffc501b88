package faultdetect

import (
	"sync/atomic"
	"testing"
	"time"
)

// reports collects what monitors report; a monitor reports at most once.
func reports() (chan Fault, func(Fault)) {
	ch := make(chan Fault, 4)
	return ch, func(f Fault) { ch <- f }
}

func TestMonitorHealthyReplicaStaysQuiet(t *testing.T) {
	got, report := reports()
	var probes atomic.Int32
	m := StartMonitor("g", "node", 5*time.Millisecond, func() bool {
		probes.Add(1)
		return true
	}, report)
	defer m.Stop()
	time.Sleep(60 * time.Millisecond)
	select {
	case f := <-got:
		t.Fatalf("unexpected fault %+v", f)
	default:
	}
	if probes.Load() < 3 {
		t.Fatalf("probes = %d, want several", probes.Load())
	}
}

func TestMonitorDetectsFailure(t *testing.T) {
	got, report := reports()
	var probes atomic.Int32
	StartMonitor("g", "node", 5*time.Millisecond, func() bool {
		return probes.Add(1) < 3 // fail on the third probe
	}, report)
	select {
	case f := <-got:
		if f.Group != "g" || f.Node != "node" {
			t.Fatalf("fault = %+v", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure never detected")
	}
}

func TestMonitorDetectsHang(t *testing.T) {
	got, report := reports()
	block := make(chan struct{})
	defer close(block)
	StartMonitor("g", "node", 15*time.Millisecond, func() bool {
		<-block // a wedged replica never answers
		return true
	}, report)
	select {
	case f := <-got:
		if f.Reason == "" {
			t.Fatalf("fault = %+v", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang never detected")
	}
}

func TestMonitorStopIdempotentAndQuiet(t *testing.T) {
	got, report := reports()
	m := StartMonitor("g", "node", 5*time.Millisecond, func() bool { return true }, report)
	m.Stop()
	m.Stop()
	select {
	case f := <-got:
		t.Fatalf("fault after stop: %+v", f)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestMonitorReportsOnceThenStops(t *testing.T) {
	got, report := reports()
	StartMonitor("g", "node", 2*time.Millisecond, func() bool { return false }, report)
	<-got
	select {
	case f := <-got:
		t.Fatalf("second fault from the same monitor: %+v", f)
	case <-time.After(30 * time.Millisecond):
	}
}
