package main

import (
	"testing"
	"time"
)

// fakeClock only moves when something waits on it or a call takes time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) WaitUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

const msec = time.Millisecond

// An open loop times each request from when it was due, so one slow
// request shows in every request scheduled behind it, and reports how late
// each was sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	service := func(i int) time.Duration {
		if i == 2 {
			return 5 * msec // the stall
		}
		return msec / 10
	}
	samples := openLoop(clk, 1000, 0, 10*msec, func(i int) bool {
		clk.now += service(i)
		return true
	})
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10 (1000/s for 10 ms)", len(samples))
	}
	want := []struct{ at, late, lat time.Duration }{
		{0, 0, msec / 10},
		{1 * msec, 0, msec / 10},
		{2 * msec, 0, 5 * msec},
		// Requests 3..6 were due during the stall: sent late, back to
		// back, each timed from its own due time.
		{3 * msec, 4 * msec, 4*msec + msec/10},
		{4 * msec, 3*msec + msec/10, 3*msec + 2*msec/10},
		{5 * msec, 2*msec + 2*msec/10, 2*msec + 3*msec/10},
		{6 * msec, 1*msec + 3*msec/10, 1*msec + 4*msec/10},
		{7 * msec, 4 * msec / 10, 5 * msec / 10},
		// The backlog is worked off: on time again.
		{8 * msec, 0, msec / 10},
		{9 * msec, 0, msec / 10},
	}
	for i, w := range want {
		s := samples[i]
		if s.At != w.at || s.Late != w.late || s.Lat != w.lat || !s.OK {
			t.Errorf("request %d: At=%v Late=%v Lat=%v OK=%v, want At=%v Late=%v Lat=%v OK",
				i, s.At, s.Late, s.Lat, s.OK, w.at, w.late, w.lat)
		}
	}
}

// A system that stops answering must not keep the generator for ever:
// requests still unsent a second after the schedule ended are written off
// as failed, with the wait they had already had.
func TestOpenLoopWritesOffBacklog(t *testing.T) {
	clk := &fakeClock{}
	calls := 0
	samples := openLoop(clk, 1000, 0, 5*msec, func(i int) bool {
		calls++
		clk.now += 2 * time.Second // every call times out
		return false
	})
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	if calls != 1 {
		t.Errorf("made %d calls, want 1: the rest were due long ago when the first returned", calls)
	}
	for i, s := range samples {
		if s.OK {
			t.Errorf("request %d counted as successful", i)
		}
	}
	if last := samples[4]; last.Lat != 2*time.Second-4*msec {
		t.Errorf("written-off request waited %v, want %v", last.Lat, 2*time.Second-4*msec)
	}
}

func TestClosedLoopStops(t *testing.T) {
	clk := &fakeClock{}
	stop := make(chan struct{})
	samples := closedLoop(clk, stop, func(i int) bool {
		clk.now += msec
		if i == 4 {
			close(stop)
		}
		return i != 3
	})
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	for i, s := range samples {
		if s.At != time.Duration(i)*msec || s.Lat != msec || s.OK != (i != 3) || s.Late != 0 {
			t.Errorf("sample %d = %+v", i, s)
		}
	}
}
