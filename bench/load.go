package main

import (
	"runtime"
	"time"
)

// clock is the time source of the load generators, so the open-loop
// accounting can be tested on a fake one.
type clock interface {
	// Now is the time since the repetition's epoch.
	Now() time.Duration
	// WaitUntil returns once Now() >= t.
	WaitUntil(t time.Duration)
}

// realClock spins, yielding the processor between looks at the time: a
// sleeping generator wakes tens of microseconds late, which at a 250 µs
// period would be read as system latency.
type realClock struct{ epoch time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.epoch) }

func (c realClock) WaitUntil(t time.Duration) {
	for {
		left := t - time.Since(c.epoch)
		if left <= 0 {
			return
		}
		if left > 2*time.Millisecond {
			time.Sleep(left - time.Millisecond)
			continue
		}
		runtime.Gosched()
	}
}

// sample is one attempted invocation.
type sample struct {
	// At is when the request was issued (closed loop) or due (open loop).
	At time.Duration
	// Lat is reply time minus At. A failed request keeps the time it
	// took to fail.
	Lat time.Duration
	// Late is how long after its due time an open-loop request was
	// issued: the generator's own lateness plus the queue behind a slow
	// predecessor.
	Late time.Duration
	OK   bool
}

// closedLoop issues the next request as soon as the previous one ends,
// until stop closes.
func closedLoop(clk clock, stop <-chan struct{}, call func(i int) bool) []sample {
	samples := make([]sample, 0, 1<<16)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return samples
		default:
		}
		at := clk.Now()
		ok := call(i)
		samples = append(samples, sample{At: at, Lat: clk.Now() - at, OK: ok})
	}
}

// openLoopGrace is how long after the end of its schedule an open-loop
// generator keeps working off a backlog before it writes the rest off.
const openLoopGrace = time.Second

// openLoop issues request i at from + i/rate regardless of how the system
// is doing, one at a time, and times each from when it was due: a stall
// delays every request scheduled behind it and all of them show it.
// Requests still unsent openLoopGrace after the schedule ends are counted
// as failed without being sent.
func openLoop(clk clock, rate float64, from, to time.Duration, call func(i int) bool) []sample {
	period := time.Duration(float64(time.Second) / rate)
	n := int((to - from + period - 1) / period)
	samples := make([]sample, 0, n)
	for i := 0; i < n; i++ {
		due := from + time.Duration(i)*period
		clk.WaitUntil(due)
		issued := clk.Now()
		if issued > to+openLoopGrace {
			samples = append(samples, sample{At: due, Lat: issued - due, Late: issued - due})
			continue
		}
		ok := call(i)
		samples = append(samples, sample{At: due, Lat: clk.Now() - due, Late: issued - due, OK: ok})
	}
	return samples
}
