package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eternal"
	"eternal/internal/simnet"
)

// snapshot is every counter the benchmark can read from outside at one
// instant: the medium's, each node's registry and stats, and the process's.
type snapshot struct {
	// At is when the reading started, on the repetition's clock.
	At  time.Duration
	Net simnet.Stats
	// Reg sums each registry counter (and histogram _sum/_count) over
	// the nodes running at the time.
	Reg map[string]float64
	// Executed is RequestsExecuted+RequestsLogged per node.
	Executed map[string]uint64
	Mallocs  uint64
	AllocB   uint64
	CPU      time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape reads every unlabelled sample of a registry's exposition.
func scrape(r *eternal.MetricsRegistry, into map[string]float64) {
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			into[name] += v
		}
	}
}

func takeSnapshot(sys *eternal.System, at time.Duration) snapshot {
	s := snapshot{At: at, Net: sys.Network().Stats(), Reg: make(map[string]float64), Executed: make(map[string]uint64)}
	for _, nd := range sys.Nodes() {
		n := sys.Node(nd)
		if n == nil {
			continue
		}
		scrape(n.Metrics(), s.Reg)
		st := n.Stats()
		s.Executed[nd] = st.RequestsExecuted + st.RequestsLogged
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Mallocs, s.AllocB = ms.Mallocs, ms.TotalAlloc
	s.CPU = processCPU()
	return s
}

// probeResult is what the prober of a traced repetition collected.
type probeResult struct {
	// S holds the readings taken at the start of the steady window, at
	// its end (the start of churn) and at the end of churn.
	S [3]snapshot
	// LagMax is the widest spread of executed-or-logged requests across
	// the workload's nodes seen in the steady window.
	LagMax uint64
	// HeapPeak is the largest live heap sampled, in bytes.
	HeapPeak uint64
	// Spans are the nodes' own invocation spans, as drained.
	Spans map[string][]eternal.Span
	// Timelines are the churn node's recovery timelines.
	Timelines []eternal.RecoveryTimeline
	// McastP50 is the client node's multicast-to-delivery median, in
	// seconds, over the life of the cluster.
	McastP50 float64
}

// prober watches a cluster from outside during a traced repetition.
type prober struct {
	sys    *eternal.System
	w      workload
	clk    clock
	res    probeResult
	stop   chan struct{}
	done   sync.WaitGroup
	cursor map[string]uint64
}

const (
	lagEvery   = 100 * time.Millisecond
	drainEvery = 200 * time.Millisecond
)

// startProbe begins the periodic readings: replica lag and live heap every
// 100 ms, the nodes' span journals every 200 ms.
func startProbe(sys *eternal.System, w workload, clk clock, steady window) *prober {
	p := &prober{sys: sys, w: w, clk: clk, stop: make(chan struct{}), cursor: make(map[string]uint64)}
	p.res.Spans = make(map[string][]eternal.Span)
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(lagEvery)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			now := clk.Now()
			metrics.Read(heap)
			p.res.HeapPeak = max(p.res.HeapPeak, heap[0].Value.Uint64())
			if steady.holds(now) {
				p.res.LagMax = max(p.res.LagMax, p.lag())
			}
			if n%int(drainEvery/lagEvery) == 0 {
				p.drain()
			}
		}
	}()
	return p
}

func (p *prober) lag() uint64 {
	var lo, hi uint64
	for i, nd := range p.w.Nodes {
		n := p.sys.Node(nd)
		if n == nil {
			continue
		}
		st := n.Stats()
		v := st.RequestsExecuted + st.RequestsLogged
		if i == 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	return hi - lo
}

func (p *prober) drain() {
	for _, nd := range p.sys.Nodes() {
		n := p.sys.Node(nd)
		if n == nil {
			continue
		}
		got := n.Spans(p.cursor[nd], 0)
		if len(got) > 0 {
			p.cursor[nd] = got[len(got)-1].Index
			p.res.Spans[nd] = append(p.res.Spans[nd], got...)
		}
	}
}

// snap takes reading i of the three. The repetition's own goroutine calls
// it, at the window edges it is waiting for anyway.
func (p *prober) snap(i int) { p.res.S[i] = takeSnapshot(p.sys, p.clk.Now()) }

// finish stops the prober at the end of churn and takes the last readings.
func (p *prober) finish() *probeResult {
	close(p.stop)
	p.done.Wait()
	p.snap(2)
	p.drain()
	if n := p.sys.Node(p.w.ChurnNode); n != nil {
		p.res.Timelines = n.RecoveryTimelines()
	}
	if h := p.sys.Node(p.w.Clients[0].Node).Metrics().FindHistogram("eternal_totem_mcast_delivery_seconds"); h != nil {
		p.res.McastP50 = h.Quantile(0.5)
	}
	return &p.res
}
