// Package obs is Eternal's observability substrate: a dependency-free
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms with percentile summaries), a span journal that follows one
// invocation through the interception → multicast → total order →
// execution → reply pipeline, and a flight recorder whose "recovered"
// events carry the per-phase recovery timeline that reproduces the
// paper's Figure 6 measurement path from live instrumentation.
//
// Everything here is safe for concurrent use: metrics are updated from
// the totem run goroutine, the node's delivery loop, per-replica
// dispatchers and client egress goroutines simultaneously, and scraped
// by the admin endpoint at any moment.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

type metric struct {
	name    string
	help    string
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry is a named collection of metrics. All registration methods are
// get-or-create: registering the same name twice returns the existing
// metric, so independent layers may share one registry without
// coordination. Registering a name under a different kind panics (a
// programming error, like an expvar collision).
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) getOrCreate(name, help string, kind metricKind, create func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
				name, kind.promType(), m.kind.promType()))
		}
		return m
	}
	m := create()
	m.name, m.help, m.kind = name, help, kind
	r.metrics[name] = m
	return m
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getOrCreate(name, help, kindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getOrCreate(name, help, kindGauge, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket upper bounds (nil uses LatencyBuckets). The bounds of an
// existing histogram are not changed.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.getOrCreate(name, help, kindHistogram, func() *metric {
		return &metric{hist: newHistogram(buckets)}
	}).hist
}

// CounterFunc registers a counter whose value is computed at scrape time
// (for layers that keep their own atomic counters, like the totem
// processor or the process-wide GIOP parser statistics). Re-registering
// an existing name keeps the first function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.getOrCreate(name, help, kindCounterFunc, func() *metric {
		return &metric{fn: fn}
	})
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.getOrCreate(name, help, kindGaugeFunc, func() *metric {
		return &metric{fn: fn}
	})
}

// FindHistogram returns the named histogram, or nil if it has not been
// registered (or is not a histogram).
func (r *Registry) FindHistogram(name string) *Histogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if m, ok := r.metrics[name]; ok && m.kind == kindHistogram {
		return m.hist
	}
	return nil
}

// Names lists the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind.promType())
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
		case kindHistogram:
			m.hist.writePrometheus(w, m.name)
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
