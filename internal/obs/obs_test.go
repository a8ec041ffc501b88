package obs

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total", "again") != c {
		t.Fatal("re-registering a counter must return the same instance")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	// le=1: {0.5, 1}; le=2: {1.5, 2}; le=5: {3}; +Inf: {10}.
	snap := h.snapshot()
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if snap[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, snap[i], w, snap)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-18) > 1e-9 {
		t.Fatalf("sum = %v, want 18", h.Sum())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40})
	// 100 uniform observations over (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	p50 := h.Quantile(0.50)
	if p50 < 10 || p50 > 20 {
		t.Fatalf("p50 = %v, want within (10, 20]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 30 || p99 > 40 {
		t.Fatalf("p99 = %v, want within (30, 40]", p99)
	}
	// Everything beyond the last bound reports the observed maximum, not
	// the last finite bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 100 {
		t.Fatalf("overflow quantile = %v, want 100", got)
	}
	// Empty histogram.
	if got := newHistogram(nil).Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestHistogramQuantileClampedToObserved is the regression test for the
// coarse-bucket overstatement: when every sample lands on one value deep
// inside a wide bucket, naive interpolation reports nearly the bucket's
// upper bound for p99. The estimate must never exceed a value actually
// observed.
func TestHistogramQuantileClampedToObserved(t *testing.T) {
	h := newHistogram(LatencyBuckets) // includes the (2.5e-4, 5e-4] bucket
	for i := 0; i < 1000; i++ {
		h.Observe(344e-6) // mid-bucket (once the 2-way p50)
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got := h.Quantile(q); math.Abs(got-344e-6) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want the observed 344e-6", q, got)
		}
	}
	if h.Min() != 344e-6 || h.Max() != 344e-6 {
		t.Fatalf("min/max = %v/%v, want 344e-6 both", h.Min(), h.Max())
	}
	// Clamping also applies at the low end: samples near a bucket's top
	// must not be understated below the observed minimum.
	h2 := newHistogram([]float64{1e-3, 1e-1})
	for i := 0; i < 100; i++ {
		h2.Observe(0.099)
	}
	if got := h2.Quantile(0.01); got < 0.099 {
		t.Fatalf("low quantile = %v understates the observed minimum 0.099", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := newHistogram(nil)
	h.ObserveDuration(2 * time.Millisecond)
	s := h.Summary()
	if s.Count != 1 || s.Sum < 0.0019 || s.Sum > 0.0021 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 <= 0.001 || s.P50 > 0.0025 {
		t.Fatalf("p50 = %v, want within (0.001, 0.0025]", s.P50)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a").Add(3)
	r.Gauge("b", "").Set(-2)
	r.Histogram("h_seconds", "latency", []float64{0.1, 1}).Observe(0.5)
	r.GaugeFunc("f", "computed", func() float64 { return 1.5 })
	r.CounterFunc("cf_total", "", func() float64 { return 9 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total counts a",
		"# TYPE a_total counter",
		"a_total 3",
		"b -2",
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="0.1"} 0`,
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="+Inf"} 1`,
		"h_seconds_sum 0.5",
		"h_seconds_count 1",
		"f 1.5",
		"cf_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFinders(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", nil)
	r.Counter("c", "")
	if r.FindHistogram("h") != h {
		t.Fatal("FindHistogram must return the registered histogram")
	}
	if r.FindHistogram("absent") != nil || r.FindHistogram("c") != nil {
		t.Fatal("FindHistogram must return nil for absent or mismatched names")
	}
	if names := r.Names(); len(names) != 2 || names[0] != "c" || names[1] != "h" {
		t.Fatalf("names = %v", names)
	}
}

// TestRegistryConcurrency exercises every registry surface from many
// goroutines; run with -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared_total", "").Inc()
				r.Gauge("depth", "").Set(int64(j))
				r.Histogram("lat_seconds", "", nil).Observe(float64(j) * 1e-6)
				if j%50 == 0 {
					r.WritePrometheus(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8*500 {
		t.Fatalf("shared counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("lat_seconds", "", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

func TestDiscardLogger(t *testing.T) {
	l := LoggerOr(nil)
	l.Info("dropped", "k", "v") // must not panic or write
	if LoggerOr(nil) != l {
		t.Fatal("LoggerOr(nil) must return the shared discard logger")
	}
	if other := LoggerOr(l.With("a", 1)); other == l {
		t.Fatal("LoggerOr must pass a non-nil logger through")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "WARN": "WARN", "error": "ERROR",
	} {
		lvl, err := ParseLevel(in)
		if err != nil || lvl.String() != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, lvl, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
}

// TestTimelineOf: a recovery's timeline is a view of its recovered event,
// and survives the event's trip through the /events JSON.
func TestTimelineOf(t *testing.T) {
	ev := Event{
		Index: 5, Seq: 14, At: time.Unix(14, 0), Type: EventRecovered, Origin: "c",
		Group: "g", Node: "c", XferID: 77, Value: 3,
		Phases: []Phase{
			{PhaseCapture, time.Millisecond}, {PhaseTransfer, 2 * time.Millisecond},
			{PhaseApply, time.Millisecond}, {PhaseReplay, 3 * time.Millisecond},
		},
	}
	tl := TimelineOf(ev)
	if tl.Group != "g" || tl.Node != "c" || tl.XferID != 77 || !tl.At.Equal(ev.At) || tl.Enqueued != 3 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl.PhaseDuration(PhaseTransfer) != 2*time.Millisecond || tl.PhaseDuration("none") != 0 || tl.Total() != 7*time.Millisecond {
		t.Fatalf("phases = %+v", tl.Phases)
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got := TimelineOf(back); !slices.Equal(got.Phases, tl.Phases) || got.Enqueued != 3 {
		t.Fatalf("after JSON: %+v, want %+v", got, tl)
	}
}
