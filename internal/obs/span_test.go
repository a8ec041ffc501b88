package obs

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

func TestSpanRecorderLifecycle(t *testing.T) {
	r := NewSpanRecorder("n1", 8)
	r.Begin(7, "g")
	r.Mark(7, SpanMarshalled)
	r.Mark(7, SpanEnqueued)
	r.MarkSeq(7, SpanOrdered, 42)
	r.Mark(7, SpanReplyDelivered)
	if r.Open() != 1 {
		t.Fatalf("open = %d, want 1", r.Open())
	}
	r.Finish(7)
	if r.Open() != 0 || r.Total() != 1 {
		t.Fatalf("open/total = %d/%d, want 0/1", r.Open(), r.Total())
	}
	spans := r.Since(0, 0)
	if len(spans) != 1 {
		t.Fatalf("spans = %+v, want 1", spans)
	}
	sp := spans[0]
	if sp.Index != 1 || sp.Trace != 7 || sp.Node != "n1" || sp.Group != "g" || sp.Seq != 42 {
		t.Fatalf("span = %+v", sp)
	}
	for _, ph := range []SpanPhase{SpanIntercepted, SpanMarshalled, SpanEnqueued, SpanOrdered, SpanReplyDelivered} {
		if sp.Phases[ph] == 0 {
			t.Fatalf("phase %s unrecorded: %+v", ph, sp)
		}
	}
	if sp.Phases[SpanExecuted] != 0 {
		t.Fatalf("unmarked phase recorded: %+v", sp)
	}
	if sp.Start() != sp.Phases[SpanIntercepted] || sp.End() != sp.Phases[SpanReplyDelivered] {
		t.Fatalf("start/end = %d/%d, phases %+v", sp.Start(), sp.End(), sp.Phases)
	}
}

func TestSpanRecorderFirstMarkWins(t *testing.T) {
	r := NewSpanRecorder("n1", 8)
	r.Mark(1, SpanOrdered)
	first := func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.active[1].sp.Phases[SpanOrdered]
	}()
	time.Sleep(time.Millisecond)
	r.Mark(1, SpanOrdered)
	r.MarkSeq(1, SpanOrdered, 9)
	r.Finish(1)
	sp := r.Since(0, 0)[0]
	if sp.Phases[SpanOrdered] != first {
		t.Fatalf("re-mark overwrote the first timestamp: %d != %d", sp.Phases[SpanOrdered], first)
	}
	if sp.Seq != 9 {
		t.Fatalf("seq = %d, want 9 (set on the later MarkSeq)", sp.Seq)
	}
}

// TestSpanMarkOpenNeverCreates is the duplicate-reply regression: with
// active replication every replica multicasts the reply, so reply-phase
// marks can arrive after the client's span finished. They must stamp
// only a still-open span — re-creating a fragment would flood the
// journal ring and evict real spans.
func TestSpanMarkOpenNeverCreates(t *testing.T) {
	r := NewSpanRecorder("n1", 8)
	r.Begin(5, "g")
	r.MarkOpen(5, SpanReplyOrdered)
	r.Mark(5, SpanReplyDelivered)
	r.Finish(5)
	if r.Open() != 0 || r.Total() != 1 {
		t.Fatalf("open/total = %d/%d, want 0/1", r.Open(), r.Total())
	}
	// The duplicate reply's marks arrive after Finish: no new span.
	r.MarkOpen(5, SpanReplyOrdered)
	r.MarkOpen(5, SpanReplyTransmitted)
	if r.Open() != 0 {
		t.Fatalf("MarkOpen re-created a finished span (open = %d)", r.Open())
	}
	if got := r.Since(0, 0); len(got) != 1 || got[0].Phases[SpanReplyOrdered] == 0 {
		t.Fatalf("journal polluted or open-span mark lost: %+v", got)
	}
}

func TestSpanRecorderUntracedAndNil(t *testing.T) {
	var nilRec *SpanRecorder
	nilRec.Begin(1, "g") // must not panic
	nilRec.Mark(1, SpanOrdered)
	nilRec.Finish(1)
	nilRec.FlushIdle(0)
	if nilRec.Since(0, 0) != nil || nilRec.Total() != 0 || nilRec.Dropped() != 0 || nilRec.Open() != 0 {
		t.Fatal("nil recorder must report empty")
	}
	r := NewSpanRecorder("n1", 4)
	r.Begin(0, "g") // trace 0 is the untraced sentinel
	r.Mark(0, SpanOrdered)
	if r.Open() != 0 {
		t.Fatalf("untraced sentinel opened a span: %d", r.Open())
	}
}

func TestSpanRecorderPagination(t *testing.T) {
	r := NewSpanRecorder("n1", 4)
	for id := uint64(1); id <= 6; id++ {
		r.Mark(id, SpanOrdered)
		r.Finish(id)
	}
	// Capacity 4, 6 journalled: indexes 1,2 evicted.
	if r.Dropped() != 2 || r.Total() != 6 {
		t.Fatalf("dropped/total = %d/%d, want 2/6", r.Dropped(), r.Total())
	}
	all := r.Since(0, 0)
	if len(all) != 4 || all[0].Index != 3 || all[3].Index != 6 {
		t.Fatalf("Since(0) = %+v, want indexes 3..6", all)
	}
	page := r.Since(4, 2)
	if len(page) != 2 || page[0].Index != 5 || page[1].Index != 6 {
		t.Fatalf("Since(4,2) = %+v, want indexes 5,6", page)
	}
	if got := r.Since(6, 0); got != nil {
		t.Fatalf("Since(6) = %+v, want empty", got)
	}
}

func TestSpanRecorderActiveEviction(t *testing.T) {
	r := NewSpanRecorder("n1", 4)
	for id := uint64(1); id <= 6; id++ {
		r.Mark(id, SpanOrdered) // never finished
	}
	// The active set is bounded by the journal capacity: the two oldest
	// open spans were journalled rather than lost.
	if r.Open() != 4 {
		t.Fatalf("open = %d, want 4", r.Open())
	}
	spans := r.Since(0, 0)
	if len(spans) != 2 || spans[0].Trace != 1 || spans[1].Trace != 2 {
		t.Fatalf("evicted spans = %+v, want traces 1,2", spans)
	}
}

// TestSpanRecorderEvictionOrder: every node but the client's opens spans
// it never finishes, so there eviction is the steady state. The journal
// must receive evicted spans oldest first under contiguous indexes — also
// once Finish and FlushIdle have left stale entries in the creation order,
// and a trace re-opened after it finished must not be evicted through its
// first incarnation's entry.
func TestSpanRecorderEvictionOrder(t *testing.T) {
	const capacity = 16
	r := NewSpanRecorder("n1", capacity)
	var open, journalled []uint64 // the model: creation order, journal order
	mark := func(trace uint64) {
		if !slices.Contains(open, trace) {
			open = append(open, trace)
			if len(open) > capacity {
				journalled = append(journalled, open[0])
				open = open[1:]
			}
		}
		r.Mark(trace, SpanOrdered)
	}
	check := func(step string) {
		t.Helper()
		if r.Open() != len(open) || r.Total() != uint64(len(journalled)) {
			t.Fatalf("%s: open/total = %d/%d, want %d/%d", step, r.Open(), r.Total(), len(open), len(journalled))
		}
		got := r.Since(0, 0)
		want := journalled[max(0, len(journalled)-capacity):]
		if len(got) != len(want) {
			t.Fatalf("%s: journal holds %d spans, want %d", step, len(got), len(want))
		}
		for i, sp := range got {
			if sp.Trace != want[i] || sp.Index != uint64(len(journalled)-len(want)+i+1) {
				t.Fatalf("%s: journal[%d] = trace %d index %d, want trace %d index %d",
					step, i, sp.Trace, sp.Index, want[i], len(journalled)-len(want)+i+1)
			}
		}
		if r.order.Len() > 2*capacity+1 {
			t.Fatalf("%s: creation order holds %d entries for %d open spans", step, r.order.Len(), r.Open())
		}
	}

	next := uint64(1)
	for ; next <= 10*capacity; next++ {
		mark(next)
	}
	check("open 10x capacity")
	if r.Open() != capacity {
		t.Fatalf("open = %d, want %d", r.Open(), capacity)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 4000; i++ {
		switch op := rng.IntN(20); {
		case op < 8: // a new trace
			mark(next)
			next++
		case op < 15 && len(open) > 0: // the client's node finishes one
			trace := open[rng.IntN(len(open))]
			open = slices.DeleteFunc(open, func(id uint64) bool { return id == trace })
			journalled = append(journalled, trace)
			r.Finish(trace)
		case op < 19 && next > 1: // a finished (or still open) trace is marked again
			mark(1 + rng.Uint64N(next-1))
		case op == 19:
			journalled = append(journalled, open...)
			open = nil
			r.FlushIdle(-time.Second) // a cutoff ahead of every mark: all idle
		}
		check(fmt.Sprintf("step %d", i))
	}
}

func TestSpanRecorderFlushIdle(t *testing.T) {
	r := NewSpanRecorder("n1", 8)
	r.Mark(1, SpanOrdered)
	time.Sleep(5 * time.Millisecond)
	r.Mark(2, SpanOrdered)
	r.FlushIdle(2 * time.Millisecond)
	if r.Open() != 1 || r.Total() != 1 {
		t.Fatalf("open/total = %d/%d, want 1/1 (only the idle span flushed)", r.Open(), r.Total())
	}
	if got := r.Since(0, 0); len(got) != 1 || got[0].Trace != 1 {
		t.Fatalf("flushed = %+v, want trace 1", got)
	}
	r.FlushIdle(0)
	if r.Open() != 0 || r.Total() != 2 {
		t.Fatalf("open/total = %d/%d, want 0/2", r.Open(), r.Total())
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	sp := Span{Index: 3, Trace: 9, Node: "n2", Group: "g", Seq: 17}
	sp.Phases[SpanOrdered] = 1000
	sp.Phases[SpanExecuted] = 2000
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != sp {
		t.Fatalf("round trip: %+v != %+v\njson: %s", back, sp, data)
	}
}

// TestSpanMarkZeroAlloc is the hot-path guard: marking phases on a live
// span must not allocate (the struct is pooled, the phase store is an
// int64 write).
func TestSpanMarkZeroAlloc(t *testing.T) {
	r := NewSpanRecorder("n1", 64)
	// Warm the pool and the active map.
	for id := uint64(1); id <= 32; id++ {
		r.Mark(id, SpanEnqueued)
		r.Finish(id)
	}
	r.Mark(100, SpanEnqueued)
	if avg := testing.AllocsPerRun(1000, func() {
		r.Mark(100, SpanTransmitted)
		r.MarkSeq(100, SpanOrdered, 5)
	}); avg != 0 {
		t.Fatalf("Mark allocates %v per run, want 0", avg)
	}
}

// BenchmarkSpanLifecycle measures the full per-invocation recording cost
// (open, six marks, finish) with allocation reporting — the overhead
// every traced invocation pays.
func BenchmarkSpanLifecycle(b *testing.B) {
	r := NewSpanRecorder("n1", 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace := uint64(i + 1)
		r.Begin(trace, "g")
		r.Mark(trace, SpanMarshalled)
		r.Mark(trace, SpanEnqueued)
		r.Mark(trace, SpanTransmitted)
		r.MarkSeq(trace, SpanOrdered, uint64(i))
		r.Mark(trace, SpanReplyDelivered)
		r.Finish(trace)
	}
}

func TestRotationLog(t *testing.T) {
	var nilLog *RotationLog
	nilLog.Record(TokenRotation{}) // must not panic
	if nilLog.Last(5) != nil {
		t.Fatal("nil log must report empty")
	}
	l := NewRotationLog(4)
	for i := 1; i <= 6; i++ {
		l.Record(TokenRotation{Round: uint64(i)})
	}
	last := l.Last(0)
	if len(last) != 4 || last[0].Round != 3 || last[3].Round != 6 {
		t.Fatalf("Last(0) = %+v, want rounds 3..6", last)
	}
	if got := l.Last(2); len(got) != 2 || got[0].Round != 5 || got[1].Round != 6 {
		t.Fatalf("Last(2) = %+v, want rounds 5,6", got)
	}
}
