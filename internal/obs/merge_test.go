package obs

import (
	"slices"
	"testing"
	"time"
)

// mkEvent builds a feed event; helper keeps the tables readable.
func mkEvent(seq uint64, typ, group, node string, xfer uint64, ordered bool) Event {
	return Event{
		Index: seq, Seq: seq, At: time.Unix(int64(seq), 0), Type: typ, Origin: "feed",
		Group: group, Node: node, XferID: xfer, Ordered: ordered,
	}
}

func TestMergeCollapsesIdenticalOrderedEvents(t *testing.T) {
	feeds := map[string][]Event{
		"a": {
			mkEvent(5, EventGroupCreate, "g", "", 0, true),
			mkEvent(9, EventMemberAdd, "g", "c", 77, true),
			mkEvent(7, EventSuspicion, "g", "b", 0, false),
		},
		"b": {
			mkEvent(5, EventGroupCreate, "g", "", 0, true),
			mkEvent(9, EventMemberAdd, "g", "c", 77, true),
		},
		"c": {
			mkEvent(9, EventMemberAdd, "g", "c", 77, true),
		},
	}
	m := MergeEvents(feeds)
	if len(m.Divergences) != 0 {
		t.Fatalf("unexpected divergences: %+v", m.Divergences)
	}
	if len(m.Entries) != 3 {
		t.Fatalf("entries = %d, want 3 (create, suspicion, add): %+v", len(m.Entries), m.Entries)
	}
	// Totally ordered by seq, and free of any one observer's Index/Origin.
	for i, e := range m.Entries {
		if i > 0 && e.Seq < m.Entries[i-1].Seq {
			t.Fatalf("entries out of order: %+v", m.Entries)
		}
		if e.Index != 0 || e.Origin != "" {
			t.Fatalf("entry keeps an observer's index/origin: %+v", e)
		}
	}
	create := m.Entries[0]
	if create.Type != EventGroupCreate || len(create.Origins) != 2 {
		t.Fatalf("create entry = %+v, want origins [a b]", create)
	}
	add := m.Entries[2]
	if add.Type != EventMemberAdd || len(add.Origins) != 3 {
		t.Fatalf("add entry = %+v, want origins [a b c]", add)
	}
	local := m.Entries[1]
	if local.Type != EventSuspicion || local.Ordered || len(local.Origins) != 1 {
		t.Fatalf("suspicion entry = %+v", local)
	}
}

func TestMergeFlagsDivergence(t *testing.T) {
	feeds := map[string][]Event{
		"a": {
			mkEvent(3, EventGroupCreate, "g", "", 0, true),
			mkEvent(8, EventMemberRemove, "g", "x", 0, true),
		},
		"b": {
			mkEvent(3, EventGroupCreate, "g", "", 0, true),
			mkEvent(8, EventMemberRemove, "g", "y", 0, true), // disagrees on the member
		},
	}
	m := MergeEvents(feeds)
	if len(m.Divergences) != 1 || m.Divergences[0].Seq != 8 {
		t.Fatalf("divergences = %+v, want one at seq 8", m.Divergences)
	}
	if len(m.Divergences[0].Keys["a"]) != 1 || len(m.Divergences[0].Keys["b"]) != 1 {
		t.Fatalf("divergence keys = %+v", m.Divergences[0].Keys)
	}
}

func TestMergeMissingEventWithinCoverageDiverges(t *testing.T) {
	feeds := map[string][]Event{
		"a": {
			mkEvent(3, EventGroupCreate, "g", "", 0, true),
			mkEvent(5, EventMemberRemove, "g", "x", 0, true),
			mkEvent(9, EventCheckpoint, "g", "", 1, true),
		},
		"b": { // covers 3..9 but never saw the removal at 5
			mkEvent(3, EventGroupCreate, "g", "", 0, true),
			mkEvent(9, EventCheckpoint, "g", "", 1, true),
		},
	}
	m := MergeEvents(feeds)
	if len(m.Divergences) != 1 || m.Divergences[0].Seq != 5 {
		t.Fatalf("divergences = %+v, want one at seq 5", m.Divergences)
	}
}

func TestMergeOutsideCoverageIsNotDivergence(t *testing.T) {
	// Node b joined late: its feed only starts at seq 20. Earlier events
	// recorded by a alone must not count against b.
	feeds := map[string][]Event{
		"a": {
			mkEvent(3, EventGroupCreate, "g", "", 0, true),
			mkEvent(20, EventCheckpoint, "g", "", 1, true),
		},
		"b": {
			mkEvent(20, EventCheckpoint, "g", "", 1, true),
		},
	}
	m := MergeEvents(feeds)
	if len(m.Divergences) != 0 {
		t.Fatalf("unexpected divergences: %+v", m.Divergences)
	}
}

// TestMergeDuplicateSeqsFromReformedRing models a ring reformation: the
// new view's install shares its sequence number with the old ring's last
// ordered event, so every feed carries two distinct ordered events at the
// same seq (and boundary feeds carry only one of them). The merge must
// collapse the duplicates per key without flagging a divergence.
func TestMergeDuplicateSeqsFromReformedRing(t *testing.T) {
	view := Event{Seq: 12, At: time.Unix(12, 0), Type: EventView, Detail: "epoch=3", Ordered: true}
	feeds := map[string][]Event{
		"a": {
			mkEvent(8, EventGroupCreate, "g", "", 0, true),
			mkEvent(12, EventMemberRemove, "g", "x", 0, true),
			view,
			mkEvent(15, EventCheckpoint, "g", "", 1, true),
		},
		"b": {
			mkEvent(8, EventGroupCreate, "g", "", 0, true),
			view,
			mkEvent(12, EventMemberRemove, "g", "x", 0, true), // same seq, other order
			mkEvent(15, EventCheckpoint, "g", "", 1, true),
		},
		// c joined with the new ring: its coverage starts at the shared
		// seq, where it only saw the view — a boundary, not a divergence.
		"c": {
			view,
			mkEvent(15, EventCheckpoint, "g", "", 1, true),
		},
	}
	m := MergeEvents(feeds)
	if len(m.Divergences) != 0 {
		t.Fatalf("reformation boundary flagged as divergence: %+v", m.Divergences)
	}
	var at12 []TimelineEntry
	for _, e := range m.Entries {
		if e.Seq == 12 {
			at12 = append(at12, e)
		}
	}
	if len(at12) != 2 {
		t.Fatalf("entries at the shared seq = %+v, want the view and the removal once each", at12)
	}
	for _, e := range at12 {
		switch e.Type {
		case EventView:
			if len(e.Origins) != 3 {
				t.Fatalf("view origins = %v, want all three", e.Origins)
			}
		case EventMemberRemove:
			if len(e.Origins) != 2 {
				t.Fatalf("removal origins = %v, want a and b", e.Origins)
			}
		default:
			t.Fatalf("unexpected entry at seq 12: %+v", e)
		}
	}

	// A genuine disagreement at a duplicated seq strictly inside coverage
	// must still be caught.
	feeds["a"] = append(feeds["a"], mkEvent(13, EventMemberRemove, "g", "y", 0, true), mkEvent(20, EventCheckpoint, "g", "", 2, true))
	feeds["b"] = append(feeds["b"], mkEvent(13, EventMemberRemove, "g", "z", 0, true), mkEvent(20, EventCheckpoint, "g", "", 2, true))
	m = MergeEvents(feeds)
	if len(m.Divergences) != 1 || m.Divergences[0].Seq != 13 {
		t.Fatalf("divergences = %+v, want one at seq 13", m.Divergences)
	}
}

// mkSpan builds a span for the merge tables: phase -> unix nanos.
func mkSpan(trace uint64, group string, seq uint64, phases map[SpanPhase]int64) Span {
	sp := Span{Trace: trace, Group: group, Seq: seq}
	for ph, ts := range phases {
		sp.Phases[ph] = ts
	}
	return sp
}

func TestMergeSpansCrossNode(t *testing.T) {
	// A 2-way active invocation: n1 originates (and executes its local
	// replica), n2 executes first. The reply path is recorded on n2, the
	// delivery on n1.
	feeds := map[string][]Span{
		"n1": {mkSpan(7, "g", 40, map[SpanPhase]int64{
			SpanIntercepted: 100, SpanMarshalled: 110, SpanEnqueued: 120,
			SpanTransmitted: 200, SpanOrdered: 260, SpanReplyOrdered: 900,
			SpanReplyDelivered: 950,
		})},
		"n2": {mkSpan(7, "", 40, map[SpanPhase]int64{
			SpanOrdered: 250, SpanDelivered: 300, SpanExecuted: 400,
			SpanReplyEnqueued: 420, SpanReplyTransmitted: 700,
		})},
	}
	traces := MergeSpans(feeds)
	if len(traces) != 1 {
		t.Fatalf("traces = %+v, want 1", traces)
	}
	mt := traces[0]
	if mt.Trace != 7 || mt.Group != "g" || mt.Seq != 40 || mt.SeqDivergent {
		t.Fatalf("merged = %+v", mt)
	}
	if len(mt.Nodes) != 2 || mt.Client() != "n1" || mt.Executor() != "n2" {
		t.Fatalf("nodes/client/executor = %v/%s/%s", mt.Nodes, mt.Client(), mt.Executor())
	}
	if !mt.Complete() {
		t.Fatal("trace with a delivered reply must be complete")
	}
	segs := mt.Segments()
	if len(segs) != len(segmentNames) {
		t.Fatalf("segments = %+v, want all %d", segs, len(segmentNames))
	}
	// Segments chain: contiguous, and their sum is the end-to-end span.
	var sum int64
	for i, seg := range segs {
		if seg.ToNs < seg.FromNs {
			t.Fatalf("negative segment %+v", seg)
		}
		if i > 0 && seg.FromNs != segs[i-1].ToNs {
			t.Fatalf("segments not contiguous: %+v after %+v", seg, segs[i-1])
		}
		sum += seg.ToNs - seg.FromNs
	}
	if sum != 950-100 {
		t.Fatalf("segment sum = %d, want the 850ns end-to-end", sum)
	}
	att := AttributePhases(traces)
	if att.Traces != 1 || att.EndToEnd.P50Us != 0.85 {
		t.Fatalf("attribution = %+v", att)
	}
	if att.AttributedPct < 99.9 || att.AttributedPct > 100.1 {
		t.Fatalf("attributed pct = %v, want ~100", att.AttributedPct)
	}
}

// TestMergeSpansMissingNode is the partial-trace case: one replica never
// reports (crashed, or its journal wrapped). The merge must still
// produce a usable trace from the surviving feeds, and the attribution
// must skip traces without a full client round trip.
func TestMergeSpansMissingNode(t *testing.T) {
	feeds := map[string][]Span{
		// The originating node reports; the executing node n2 never does.
		"n1": {mkSpan(7, "g", 40, map[SpanPhase]int64{
			SpanIntercepted: 100, SpanMarshalled: 110, SpanEnqueued: 120,
			SpanTransmitted: 200, SpanOrdered: 260, SpanDelivered: 280,
			SpanExecuted: 350, SpanReplyEnqueued: 360, SpanReplyTransmitted: 500,
			SpanReplyOrdered: 900, SpanReplyDelivered: 950,
		})},
		// A server-only trace: its originator never reported.
		"n3": {mkSpan(9, "", 44, map[SpanPhase]int64{
			SpanOrdered: 1200, SpanDelivered: 1210, SpanExecuted: 1300,
		})},
	}
	traces := MergeSpans(feeds)
	if len(traces) != 2 {
		t.Fatalf("traces = %+v, want 2", traces)
	}
	// Sorted by seq: trace 7 (seq 40) then trace 9 (seq 44).
	full, partial := traces[0], traces[1]
	if full.Trace != 7 || partial.Trace != 9 {
		t.Fatalf("order = %d,%d, want 7,9", full.Trace, partial.Trace)
	}
	// The single-node trace is complete (n1 both originated and executed)
	// and decomposes without n2.
	if !full.Complete() || full.Executor() != "n1" {
		t.Fatalf("single-feed trace: complete=%v executor=%s", full.Complete(), full.Executor())
	}
	if segs := full.Segments(); len(segs) != len(segmentNames) {
		t.Fatalf("segments = %+v, want the full chain from one feed", segs)
	}
	// The orphaned server-side trace has no client: no segments, not
	// complete, but still merged and inspectable.
	if partial.Client() != "" || partial.Complete() || partial.Segments() != nil {
		t.Fatalf("orphan trace leaked client-side structure: %+v", partial)
	}
	att := AttributePhases(traces)
	if att.Traces != 1 {
		t.Fatalf("attribution counted the incomplete trace: %+v", att)
	}
}

// TestMergeSpansSeqDivergence: nodes disagreeing on a trace's ordered
// position is impossible under the total order — the merge must flag it.
func TestMergeSpansSeqDivergence(t *testing.T) {
	feeds := map[string][]Span{
		"n1": {mkSpan(7, "g", 40, map[SpanPhase]int64{SpanOrdered: 100})},
		"n2": {mkSpan(7, "g", 41, map[SpanPhase]int64{SpanOrdered: 100})},
	}
	traces := MergeSpans(feeds)
	if len(traces) != 1 || !traces[0].SeqDivergent {
		t.Fatalf("traces = %+v, want one seq-divergent", traces)
	}
}

func TestRecoveryReports(t *testing.T) {
	recovered := Event{
		Seq: 14, At: time.Unix(14, 0), Type: EventRecovered,
		Group: "g", Node: "c", XferID: 77, Value: 3,
		Phases: []Phase{{PhaseCapture, time.Millisecond}, {PhaseReplay, 2 * time.Millisecond}},
	}
	feeds := map[string][]Event{
		"a": {
			mkEvent(9, EventMemberAdd, "g", "c", 77, true),
			mkEvent(12, EventSetState, "g", "a", 77, true),
		},
		"c": {
			mkEvent(9, EventMemberAdd, "g", "c", 77, true),
			mkEvent(10, EventSuspicion, "g", "b", 0, false),
			mkEvent(12, EventSetState, "g", "a", 77, true),
			recovered,
		},
	}
	m := MergeEvents(feeds)
	reports := m.RecoveryReports()
	if len(reports) != 1 {
		t.Fatalf("reports = %+v, want 1", reports)
	}
	r := reports[0]
	if !r.Complete || r.Group != "g" || r.Node != "c" || r.XferID != 77 {
		t.Fatalf("report = %+v", r)
	}
	if r.SyncSeq != 9 || r.SetStateSeq != 12 || r.Donor != "a" {
		t.Fatalf("report positions = %+v", r)
	}
	if r.Enqueued != 3 || !slices.Equal(r.Phases, recovered.Phases) {
		t.Fatalf("report recovering-side detail = %+v", r)
	}
	if len(r.During) != 1 || r.During[0].Type != EventSuspicion {
		t.Fatalf("During = %+v, want the seq-10 suspicion", r.During)
	}
}
