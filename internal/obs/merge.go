package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TimelineEntry is one step of a merged cluster timeline. Ordered events
// that several nodes recorded identically collapse into a single entry
// listing the reporting nodes; local events stay one entry per observer.
// The embedded event's per-observer Index and Origin are cleared, and its
// At is the earliest observation across origins.
type TimelineEntry struct {
	Event
	// Origins are the nodes that reported this entry, sorted.
	Origins []string `json:"origins"`
}

// entryOf starts a timeline entry from one observer's event.
func entryOf(ev Event, origins []string) TimelineEntry {
	ev.Index, ev.Origin = 0, ""
	return TimelineEntry{Event: ev, Origins: origins}
}

// Key identifies the entry's content independent of who observed it.
func (e *TimelineEntry) Key() string {
	return eventKey(e.Type, e.Group, e.Node, e.XferID, e.Detail)
}

func eventKey(typ, group, node string, xfer uint64, detail string) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s", typ, group, node, xfer, detail)
}

// Divergence reports a sequence number at which nodes disagree about the
// ordered events — the condition the paper's total-order alignment rules
// out, so any occurrence indicates a protocol or instrumentation bug.
type Divergence struct {
	Seq uint64 `json:"seq"`
	// Keys maps each covering origin to the sorted ordered-event keys it
	// recorded at Seq (an empty list means it recorded none despite
	// covering the position).
	Keys map[string][]string `json:"keys"`
}

// MergedTimeline is the cluster-consistent view assembled from per-node
// flight-recorder feeds.
type MergedTimeline struct {
	Entries     []TimelineEntry `json:"entries"`
	Divergences []Divergence    `json:"divergences"`
}

// coverage is the ordered-event sequence range a feed vouches for. The
// ring drops oldest events and scrapes race ongoing recording, so a feed
// is only authoritative between its first and last ordered event.
type coverage struct{ lo, hi uint64 }

// MergeEvents merges per-node event feeds (node name -> events, any
// order) into one timeline totally ordered by sequence number, collapsing
// ordered events that nodes recorded identically and flagging sequence
// numbers where covering nodes recorded different ordered events.
func MergeEvents(feeds map[string][]Event) *MergedTimeline {
	type orderedAgg struct {
		entry   TimelineEntry
		origins map[string]bool
	}
	orderedBy := make(map[string]*orderedAgg) // seq|key -> agg
	var locals []TimelineEntry
	cover := make(map[string]coverage)
	// perSeq collects, per origin, the ordered keys at each seq.
	perSeq := make(map[uint64]map[string][]string)

	for origin, events := range feeds {
		for _, ev := range events {
			if !ev.Ordered {
				locals = append(locals, entryOf(ev, []string{origin}))
				continue
			}
			c, seen := cover[origin]
			if !seen {
				c = coverage{lo: ev.Seq, hi: ev.Seq}
			} else {
				c.lo = min(c.lo, ev.Seq)
				c.hi = max(c.hi, ev.Seq)
			}
			cover[origin] = c
			key := eventKey(ev.Type, ev.Group, ev.Node, ev.XferID, ev.Detail)
			id := fmt.Sprintf("%d|%s", ev.Seq, key)
			agg, ok := orderedBy[id]
			if !ok {
				agg = &orderedAgg{entry: entryOf(ev, nil), origins: make(map[string]bool)}
				orderedBy[id] = agg
			}
			if ev.At.Before(agg.entry.At) {
				agg.entry.At = ev.At
			}
			agg.origins[origin] = true
			if perSeq[ev.Seq] == nil {
				perSeq[ev.Seq] = make(map[string][]string)
			}
			perSeq[ev.Seq][origin] = append(perSeq[ev.Seq][origin], key)
		}
	}

	m := &MergedTimeline{}
	for _, agg := range orderedBy {
		e := agg.entry
		for o := range agg.origins {
			e.Origins = append(e.Origins, o)
		}
		sort.Strings(e.Origins)
		m.Entries = append(m.Entries, e)
	}
	m.Entries = append(m.Entries, locals...)
	sort.Slice(m.Entries, func(i, j int) bool {
		a, b := &m.Entries[i], &m.Entries[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Ordered != b.Ordered {
			return a.Ordered // agreed positions before local anchors
		}
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return strings.Join(a.Origins, ",") < strings.Join(b.Origins, ",")
	})

	// Divergence: at each seq carrying ordered events, every participating
	// origin must have recorded the same key multiset. An origin with
	// events at the seq always participates; an origin with none
	// participates only when the seq is strictly inside its coverage —
	// at the boundaries a feed may legitimately hold just part of a
	// position's events (a view change shares its StartSeq with the old
	// ring's last message, and a freshly synchronized node's first
	// recorded event can land mid-position).
	for seq, byOrigin := range perSeq {
		keysOf := make(map[string][]string)
		edge := make(map[string]bool)
		var covering []string
		for origin, c := range cover {
			ks := byOrigin[origin]
			atEdge := seq <= c.lo || seq >= c.hi
			if len(ks) == 0 && atEdge {
				continue
			}
			covering = append(covering, origin)
			ks = append([]string(nil), ks...)
			sort.Strings(ks)
			keysOf[origin] = ks
			edge[origin] = atEdge
		}
		if len(covering) < 2 {
			continue
		}
		sort.Strings(covering)
		// The reference is the fullest key multiset at the position (ties
		// break to the first origin by name). A feed covering the position
		// strictly inside its range must match it exactly; a feed whose
		// coverage merely touches the position may hold any subset — a
		// ring reformation leaves the joining node's feed starting at the
		// shared sequence number with only the new ring's events, which is
		// partial, not divergent.
		refOrigin := covering[0]
		for _, origin := range covering[1:] {
			if len(keysOf[origin]) > len(keysOf[refOrigin]) {
				refOrigin = origin
			}
		}
		refJoined := strings.Join(keysOf[refOrigin], "\x00")
		refCount := make(map[string]int, len(keysOf[refOrigin]))
		for _, k := range keysOf[refOrigin] {
			refCount[k]++
		}
		diverged := false
		for _, origin := range covering {
			if diverged || origin == refOrigin {
				continue
			}
			if !edge[origin] {
				diverged = strings.Join(keysOf[origin], "\x00") != refJoined
				continue
			}
			seen := make(map[string]int)
			for _, k := range keysOf[origin] {
				if seen[k]++; seen[k] > refCount[k] {
					diverged = true
					break
				}
			}
		}
		if diverged {
			m.Divergences = append(m.Divergences, Divergence{Seq: seq, Keys: keysOf})
		}
	}
	sort.Slice(m.Divergences, func(i, j int) bool {
		return m.Divergences[i].Seq < m.Divergences[j].Seq
	})
	return m
}

// RecoveryReport reconstructs one state transfer from a merged timeline:
// the synchronization point (the KAddMember position where the recovering
// replica started enqueueing), the donor's capture, the set_state
// position that cured it, and what happened in between — the cluster-wide
// form of the paper's Figure 5.
type RecoveryReport struct {
	Group  string `json:"group"`
	Node   string `json:"node"` // the recovering member
	XferID uint64 `json:"xfer_id"`
	// SyncSeq/SyncAt locate the synchronization point.
	SyncSeq uint64    `json:"sync_seq"`
	SyncAt  time.Time `json:"sync_at"`
	// SetStateSeq locates the delivered set_state (0 if none was seen:
	// either a total-group-loss restart from initial state, or the
	// recovery was still in flight when the feeds were scraped).
	SetStateSeq uint64 `json:"set_state_seq,omitempty"`
	Donor       string `json:"donor,omitempty"`
	// Enqueued is the recovering node's count of invocations buffered
	// between the synchronization point and reinstatement (-1 when its
	// local "recovered" event was not in the feeds).
	Enqueued int64 `json:"enqueued"`
	// Phases are the recovering node's measured phases, exactly as its
	// RecoveryTimeline holds them.
	Phases []Phase `json:"phases,omitempty"`
	// During are the timeline entries between SyncSeq and SetStateSeq
	// (exclusive) — the events interleaved with the enqueue window.
	During []TimelineEntry `json:"during,omitempty"`
	// Complete reports that both the synchronization point and the cure
	// (set_state, or the recovering node's reinstatement) were observed.
	Complete bool `json:"complete"`
}

// RecoveryReports extracts every recovery visible in the timeline, in
// synchronization-point order. A member-add opens a report; the set-state
// sharing its transfer id (and group) closes it.
func (m *MergedTimeline) RecoveryReports() []RecoveryReport {
	var reports []RecoveryReport
	byXfer := make(map[uint64]int) // XferID -> index into reports
	for _, e := range m.Entries {
		switch e.Type {
		case EventMemberAdd:
			byXfer[e.XferID] = len(reports)
			reports = append(reports, RecoveryReport{
				Group: e.Group, Node: e.Node, XferID: e.XferID,
				SyncSeq: e.Seq, SyncAt: e.At, Enqueued: -1,
			})
		case EventSetState:
			if i, ok := byXfer[e.XferID]; ok && reports[i].Group == e.Group {
				reports[i].SetStateSeq = e.Seq
				reports[i].Donor = e.Node
				reports[i].Complete = true
			}
		case EventRecovered:
			if i, ok := byXfer[e.XferID]; ok && reports[i].Group == e.Group {
				reports[i].Enqueued = e.Value
				reports[i].Phases = e.Phases
				reports[i].Complete = true
			}
		}
	}
	for i := range reports {
		r := &reports[i]
		if r.SetStateSeq == 0 {
			continue
		}
		for _, e := range m.Entries {
			if e.Seq > r.SyncSeq && e.Seq < r.SetStateSeq {
				r.During = append(r.During, e)
			}
		}
	}
	return reports
}

// MergedTrace is one invocation's cluster-wide span: every node's phase
// timestamps for the same trace id, cross-checked against the request's
// agreed position in the total order.
type MergedTrace struct {
	Trace uint64 `json:"trace"`
	Group string `json:"group,omitempty"`
	// Seq is the request's position in the total order, as agreed by the
	// reporting nodes (0 if none of them recorded it).
	Seq uint64 `json:"seq,omitempty"`
	// SeqDivergent flags nodes disagreeing about the request's position —
	// impossible under the total-order argument, so it indicates an
	// instrumentation or protocol bug.
	SeqDivergent bool `json:"seq_divergent,omitempty"`
	// Nodes lists the reporting nodes, sorted.
	Nodes []string `json:"nodes"`
	// Spans maps each reporting node to its merged span.
	Spans map[string]Span `json:"spans"`
}

// MergeSpans merges per-node span feeds (node name -> spans, any order)
// into one record per trace id. A node reporting the same trace several
// times (journal eviction races a re-scrape) is collapsed first-wins per
// phase; nodes are then cross-checked on the request's Totem seq.
func MergeSpans(feeds map[string][]Span) []MergedTrace {
	byTrace := make(map[uint64]*MergedTrace)
	for node, spans := range feeds {
		for _, sp := range spans {
			if sp.Trace == 0 {
				continue
			}
			mt, ok := byTrace[sp.Trace]
			if !ok {
				mt = &MergedTrace{Trace: sp.Trace, Spans: make(map[string]Span)}
				byTrace[sp.Trace] = mt
			}
			if sp.Group != "" && mt.Group == "" {
				mt.Group = sp.Group
			}
			cur, seen := mt.Spans[node]
			if !seen {
				sp.Node = node
				mt.Spans[node] = sp
				continue
			}
			for i, ts := range sp.Phases {
				if cur.Phases[i] == 0 {
					cur.Phases[i] = ts
				}
			}
			if cur.Seq == 0 {
				cur.Seq = sp.Seq
			} else if sp.Seq != 0 && sp.Seq != cur.Seq {
				mt.SeqDivergent = true
			}
			if cur.Group == "" {
				cur.Group = sp.Group
			}
			mt.Spans[node] = cur
		}
	}
	out := make([]MergedTrace, 0, len(byTrace))
	for _, mt := range byTrace {
		for node, sp := range mt.Spans {
			mt.Nodes = append(mt.Nodes, node)
			if sp.Seq == 0 {
				continue
			}
			if mt.Seq == 0 {
				mt.Seq = sp.Seq
			} else if sp.Seq != mt.Seq {
				mt.SeqDivergent = true
			}
		}
		sort.Strings(mt.Nodes)
		out = append(out, *mt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// Client returns the node that originated the invocation (the one that
// recorded interception), or "" on a partial trace.
func (m *MergedTrace) Client() string {
	for node, sp := range m.Spans {
		if sp.Phases[SpanIntercepted] != 0 {
			return node
		}
	}
	return ""
}

// Executor returns the node whose replica produced the reply the client
// saw: active replication executes everywhere, but a replica withdraws its
// reply once a peer's copy is ordered, so the copy that reached the wire
// first is the one that counts. When no reporting node transmitted a reply
// (oneway, partial feeds) it falls back to the earliest execution; "" if
// no reporting node executed.
func (m *MergedTrace) Executor() string {
	for _, phase := range []SpanPhase{SpanReplyTransmitted, SpanExecuted} {
		var best string
		var bestAt int64
		for node, sp := range m.Spans {
			at := sp.Phases[phase]
			if at != 0 && (best == "" || at < bestAt) {
				best, bestAt = node, at
			}
		}
		if best != "" {
			return best
		}
	}
	return ""
}

// Start is the trace's earliest timestamp across all nodes (unix nanos).
func (m *MergedTrace) Start() int64 {
	var start int64
	for _, sp := range m.Spans {
		if s := sp.Start(); s != 0 && (start == 0 || s < start) {
			start = s
		}
	}
	return start
}

// End is the trace's latest timestamp across all nodes (unix nanos).
func (m *MergedTrace) End() int64 {
	var end int64
	for _, sp := range m.Spans {
		if e := sp.End(); e > end {
			end = e
		}
	}
	return end
}

// Complete reports that the trace covers the full client round trip:
// interception through reply delivery on the originating node.
func (m *MergedTrace) Complete() bool {
	c := m.Client()
	if c == "" {
		return false
	}
	sp := m.Spans[c]
	return sp.Phases[SpanReplyDelivered] != 0
}

// SpanSegment is one contiguous slice of a merged trace's critical path,
// attributed to a named phase on a specific node.
type SpanSegment struct {
	Phase string `json:"phase"`
	Node  string `json:"node"`
	// FromNs/ToNs bound the segment (unix nanos).
	FromNs int64 `json:"from_ns"`
	ToNs   int64 `json:"to_ns"`
}

// Duration is the segment's length.
func (s SpanSegment) Duration() time.Duration {
	return time.Duration(s.ToNs - s.FromNs)
}

// segmentNames is the canonical critical-path decomposition, in order.
// Each entry names the phase checkpoint that *ends* the segment; the
// segment runs from the previous recorded checkpoint.
var segmentNames = []string{
	"marshal", "enqueue", "token-wait", "ordering", "dispatch",
	"execute", "reply-marshal", "reply-token-wait", "reply-ordering",
	"reply-delivery",
}

// Segments decomposes the trace's client-visible latency into contiguous
// critical-path slices: marshal → totem enqueue → token wait → transmit →
// remote ordering → dispatch → execute → reply (mirrored phases). The
// segments chain — each starts where the previous recorded one ended —
// so their sum equals the end-to-end latency of a complete trace, which
// is what lets AttributePhases account for ~100% of the p50. Checkpoints
// a partial trace is missing are skipped (their time folds into the next
// recorded segment). Returns nil when the originating node is unknown.
func (m *MergedTrace) Segments() []SpanSegment {
	client := m.Client()
	if client == "" {
		return nil
	}
	exec := m.Executor()
	if exec == "" {
		exec = client
	}
	cs, es := m.Spans[client], m.Spans[exec]
	checkpoints := []struct {
		name string
		node string
		at   int64
	}{
		{"marshal", client, cs.Phases[SpanMarshalled]},
		{"enqueue", client, cs.Phases[SpanEnqueued]},
		{"token-wait", client, cs.Phases[SpanTransmitted]},
		{"ordering", exec, es.Phases[SpanOrdered]},
		{"dispatch", exec, es.Phases[SpanDelivered]},
		{"execute", exec, es.Phases[SpanExecuted]},
		{"reply-marshal", exec, es.Phases[SpanReplyEnqueued]},
		{"reply-token-wait", exec, es.Phases[SpanReplyTransmitted]},
		{"reply-ordering", client, cs.Phases[SpanReplyOrdered]},
		{"reply-delivery", client, cs.Phases[SpanReplyDelivered]},
	}
	prev := cs.Phases[SpanIntercepted]
	var segs []SpanSegment
	for _, cp := range checkpoints {
		if cp.at == 0 || prev == 0 {
			if cp.at != 0 {
				prev = cp.at
			}
			continue
		}
		if cp.at < prev {
			// Clock regression (cross-node skew on a real LAN): pin the
			// segment to zero length rather than going negative.
			cp.at = prev
		}
		segs = append(segs, SpanSegment{Phase: cp.name, Node: cp.node, FromNs: prev, ToNs: cp.at})
		prev = cp.at
	}
	return segs
}

// PhaseStat summarizes one phase's durations across many traces.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Count int     `json:"count"`
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
}

// PhaseAttribution decomposes a workload's end-to-end latency into the
// named critical-path phases — the cross-node answer to "where do the
// microseconds go".
type PhaseAttribution struct {
	// Traces counts the complete traces aggregated.
	Traces int `json:"traces"`
	// EndToEnd summarizes interception → reply delivery.
	EndToEnd PhaseStat `json:"end_to_end"`
	// Phases summarizes each critical-path segment, pipeline order.
	Phases []PhaseStat `json:"phases"`
	// AttributedPct is the share of total end-to-end time (summed over
	// the complete traces) the segments account for — ≈100 when traces
	// are complete, since segments chain. Means are additive, so this is
	// computed over sums; the per-phase p50 columns are medians and do
	// NOT add up to the end-to-end p50 under heavy-tailed phases.
	AttributedPct float64 `json:"attributed_pct"`
}

// AttributePhases aggregates complete merged traces into per-phase
// latency quantiles.
func AttributePhases(traces []MergedTrace) PhaseAttribution {
	byPhase := make(map[string][]int64)
	var e2e []int64
	var totalE2E, totalAttributed int64
	for i := range traces {
		mt := &traces[i]
		if !mt.Complete() {
			continue
		}
		cs := mt.Spans[mt.Client()]
		d := cs.Phases[SpanReplyDelivered] - cs.Phases[SpanIntercepted]
		e2e = append(e2e, d)
		totalE2E += d
		for _, seg := range mt.Segments() {
			byPhase[seg.Phase] = append(byPhase[seg.Phase], seg.ToNs-seg.FromNs)
			totalAttributed += seg.ToNs - seg.FromNs
		}
	}
	att := PhaseAttribution{Traces: len(e2e)}
	att.EndToEnd = phaseStat("end-to-end", e2e)
	for _, name := range segmentNames {
		ds := byPhase[name]
		if len(ds) == 0 {
			continue
		}
		att.Phases = append(att.Phases, phaseStat(name, ds))
	}
	if totalE2E > 0 {
		att.AttributedPct = float64(totalAttributed) / float64(totalE2E) * 100
	}
	return att
}

// phaseStat sorts the nanosecond durations and extracts quantiles.
func phaseStat(name string, ns []int64) PhaseStat {
	if len(ns) == 0 {
		return PhaseStat{Phase: name}
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(f float64) float64 {
		i := int(f * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return float64(sorted[i]) / 1e3
	}
	return PhaseStat{Phase: name, Count: len(sorted), P50Us: q(0.50), P95Us: q(0.95), P99Us: q(0.99)}
}
