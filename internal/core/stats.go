package core

import (
	"log/slog"
	"time"

	"eternal/internal/giop"
	"eternal/internal/interceptor"
	"eternal/internal/obs"
)

// Stats are one node's cumulative mechanism counters — the observability
// surface for benchmarks, tests and operators.
type Stats struct {
	// RequestsExecuted counts invocations this node's replicas performed.
	RequestsExecuted uint64
	// RequestsLogged counts invocations logged by passive backups.
	RequestsLogged uint64
	// DuplicatesSuppressed counts invocations dropped by operation-id
	// filtering (paper §2.1).
	DuplicatesSuppressed uint64
	// RepliesDelivered counts replies written into local client ORBs.
	RepliesDelivered uint64
	// DuplicateReplies counts replies suppressed at client connections.
	DuplicateReplies uint64
	// RepliesWithdrawn counts replies this node's replicas produced but
	// never put on the wire because a peer replica's copy was already
	// ordered: not multicast at all, or withdrawn from totem's pending
	// queue before a token visit sequenced them.
	RepliesWithdrawn uint64
	// LazyReplies counts replies this node's replicas submitted as lazy:
	// the requester's own node hosts an operational replica whose copy is
	// the one expected to answer, so this one waits a tick, off the
	// sending queue, and is usually withdrawn (and then counted in
	// RepliesWithdrawn too).
	LazyReplies uint64
	// StateCaptures counts get_state() captures performed as donor or
	// checkpointing primary.
	StateCaptures uint64
	// StateApplied counts set_state() assignments (recoveries and
	// checkpoint applications).
	StateApplied uint64
	// Promotions counts backup-to-primary promotions on this node.
	Promotions uint64
	// HandshakesReplayed counts §4.2.2 handshake injections.
	HandshakesReplayed uint64
	// StateChunksSent counts state chunks multicast by this node as donor.
	StateChunksSent uint64
	// StateChunkBytes counts the payload bytes of those chunks.
	StateChunkBytes uint64
	// StateChunkStalls counts token visits at this node that left state
	// chunks waiting in totem's bulk lane behind its per-visit quota.
	StateChunkStalls uint64
	// StateChunksRejected counts received chunks refused on arrival: not
	// the next index of their donor's transfer, or past the point where
	// that transfer's stream broke. (A transfer refused at its manifest is
	// a state-abort event.)
	StateChunksRejected uint64
	// AuditMarks counts consistency-audit epoch markers this node
	// multicast as a group primary.
	AuditMarks uint64
	// AuditReports counts audit digests this node's replicas computed and
	// multicast.
	AuditReports uint64
	// EnvelopesRejected counts ordered messages that did not decode as an
	// envelope (a node on another envelope layout, or corruption) and were
	// dropped at their position in the total order.
	EnvelopesRejected uint64
}

// nodeCounters is the backing store for Stats: registry-owned counters, so
// the same values feed Stats(), the admin endpoint and any shared scrape.
type nodeCounters struct {
	requestsExecuted     *obs.Counter
	requestsLogged       *obs.Counter
	duplicatesSuppressed *obs.Counter
	repliesDelivered     *obs.Counter
	duplicateReplies     *obs.Counter
	repliesWithdrawn     *obs.Counter
	lazyReplies          *obs.Counter
	stateCaptures        *obs.Counter
	stateApplied         *obs.Counter
	promotions           *obs.Counter
	handshakesReplayed   *obs.Counter
	stateChunksSent      *obs.Counter
	stateChunkBytes      *obs.Counter
	stateChunksRejected  *obs.Counter
	auditMarks           *obs.Counter
	auditReports         *obs.Counter
}

func newNodeCounters(r *obs.Registry) nodeCounters {
	return nodeCounters{
		requestsExecuted:     r.Counter("eternal_requests_executed_total", "invocations performed by local replicas"),
		requestsLogged:       r.Counter("eternal_requests_logged_total", "invocations logged by passive backups"),
		duplicatesSuppressed: r.Counter("eternal_duplicates_suppressed_total", "invocations dropped by operation-id filtering"),
		repliesDelivered:     r.Counter("eternal_replies_delivered_total", "replies written into local client ORBs"),
		duplicateReplies:     r.Counter("eternal_duplicate_replies_total", "replies suppressed at client connections"),
		repliesWithdrawn:     r.Counter("eternal_replies_withdrawn_total", "local replies never transmitted because a peer replica's copy was already ordered"),
		lazyReplies:          r.Counter("eternal_replies_lazy_total", "local replies submitted as lazy insurance behind the requester's own replica"),
		stateCaptures:        r.Counter("eternal_state_captures_total", "get_state() captures performed as donor or checkpointing primary"),
		stateApplied:         r.Counter("eternal_state_applied_total", "set_state() assignments performed"),
		promotions:           r.Counter("eternal_promotions_total", "backup-to-primary promotions"),
		handshakesReplayed:   r.Counter("eternal_handshakes_replayed_total", "handshake injections into recovered ORBs"),
		stateChunksSent:      r.Counter("eternal_state_chunks_sent_total", "state chunks multicast as donor"),
		stateChunkBytes:      r.Counter("eternal_state_chunk_bytes_total", "payload bytes of the state chunks multicast as donor"),
		stateChunksRejected:  r.Counter("eternal_state_chunks_rejected_total", "received state chunks refused: out of their donor's index order"),
		auditMarks:           r.Counter("eternal_audit_marks_total", "consistency-audit epoch markers multicast as primary"),
		auditReports:         r.Counter("eternal_audit_reports_total", "audit digests computed and multicast by local replicas"),
	}
}

func (c *nodeCounters) snapshot() Stats {
	return Stats{
		RequestsExecuted:     c.requestsExecuted.Value(),
		RequestsLogged:       c.requestsLogged.Value(),
		DuplicatesSuppressed: c.duplicatesSuppressed.Value(),
		RepliesDelivered:     c.repliesDelivered.Value(),
		DuplicateReplies:     c.duplicateReplies.Value(),
		RepliesWithdrawn:     c.repliesWithdrawn.Value(),
		LazyReplies:          c.lazyReplies.Value(),
		StateCaptures:        c.stateCaptures.Value(),
		StateApplied:         c.stateApplied.Value(),
		Promotions:           c.promotions.Value(),
		HandshakesReplayed:   c.handshakesReplayed.Value(),
		StateChunksSent:      c.stateChunksSent.Value(),
		StateChunkBytes:      c.stateChunkBytes.Value(),
		StateChunksRejected:  c.stateChunksRejected.Value(),
		AuditMarks:           c.auditMarks.Value(),
		AuditReports:         c.auditReports.Value(),
	}
}

// Stats returns a snapshot of the node's mechanism counters.
func (n *Node) Stats() Stats {
	s := n.counters.snapshot()
	s.StateChunkStalls = n.proc.Stats().BulkStalls
	s.EnvelopesRejected = n.replyMarks.rejected.Load()
	return s
}

// Metrics returns the node's metrics registry: mechanism counters, the
// invocation and recovery latency histograms, and the totem processor's
// traffic metrics, all scrapeable through AdminHandler or directly.
func (n *Node) Metrics() *obs.Registry { return n.metrics }

// RecoveryTimelines returns the per-phase timelines of recoveries this
// node completed as the recovering side, newest first — the live form of
// the paper's Figure 6 decomposition. They are read off the recovered
// events still in the flight recorder's window.
func (n *Node) RecoveryTimelines() []obs.RecoveryTimeline {
	var out []obs.RecoveryTimeline
	events := n.recorder.Since(0, 0)
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Type == obs.EventRecovered {
			out = append(out, obs.TimelineOf(events[i]))
		}
	}
	return out
}

// Events returns up to max flight-recorder events with Index > since,
// oldest first (max <= 0 returns all retained). Clients paginate by
// passing the last Index they have seen; /events serves the same data
// over HTTP.
func (n *Node) Events(since uint64, max int) []obs.Event {
	return n.recorder.Since(since, max)
}

// spanIdleFlush is the idle threshold after which an open span is swept
// into the journal before a read: server-side spans never see a local
// reply delivery, so a sweep is the only way they complete.
const spanIdleFlush = 200 * time.Millisecond

// Spans returns up to max journalled invocation spans with Index > since,
// oldest first (max <= 0 returns all retained), after sweeping spans idle
// longer than 200ms out of the active set.
func (n *Node) Spans(since uint64, max int) []obs.Span {
	n.spans.FlushIdle(spanIdleFlush)
	return n.spans.Since(since, max)
}

// TokenRotations returns up to max recent token-rotation profiler
// samples from this node's totem processor, oldest first.
func (n *Node) TokenRotations(max int) []obs.TokenRotation {
	return n.proc.Rotations(max)
}

// AuditSummary returns the collector's condensed live state, each group's
// retained epoch rows included; ok is false when the audit is disabled
// (Config.AuditInterval < 0).
func (n *Node) AuditSummary() (obs.AuditSummary, bool) {
	if n.audit == nil {
		return obs.AuditSummary{}, false
	}
	return n.audit.Summary(), true
}

// logger returns the node's structured logger (a discarding logger when
// none was configured).
func (n *Node) logger() *slog.Logger {
	return obs.LoggerOr(n.cfg.Logger)
}

// registerProcessMetrics surfaces the process-wide parsing and
// interception counters through this node's registry. GIOP parsing and
// socket interception happen below the level at which a Node exists, so
// in multi-node processes (tests, simulations) every node reports the
// same process totals.
func registerProcessMetrics(r *obs.Registry) {
	r.CounterFunc("eternal_giop_messages_read_total", "GIOP messages read off streams (process-wide)",
		func() float64 { return float64(giop.Snapshot().MessagesRead) })
	r.CounterFunc("eternal_giop_fragments_reassembled_total", "fragmented GIOP messages reassembled (process-wide)",
		func() float64 { return float64(giop.Snapshot().Reassembled) })
	r.CounterFunc("eternal_giop_requests_parsed_total", "GIOP request headers parsed (process-wide)",
		func() float64 { return float64(giop.Snapshot().RequestsParsed) })
	r.CounterFunc("eternal_giop_replies_parsed_total", "GIOP reply headers parsed (process-wide)",
		func() float64 { return float64(giop.Snapshot().RepliesParsed) })
	r.CounterFunc("eternal_intercepted_dials_total", "dials diverted into the Replication Mechanisms (process-wide)",
		func() float64 { return float64(interceptor.Snapshot().DivertedDials) })
	r.CounterFunc("eternal_fallback_dials_total", "dials passed through to plain TCP (process-wide)",
		func() float64 { return float64(interceptor.Snapshot().FallbackDials) })
	r.CounterFunc("eternal_request_id_rewrites_total", "GIOP request_id translations, both directions (process-wide)",
		func() float64 {
			s := interceptor.Snapshot()
			return float64(s.RequestRewrites + s.ReplyRewrites)
		})
}
