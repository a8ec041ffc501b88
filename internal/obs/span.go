package obs

import (
	"encoding/json"
	"sync"
	"time"

	"eternal/internal/ring"
)

// SpanPhase indexes one checkpoint of an invocation's life inside a
// node's span. The phases are laid out in pipeline order: the request
// path (interception through execution) followed by the reply path. A
// node records only the phases it participates in — the client's node
// sees interception, marshalling, its own totem enqueue/transmit and the
// reply delivery; every group member's node sees ordering and (if it
// hosts the replica) dispatch, execution and the reply's enqueue.
type SpanPhase uint8

// Span phases, in pipeline order.
const (
	// SpanIntercepted: the client ORB's outgoing request was diverted by
	// the socket-level interceptor and parsed.
	SpanIntercepted SpanPhase = iota
	// SpanMarshalled: the replication envelope was CDR-encoded and handed
	// to the multicast layer.
	SpanMarshalled
	// SpanEnqueued: the totem layer queued the message behind the token
	// (enqueued→transmitted is the token wait).
	SpanEnqueued
	// SpanTransmitted: the message's last fragment left in a data frame
	// while this node held the token.
	SpanTransmitted
	// SpanOrdered: the envelope came off the delivery stream at its
	// agreed position in the total order.
	SpanOrdered
	// SpanDelivered: the replica's serial dispatcher picked the item up
	// (ordered→delivered is the dispatch-queue wait).
	SpanDelivered
	// SpanExecuted: the replica performed the invocation; its reply (if
	// any) is about to be multicast.
	SpanExecuted
	// SpanReplyEnqueued: the reply envelope was queued behind the token
	// on the executing node.
	SpanReplyEnqueued
	// SpanReplyTransmitted: the reply's last fragment left in a data
	// frame.
	SpanReplyTransmitted
	// SpanReplyOrdered: the reply came off the delivery stream on the
	// client's node.
	SpanReplyOrdered
	// SpanReplyDelivered: the (first) reply was written into the client
	// ORB's connection — the end of the invocation.
	SpanReplyDelivered

	// NumSpanPhases sizes the per-span phase array.
	NumSpanPhases
)

var spanPhaseNames = [NumSpanPhases]string{
	"intercepted", "marshalled", "enqueued", "transmitted",
	"ordered", "delivered", "executed",
	"reply-enqueued", "reply-transmitted", "reply-ordered", "reply-delivered",
}

// String names the phase.
func (p SpanPhase) String() string {
	if p < NumSpanPhases {
		return spanPhaseNames[p]
	}
	return "unknown"
}

// Span is one node's view of one invocation: a fixed array of phase
// timestamps (unix nanoseconds; 0 = not recorded here) accumulated as
// the traced envelope crosses the node's layers. The fixed layout keeps
// recording allocation-free: marking a phase is a map lookup and an
// int64 store.
type Span struct {
	// Index is the journal pagination cursor (contiguous, from 1),
	// assigned when the span is journalled.
	Index uint64
	// Trace is the envelope trace id the span rides.
	Trace uint64
	// Node is the recording node.
	Node string
	// Group is the target object group (client's node only — the
	// executing side learns it too, from the envelope).
	Group string
	// Seq is the request envelope's position in the total order (0
	// until ordered). All nodes must agree on it — the span merge
	// cross-checks.
	Seq uint64
	// Phases holds the unix-nanosecond timestamp of each phase's first
	// occurrence (0 = phase not recorded on this node).
	Phases [NumSpanPhases]int64
}

// Start is the earliest recorded phase timestamp (0 if none).
func (s *Span) Start() int64 {
	for _, ts := range s.Phases {
		if ts != 0 {
			return ts
		}
	}
	return 0
}

// End is the latest recorded phase timestamp (0 if none).
func (s *Span) End() int64 {
	var max int64
	for _, ts := range s.Phases {
		if ts > max {
			max = ts
		}
	}
	return max
}

// spanJSON is the wire shape: phases as a name→nanos map so the feed is
// self-describing (absent phases are omitted).
type spanJSON struct {
	Index  uint64           `json:"index"`
	Trace  uint64           `json:"trace"`
	Node   string           `json:"node,omitempty"`
	Group  string           `json:"group,omitempty"`
	Seq    uint64           `json:"seq,omitempty"`
	Phases map[string]int64 `json:"phases"`
}

// MarshalJSON renders the phase array as a named map.
func (s Span) MarshalJSON() ([]byte, error) {
	phases := make(map[string]int64, NumSpanPhases)
	for i, ts := range s.Phases {
		if ts != 0 {
			phases[spanPhaseNames[i]] = ts
		}
	}
	return json.Marshal(spanJSON{
		Index: s.Index, Trace: s.Trace, Node: s.Node,
		Group: s.Group, Seq: s.Seq, Phases: phases,
	})
}

// UnmarshalJSON parses the named-map shape back into the fixed array.
func (s *Span) UnmarshalJSON(data []byte) error {
	var sj spanJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return err
	}
	*s = Span{Index: sj.Index, Trace: sj.Trace, Node: sj.Node, Group: sj.Group, Seq: sj.Seq}
	for i, name := range spanPhaseNames {
		if ts, ok := sj.Phases[name]; ok {
			s.Phases[i] = ts
		}
	}
	return nil
}

// defaultSpanJournal bounds a span recorder's journal when no capacity
// is given.
const defaultSpanJournal = 1024

// SpanRecorder accumulates per-invocation phase spans on one node. Open
// spans live in a bounded active set keyed by trace id; Finish (or
// FlushIdle, for server-side spans that never see the reply delivered
// locally) moves them into a preallocated journal ring paginated by a
// contiguous index, exactly like the flight recorder's event feed.
//
// The hot path — Mark — is allocation-free: a mutex, a map lookup and an
// int64 store. Span structs are pooled, so steady-state recording does
// not allocate at all. Trace id 0 is the "untraced" sentinel and is
// ignored, as is a nil recorder, so uninstrumented paths cost nothing.
type SpanRecorder struct {
	node string

	mu     sync.Mutex
	active map[uint64]activeSpan
	// order holds trace ids in creation order, oldest first. Finished
	// spans leave their entry behind; an entry is live only if its
	// generation — orderBase plus its offset in order — is the one its
	// trace's active span was created with. Stale entries are skipped
	// when they reach the head, and compacted away once they outnumber
	// the capacity.
	order     ring.Buffer[uint64]
	orderBase uint64 // generation of order's head entry
	journal   journal[Span]
	pool      sync.Pool
}

// activeSpan is an open span and the generation of its order entry.
type activeSpan struct {
	sp  *Span
	gen uint64
}

// NewSpanRecorder creates a recorder journalling up to capacity spans
// (defaultSpanJournal when capacity <= 0), each annotated with the
// node's name.
func NewSpanRecorder(node string, capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = defaultSpanJournal
	}
	r := &SpanRecorder{
		node:    node,
		active:  make(map[uint64]activeSpan),
		journal: newJournal[Span](capacity),
	}
	r.pool.New = func() any { return new(Span) }
	return r
}

// Begin opens (or annotates) the span for a trace and stamps the
// interception phase. The client's node calls it; executing nodes never
// do — their Marks auto-create.
func (r *SpanRecorder) Begin(trace uint64, group string) {
	if r == nil || trace == 0 {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	sp := r.get(trace)
	sp.Group = group
	if sp.Phases[SpanIntercepted] == 0 {
		sp.Phases[SpanIntercepted] = now
	}
	r.mu.Unlock()
}

// Annotate sets the span's group without stamping any phase: executing
// nodes learn the group from the delivered envelope, not from an
// interception of their own.
func (r *SpanRecorder) Annotate(trace uint64, group string) {
	if r == nil || trace == 0 {
		return
	}
	r.mu.Lock()
	sp := r.get(trace)
	if sp.Group == "" {
		sp.Group = group
	}
	r.mu.Unlock()
}

// Mark stamps a phase on the trace's span (first occurrence wins),
// creating the span if this node has not seen the trace before.
func (r *SpanRecorder) Mark(trace uint64, phase SpanPhase) {
	if r == nil || trace == 0 || phase >= NumSpanPhases {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	sp := r.get(trace)
	if sp.Phases[phase] == 0 {
		sp.Phases[phase] = now
	}
	r.mu.Unlock()
}

// MarkOpen stamps a phase only if the trace's span is still open. The
// reply-ordering path uses it: with active replication every replica
// multicasts a reply, and a duplicate reply ordered after the client's
// span finished must not re-create an empty fragment span (which would
// evict a real span from the journal ring).
func (r *SpanRecorder) MarkOpen(trace uint64, phase SpanPhase) {
	if r == nil || trace == 0 || phase >= NumSpanPhases {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	if a, ok := r.active[trace]; ok && a.sp.Phases[phase] == 0 {
		a.sp.Phases[phase] = now
	}
	r.mu.Unlock()
}

// MarkSeq is Mark plus the request's agreed position in the total order
// (first ordering wins; the merge cross-checks seq across nodes).
func (r *SpanRecorder) MarkSeq(trace uint64, phase SpanPhase, seq uint64) {
	if r == nil || trace == 0 || phase >= NumSpanPhases {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	sp := r.get(trace)
	if sp.Phases[phase] == 0 {
		sp.Phases[phase] = now
	}
	if sp.Seq == 0 {
		sp.Seq = seq
	}
	r.mu.Unlock()
}

// Finish stamps reply delivery on the trace's open span, journals it and
// returns the invocation's latency: interception to reply delivery. ok is
// false when this node did not intercept the request or the span is no
// longer open. The client's node calls it at reply delivery; spans the
// node only participated in are swept by FlushIdle instead.
func (r *SpanRecorder) Finish(trace uint64) (latency time.Duration, ok bool) {
	if r == nil || trace == 0 {
		return 0, false
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	a, open := r.active[trace]
	if !open {
		return 0, false
	}
	sp := a.sp
	if sp.Phases[SpanReplyDelivered] == 0 {
		sp.Phases[SpanReplyDelivered] = now
	}
	if start := sp.Phases[SpanIntercepted]; start != 0 {
		latency, ok = time.Duration(sp.Phases[SpanReplyDelivered]-start), true
	}
	r.removeActive(trace)
	r.journalSpan(sp)
	return latency, ok
}

// FlushIdle journals every active span whose latest phase mark is older
// than idle. Server-side spans (ordering, dispatch, execution) never see
// a local reply delivery, so the /spans endpoint sweeps them out with a
// small idle threshold before reading the journal.
func (r *SpanRecorder) FlushIdle(idle time.Duration) {
	if r == nil {
		return
	}
	cutoff := time.Now().Add(-idle).UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	var idleSpans []*Span
	r.eachLive(func(a activeSpan) {
		if a.sp.End() < cutoff {
			idleSpans = append(idleSpans, a.sp)
		}
	})
	for _, sp := range idleSpans {
		r.removeActive(sp.Trace)
		r.journalSpan(sp)
	}
}

// get returns the active span for trace, creating (and, over capacity,
// evicting the oldest open span into the journal) under the held lock.
func (r *SpanRecorder) get(trace uint64) *Span {
	if a, ok := r.active[trace]; ok {
		return a.sp
	}
	sp := r.pool.Get().(*Span)
	*sp = Span{Trace: trace, Node: r.node}
	r.active[trace] = activeSpan{sp: sp, gen: r.orderBase + uint64(r.order.Len())}
	r.order.Push(trace)
	for len(r.active) > len(r.journal.buf) {
		oldest, _ := r.order.Pop()
		gen := r.orderBase
		r.orderBase++
		if a, ok := r.active[oldest]; ok && a.gen == gen {
			r.removeActive(oldest)
			r.journalSpan(a.sp)
		}
	}
	return sp
}

// eachLive calls f on every open span, oldest first, under the held lock.
func (r *SpanRecorder) eachLive(f func(activeSpan)) {
	gen := r.orderBase
	r.order.Each(func(trace *uint64) {
		if a, ok := r.active[*trace]; ok && a.gen == gen {
			f(a)
		}
		gen++
	})
}

// removeActive unlinks a trace from the active set under the held lock.
// Its order entry goes stale; once stale entries outnumber the capacity,
// order is rebuilt from the live ones.
func (r *SpanRecorder) removeActive(trace uint64) {
	delete(r.active, trace)
	if r.order.Len()-len(r.active) <= len(r.journal.buf) {
		return
	}
	var live ring.Buffer[uint64]
	base := r.orderBase + uint64(r.order.Len())
	r.eachLive(func(a activeSpan) {
		r.active[a.sp.Trace] = activeSpan{sp: a.sp, gen: base + uint64(live.Len())}
		live.Push(a.sp.Trace)
	})
	r.order, r.orderBase = live, base
}

// journalSpan assigns the next index, copies the span into the ring and
// returns the struct to the pool, under the held lock.
func (r *SpanRecorder) journalSpan(sp *Span) {
	sp.Index = r.journal.next
	r.journal.add(*sp)
	r.pool.Put(sp)
}

// Since returns up to max journalled spans with Index > after, oldest
// first. It mirrors the flight recorder's pagination: indexes are
// contiguous, so a reader resuming at the reported next index can detect
// entries dropped by ring eviction.
func (r *SpanRecorder) Since(after uint64, max int) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal.since(after, max)
}

// Total reports how many spans were ever journalled.
func (r *SpanRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal.total()
}

// Dropped reports how many journalled spans ring eviction discarded.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal.dropped
}

// Open reports how many spans are still accumulating phases.
func (r *SpanRecorder) Open() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}
