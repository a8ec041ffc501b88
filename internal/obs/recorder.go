package obs

import (
	"sync"
	"time"
)

// The flight recorder's event types. Events come in two consistency
// classes, reported by Event.Ordered:
//
//   - Ordered events are derived deterministically from the totally-ordered
//     delivery stream while processing the delivery at Event.Seq. Every
//     synchronized node records the same ordered event (same Type, Group,
//     Node, XferID, Detail) at the same sequence number — which is exactly
//     the paper's alignment claim, and what MergeEvents verifies across a
//     cluster's feeds.
//   - Local events describe one node's private observations (token losses,
//     fault suspicions, recovery phase completions). Their Seq is the last
//     sequence number the node had delivered when the event fired: an
//     anchor into the total order, not an agreed position.
const (
	// EventView (ordered): a membership view was installed at its stream
	// position (Seq == the view's StartSeq). Detail carries epoch,
	// representative and members — identical at every lineage member. The
	// per-node Reset flag is reported separately as EventViewReset, because
	// it legitimately differs between a rejoining node and the incumbents.
	EventView = "view"
	// EventViewReset (local): this node was on the losing side of a
	// partition or rejoined from a divergent lineage and must resynchronize.
	EventViewReset = "view-reset"
	// EventProcessorFail (local): a peer disappeared from the view. Local
	// because the previous membership a node compares against depends on
	// when it joined.
	EventProcessorFail = "processor-fail"
	// EventSynced (ordered at a cold start of several nodes, else local;
	// doc/PROTOCOL.md §2): the node has the group table and processes deliveries.
	EventSynced = "synced"
	// EventGroupCreate (ordered): a replicated object group was deployed.
	EventGroupCreate = "group-create"
	// EventMemberAdd (ordered): a recovering member joined the group — the
	// paper's Figure 5 synchronization point. From this position the new
	// replica enqueues every delivered invocation.
	EventMemberAdd = "member-add"
	// EventMemberRemove (ordered): a member left the group (administrative
	// kill, fault reaction, or processor failure cleanup).
	EventMemberRemove = "member-remove"
	// EventSetState (ordered): a fabricated set_state bundle was delivered,
	// curing every recovering member at this position.
	EventSetState = "set-state"
	// EventCheckpoint (ordered): a periodic checkpoint marker (passive
	// replication) fixed a capture position in the total order.
	EventCheckpoint = "checkpoint"
	// EventTokenLoss (local): the totem processor saw no token within its
	// timeout and entered membership reformation.
	EventTokenLoss = "token-loss"
	// EventReform (local): the totem processor entered reformation for a
	// reason other than token loss (Detail: "foreign-ring", "peer-join").
	EventReform = "reform"
	// EventSuspicion (local): a pull monitor declared a replica faulty.
	EventSuspicion = "suspicion"
	// EventGetState (local): this node, as donor, completed a get_state()
	// capture (Value: application state bytes).
	EventGetState = "get-state"
	// EventRecovered (local): this node reinstated a recovered replica
	// (Value: invocations enqueued while recovering; Phases: capture,
	// transfer, apply and replay). It is the one record of a recovery:
	// TimelineOf and RecoveryReports both read it.
	EventRecovered = "recovered"
	// EventPromoted (local): a passive backup on this node became primary
	// (Value: logged messages replayed).
	EventPromoted = "promoted"
	// EventLogGC (local): a checkpoint truncated the recovery log (Value:
	// messages subsumed).
	EventLogGC = "log-gc"
	// EventStateAbort (local): this node's copy of a transfer's chunk
	// stream did not verify at its manifest, so it abandoned the transfer
	// there (Seq: the manifest's; Detail: the donor and why). A recovering
	// replica then removes itself to be relaunched; a checkpoint is skipped.
	EventStateAbort = "state-abort"
	// EventAuditDivergence (local): the consistency audit matched two
	// different digests for one epoch (Value: the epoch). Recorded as a
	// local event even though the matching inputs are ordered, because a
	// node that synchronized mid-stream holds a shorter matching history.
	// Each audit alarm's event is "audit-" + its AuditAlarm.Kind, and it
	// is the alarm's only record besides the collector's counts.
	EventAuditDivergence = "audit-divergence"
	// EventAuditLag (local): a member trailed the audit by more than the
	// configured number of epochs (Value: the epoch raised at).
	EventAuditLag = "audit-lag"
	// EventAuditStall (local): an expected member reported no audit
	// digest within the deadline (Value: the silent epoch).
	EventAuditStall = "audit-stall"
)

// Event is one flight-recorder entry.
type Event struct {
	// Index is the recorder-assigned per-node monotonic id (from 1); the
	// /events endpoint paginates by it.
	Index uint64 `json:"index,omitempty"`
	// Seq is the totem sequence number: the event's agreed stream position
	// for ordered events, the last delivered position for local ones.
	Seq uint64 `json:"seq"`
	// At is the recording node's wall clock.
	At time.Time `json:"at"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Origin is the recording node.
	Origin string `json:"origin,omitempty"`
	// Group is the replicated object group the event concerns, if any.
	Group string `json:"group,omitempty"`
	// Node is the subject node (the member added/removed, the donor, the
	// suspected replica's host) — not necessarily the recording node.
	Node string `json:"node,omitempty"`
	// XferID correlates the events of one state transfer.
	XferID uint64 `json:"xfer_id,omitempty"`
	// Value is an event-specific magnitude (bytes captured, messages
	// enqueued or replayed).
	Value int64 `json:"value,omitempty"`
	// Detail is extra human-readable context. For ordered events it must be
	// deterministic (derived only from the total order), because MergeEvents
	// compares it across nodes.
	Detail string `json:"detail,omitempty"`
	// Phases are a recovery's measured phases (EventRecovered only).
	Phases []Phase `json:"phases,omitempty"`
	// Ordered reports the consistency class (see the Event* constants).
	Ordered bool `json:"ordered"`
}

// defaultRecorderCapacity bounds a Recorder when no capacity is given.
const defaultRecorderCapacity = 1024

// Recorder is a node's flight recorder: a fixed-capacity ring of Events.
// The ring is preallocated; recording overwrites the oldest entry when
// full and counts the eviction, so a long-running node keeps a bounded,
// recent window plus an honest drop count. Nothing here runs on the
// message hot path — events fire on membership, recovery and fault
// transitions, never per request.
type Recorder struct {
	mu     sync.Mutex
	origin string
	events journal[Event]
	seqFn  func() uint64 // stamps Seq on events recorded without one
}

// NewRecorder creates a recorder for the named node retaining up to
// capacity events (defaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int, origin string) *Recorder {
	if capacity <= 0 {
		capacity = defaultRecorderCapacity
	}
	return &Recorder{origin: origin, events: newJournal[Event](capacity)}
}

// SetSeqSource installs the function used to stamp Seq on events recorded
// with Seq == 0 (typically the node's last-delivered sequence number).
// Call before concurrent recording starts.
func (r *Recorder) SetSeqSource(fn func() uint64) {
	r.mu.Lock()
	r.seqFn = fn
	r.mu.Unlock()
}

// Record appends one event, stamping Index, Origin, the wall clock (when
// At is zero) and Seq (when zero and a seq source is installed). When the
// ring is full the oldest event is evicted and counted as dropped.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Origin = r.origin
	if ev.Seq == 0 && r.seqFn != nil {
		ev.Seq = r.seqFn()
	}
	ev.Index = r.events.next
	r.events.add(ev)
}

// Since returns up to max retained events with Index > after, oldest
// first (max <= 0 returns all). Clients paginate by passing the last
// Index they have seen.
func (r *Recorder) Since(after uint64, max int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.since(after, max)
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.n
}

// Total reports how many events were ever recorded.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.total()
}

// Dropped reports how many events were evicted to bound the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.dropped
}
