package obs

import (
	"slices"
	"sync"
	"time"
)

// The phases of one replica recovery (paper Figure 5 / §5.1), as
// measured live. Capture runs on the donor and travels to the recovering
// node inside the state bundle; the rest are measured where they happen.
const (
	// PhaseCapture: the donor's get_state() retrieval (Figure 5 ii–iii).
	PhaseCapture = "capture"
	// PhaseTransfer: from the synchronization point (the KAddMember
	// position, where the recovering host starts enqueueing) to the
	// arrival of the set_state bundle, minus the capture itself — the
	// fragmentation/multicast/queueing cost that grows with state size
	// (the Figure 6 slope).
	PhaseTransfer = "transfer"
	// PhaseApply: the recovering replica's set_state() assignment plus
	// handshake replay and filter restoration (Figure 5 v–vi).
	PhaseApply = "apply"
	// PhaseReplay: draining the invocations enqueued while recovering
	// (paper §3.3).
	PhaseReplay = "replay"
)

// Phase is one named span of a recovery.
type Phase struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// RecoveryTimeline is the per-phase record of one replica recovery on
// the recovering node — the live form of the paper's Figure 6
// measurement.
type RecoveryTimeline struct {
	Group string `json:"group"`
	Node  string `json:"node"`
	// XferID correlates the timeline with the KAddMember/KStateManifest pair.
	XferID uint64 `json:"xfer_id"`
	// Start is the local processing time of the KAddMember that opened
	// the recovery (the synchronization point); End is the reinstatement
	// (state applied, recovery signaled).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Phases hold capture/transfer/apply (within [Start,End]) and replay
	// (immediately after End).
	Phases []Phase `json:"phases"`
	// Enqueued counts the invocations buffered during recovery and
	// replayed afterwards.
	Enqueued int `json:"enqueued"`
}

// PhaseDuration returns the named phase's duration (0 if absent).
func (t *RecoveryTimeline) PhaseDuration(name string) time.Duration {
	for _, p := range t.Phases {
		if p.Name == name {
			return p.Duration
		}
	}
	return 0
}

// Total sums every recorded phase.
func (t *RecoveryTimeline) Total() time.Duration {
	var sum time.Duration
	for _, p := range t.Phases {
		sum += p.Duration
	}
	return sum
}

// DefaultTimelineCapacity bounds a TimelineLog when no capacity is given.
const DefaultTimelineCapacity = 64

// TimelineLog retains the most recent recovery timelines of one node.
type TimelineLog struct {
	mu      sync.Mutex
	entries journal[RecoveryTimeline]
}

// NewTimelineLog creates a log retaining up to capacity timelines
// (DefaultTimelineCapacity when capacity <= 0).
func NewTimelineLog(capacity int) *TimelineLog {
	if capacity <= 0 {
		capacity = DefaultTimelineCapacity
	}
	return &TimelineLog{entries: newJournal[RecoveryTimeline](capacity)}
}

// Add appends a timeline, evicting the oldest beyond capacity.
func (l *TimelineLog) Add(t RecoveryTimeline) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries.add(t)
}

// Last returns copies of the most recent n timelines, newest first
// (n <= 0 returns all).
func (l *TimelineLog) Last(n int) []RecoveryTimeline {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.entries.last(n)
	slices.Reverse(out)
	return out
}
