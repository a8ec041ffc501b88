package obs

import "time"

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
// measurement. It is a view of the node's EventRecovered event (see
// TimelineOf), the one record of a recovery.
type RecoveryTimeline struct {
	Group string `json:"group"`
	Node  string `json:"node"`
	// XferID correlates the timeline with the KAddMember/KStateManifest pair.
	XferID uint64 `json:"xfer_id"`
	// At is the reinstatement: state applied and the backlog replayed.
	At time.Time `json:"at"`
	// Phases hold capture, transfer, apply and replay, which run back to
	// back from the synchronization point (the local processing of the
	// KAddMember that opened the recovery) to At.
	Phases []Phase `json:"phases"`
	// Enqueued counts the invocations buffered during recovery and
	// replayed afterwards.
	Enqueued int `json:"enqueued"`
}

// TimelineOf reads a recovery's timeline off its EventRecovered event.
func TimelineOf(ev Event) RecoveryTimeline {
	return RecoveryTimeline{
		Group: ev.Group, Node: ev.Node, XferID: ev.XferID, At: ev.At,
		Phases: ev.Phases, Enqueued: int(ev.Value),
	}
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
