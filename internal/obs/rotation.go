package obs

import (
	"sync"
	"time"
)

// TokenRotation is one token visit profiled by the totem layer: how long
// the node held the token, what the hold paid for (retransmission
// service, pending-queue drain), and the rotation interval since the
// token's previous visit. Together the samples attribute a ring's
// bandwidth budget the way the spans attribute one invocation's latency.
type TokenRotation struct {
	// At is when the token arrived.
	At time.Time `json:"at"`
	// Round is the token's rotation counter.
	Round uint64 `json:"round"`
	// IntervalUs is the time since the token's previous visit to this
	// node — one full ring rotation (0 on the first visit).
	IntervalUs float64 `json:"interval_us"`
	// HoldUs is how long this node held the token before forwarding it.
	HoldUs float64 `json:"hold_us"`
	// RetransUs is the hold share spent re-multicasting requested
	// retransmissions (token step 1).
	RetransUs float64 `json:"retrans_us,omitempty"`
	// SendUs is the hold share spent draining the pending queue into
	// data frames (token step 3).
	SendUs float64 `json:"send_us,omitempty"`
	// RetransServed counts messages re-multicast this visit.
	RetransServed int `json:"retrans_served,omitempty"`
	// ChunksSent counts pending chunks transmitted this visit.
	ChunksSent int `json:"chunks_sent,omitempty"`
	// PendingBefore/PendingAfter bracket the pending-queue drain.
	PendingBefore int `json:"pending_before,omitempty"`
	PendingAfter  int `json:"pending_after,omitempty"`
	// IdleHops is the token's consecutive-idle-hop counter after this
	// visit — the ring-wide idleness signal the adaptive pacer keys on.
	IdleHops uint32 `json:"idle_hops,omitempty"`
	// Paced reports that the holder parked the token before forwarding
	// (idle pacing), and PaceTicks for how many ticks.
	Paced     bool `json:"paced,omitempty"`
	PaceTicks int  `json:"pace_ticks,omitempty"`
	// Resting names why the holder kept the token after this visit (empty:
	// it did not). Either way it moves on within a tick, or at once when
	// a peer nudges; a reply hold also ends when the reply is out. The key
	// is not the "resting" that once held a bool: old readers still decode.
	Resting string `json:"rest,omitempty"`
	// BulkWaiting counts the bulk (state-transfer) messages this visit's
	// quota left in the holder's lane; a holder with any never rests.
	BulkWaiting int `json:"bulk_waiting,omitempty"`
}

// Why a token stayed at its holder: it was the ring's only data sender, or
// the visit sequenced a request whose reply the holder's own replica owes.
const (
	RestSoleSender = "sole-sender"
	RestReplyOwed  = "reply-owed"
)

// DefaultRotationCapacity bounds a rotation log when no capacity is
// given.
const DefaultRotationCapacity = 256

// RotationLog is a bounded ring of token-rotation samples — the totem
// layer's per-visit profiler output. Recording is a mutex and a struct
// copy into a preallocated ring; a nil log is ignored.
type RotationLog struct {
	mu      sync.Mutex
	samples journal[TokenRotation]
}

// NewRotationLog creates a log retaining up to capacity samples
// (DefaultRotationCapacity when capacity <= 0).
func NewRotationLog(capacity int) *RotationLog {
	if capacity <= 0 {
		capacity = DefaultRotationCapacity
	}
	return &RotationLog{samples: newJournal[TokenRotation](capacity)}
}

// Record appends a sample, evicting the oldest when full.
func (l *RotationLog) Record(s TokenRotation) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.samples.add(s)
	l.mu.Unlock()
}

// Last returns up to max most recent samples, oldest first (all when
// max <= 0).
func (l *RotationLog) Last(max int) []TokenRotation {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.samples.last(max)
}
