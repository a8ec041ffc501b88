package recovery

import (
	"eternal/internal/replication"
	"eternal/internal/ring"
)

// Log is the per-group checkpoint-and-message log of paper §3.3: Eternal
// logs each checkpoint and the ordered messages that follow it, until the
// next checkpoint overwrites the previous one (which is also the log's
// garbage collection).
//
// Under warm passive replication the backups' mechanisms keep this log so
// a promoted backup can replay the messages logged since the last
// checkpoint; under cold passive replication it is all there is — the
// replica itself is not instantiated until promotion.
//
// Log is plain data, confined to the owning replica's dispatcher
// goroutine. When checkpoints are taken is the node's decision (its
// manager sweep), not the log's.
type Log struct {
	// checkpoint is the last encoded Bundle kept, nil until the first. Only
	// a host without a replica instance (a cold-passive backup) keeps the
	// bytes; a warm backup's checkpoint already lives in its instance.
	checkpoint []byte
	msgs       ring.Buffer[*replication.Envelope]
}

// NewLog creates an empty log.
func NewLog() *Log {
	return &Log{}
}

// Append logs one ordered message (a KRequest delivered after the last
// checkpoint).
func (l *Log) Append(env *replication.Envelope) {
	l.msgs.Push(env)
}

// TruncateTo records a new checkpoint, overwriting the previous one (nil
// keeps no bytes), and discards the first keepFrom logged messages, which
// it subsumes (paper §3.3's log GC). It reports how many it discarded. The
// tail (messages ordered after the checkpoint's capture point but logged
// before the checkpoint's delivery) survives, because the paper's log
// holds "the ordered messages that follow that checkpoint" — follow the
// capture, not the delivery. The subsumed head is popped from the ring,
// which zeroes the vacated slots so the envelopes are not retained.
func (l *Log) TruncateTo(bundle []byte, keepFrom int) int {
	l.checkpoint = append([]byte(nil), bundle...)
	keepFrom = min(keepFrom, l.msgs.Len())
	for i := 0; i < keepFrom; i++ {
		l.msgs.Pop()
	}
	return max(keepFrom, 0)
}

// Reset returns the log to its empty state in place (used when a promoted
// backup's log has been consumed).
func (l *Log) Reset() {
	l.checkpoint = nil
	for l.msgs.Len() > 0 {
		l.msgs.Pop()
	}
}

// Checkpoint returns the last checkpoint kept; ok is false before the
// first one (the replica then replays from its initial state).
func (l *Log) Checkpoint() ([]byte, bool) {
	return l.checkpoint, l.checkpoint != nil
}

// Each calls f on the ordered messages logged since the last checkpoint,
// oldest first — the allocation-free replay iterator. f must not mutate
// the log.
func (l *Log) Each(f func(*replication.Envelope)) {
	l.msgs.Each(func(p **replication.Envelope) { f(*p) })
}

// Messages returns a copy of the ordered messages logged since the last
// checkpoint. Prefer Each on the replay path; this accessor is for tests
// and inspection.
func (l *Log) Messages() []*replication.Envelope {
	out := make([]*replication.Envelope, 0, l.msgs.Len())
	l.Each(func(e *replication.Envelope) { out = append(out, e) })
	return out
}

// Len reports the number of logged messages since the last checkpoint.
func (l *Log) Len() int { return l.msgs.Len() }
