package replication

import (
	"encoding/binary"
	"errors"
	"maps"
	"slices"

	"eternal/internal/codec"
)

// DupFilter suppresses duplicate invocations and responses using
// Eternal-generated operation identifiers (paper §2.1 "Duplicate
// operations", §4.3). An invocation is identified by its logical
// connection and operation id; because every replica of a replicated
// client assigns the same logical ids, the second and later copies of the
// same invocation are recognized and never delivered.
//
// Operation ids increase monotonically per connection (modulo 2³², see
// After), so the filter keeps only a high-water mark per connection —
// which is exactly the piece of infrastructure-level state the paper
// transfers to a new replica so its filter agrees with the group's (§4.3).
//
// DupFilter is not safe for concurrent use; each owner confines it to one
// goroutine.
type DupFilter struct {
	seen map[ConnID]uint32
}

// NewDupFilter creates an empty filter.
func NewDupFilter() *DupFilter {
	return &DupFilter{seen: make(map[ConnID]uint32)}
}

// After reports whether operation id a comes after b. Ids wrap like the
// GIOP request_id they derive from, so the order is RFC 1982 serial
// arithmetic: a is after b when it is ahead by less than 2³¹.
func After(a, b uint32) bool { return int32(a-b) > 0 }

// FirstDelivery reports whether (conn, op) has not been seen before, and
// records it. Duplicates and older operations return false.
func (f *DupFilter) FirstDelivery(conn ConnID, op uint32) bool {
	if hi, ok := f.seen[conn]; ok && !After(op, hi) {
		return false
	}
	f.seen[conn] = op
	return true
}

// Peek reports the high-water mark for a connection without mutating.
func (f *DupFilter) Peek(conn ConnID) (uint32, bool) {
	hi, ok := f.seen[conn]
	return hi, ok
}

// Snapshot returns a deep copy of the filter's state — the
// infrastructure-level state piggybacked on a state transfer.
func (f *DupFilter) Snapshot() map[ConnID]uint32 { return maps.Clone(f.seen) }

// Restore overwrites the filter with transferred state.
func (f *DupFilter) Restore(state map[ConnID]uint32) {
	f.seen = make(map[ConnID]uint32, len(state))
	maps.Copy(f.seen, state)
}

// MergeMax folds transferred state into the filter, keeping the higher
// high-water mark per connection. A passive backup absorbing a checkpoint
// must merge rather than restore: it has already seen (and logged)
// operations ordered after the checkpoint's capture point, and rewinding
// the filter would let a later duplicate of one of them back in.
func (f *DupFilter) MergeMax(state map[ConnID]uint32) {
	for k, v := range state {
		if cur, ok := f.seen[k]; !ok || After(v, cur) {
			f.seen[k] = v
		}
	}
}

// ErrBadFilterState reports an undecodable duplicate-filter state.
var ErrBadFilterState = errors.New("replication: bad filter state")

// EncodeFilterState serializes a filter snapshot for piggybacking: a count,
// then each connection (AppendConnID) and its high-water mark, in
// compareConnID order — canonical, so equal filters encode, and digest,
// alike.
func EncodeFilterState(state map[ConnID]uint32) []byte {
	b := binary.AppendUvarint(nil, uint64(len(state)))
	for _, k := range slices.SortedFunc(maps.Keys(state), compareConnID) {
		b = binary.AppendUvarint(AppendConnID(b, k), uint64(state[k]))
	}
	return b
}

// DecodeFilterState parses a serialized filter snapshot. It accepts exactly
// what EncodeFilterState writes: connections strictly in order, so none
// twice, and no trailing bytes.
func DecodeFilterState(buf []byte) (map[ConnID]uint32, error) {
	r := codec.NewReader(buf)
	// An entry is at least four bytes: two empty names, a seq and a mark.
	n := r.Count(4)
	out := make(map[ConnID]uint32, n)
	var prev ConnID
	for i := 0; i < n && r.Err() == nil; i++ {
		k := ReadConnID(&r)
		if i > 0 && compareConnID(prev, k) >= 0 {
			r.Fail(errors.New("connections out of order or repeated"))
		}
		out[k], prev = r.U32(), k
	}
	if err := r.Done(ErrBadFilterState); err != nil {
		return nil, err
	}
	return out, nil
}
