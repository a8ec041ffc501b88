package obs

// journal is the bounded ring behind every feed in this package: the
// flight recorder's events, the span journal and the token-rotation log.
// Storage is preallocated; entries get contiguous indexes from 1, so a
// reader paginates by the last index it saw and can tell entries lost to
// eviction from ones not yet written.
// Not synchronised — the owning type's mutex covers it.
type journal[T any] struct {
	buf     []T
	head, n int    // position of the oldest retained entry, retained count
	next    uint64 // index the next entry gets (starts at 1)
	dropped uint64
}

func newJournal[T any](capacity int) journal[T] {
	return journal[T]{buf: make([]T, capacity), next: 1}
}

// add stores v under index j.next (an entry that carries its own index is
// stamped with it by the caller first), evicting and counting the oldest
// entry when the ring is full.
func (j *journal[T]) add(v T) {
	j.next++
	if j.n == len(j.buf) {
		j.buf[j.head] = v
		j.head = (j.head + 1) % len(j.buf)
		j.dropped++
		return
	}
	j.buf[(j.head+j.n)%len(j.buf)] = v
	j.n++
}

// since returns up to max retained entries with index > after, oldest
// first (max <= 0 returns all retained).
func (j *journal[T]) since(after uint64, max int) []T {
	// Indexes are contiguous within the ring, so the offset of the first
	// match is computable directly.
	first := j.next - uint64(j.n) // index of the oldest retained entry
	skip := 0
	if after >= first {
		skip = int(after - first + 1)
	}
	if skip >= j.n {
		return nil
	}
	count := j.n - skip
	if max > 0 && count > max {
		count = max
	}
	out := make([]T, count)
	for i := 0; i < count; i++ {
		out[i] = j.buf[(j.head+skip+i)%len(j.buf)]
	}
	return out
}

// last returns the most recent max entries, oldest first (max <= 0
// returns all retained).
func (j *journal[T]) last(max int) []T {
	if max <= 0 || max > j.n {
		max = j.n
	}
	return j.since(j.next-1-uint64(max), max)
}

// total reports how many entries were ever added.
func (j *journal[T]) total() uint64 { return j.next - 1 }
