package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"

	"eternal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stateID names one state of the servant: the invocation count and the
// digest of the blob at that count.
type stateID struct {
	Count  uint64
	Digest uint32
}

func (s stateID) String() string { return fmt.Sprintf("count=%d digest=%08x", s.Count, s.Digest) }

// ledger is the benchmark's own record of what the replicas did: the
// newest servant instance on each node, every state a donor captured and
// every state a replica was assigned. The correctness checker reads it
// after the cluster has gone quiet.
type ledger struct {
	mu       sync.Mutex
	live     map[string]*servant
	captures map[stateID]bool
	applies  []applied
}

type applied struct {
	Node  string
	State stateID
}

func newLedger() *ledger {
	return &ledger{live: make(map[string]*servant), captures: make(map[stateID]bool)}
}

func (l *ledger) instance(node string) *servant {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.live[node]
}

// servant is the benchmark's replicated object: an invocation counter and
// a blob. Every operation is a write — it increments the counter and
// flips one blob byte chosen by the counter — so a replica that misses,
// repeats or reorders an operation ends with a different stateID.
type servant struct {
	node string
	book *ledger

	mu    sync.Mutex
	count uint64
	blob  []byte
}

// seededBlob is the initial blob every replica of a run starts from.
func seededBlob(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// factory returns the replica factory for one node. Each instance it makes
// becomes that node's live instance in the ledger.
func (l *ledger) factory(node string, blob []byte) eternal.Factory {
	return func(oid string) eternal.Replica {
		s := &servant{node: node, book: l, blob: append([]byte(nil), blob...)}
		l.mu.Lock()
		l.live[node] = s
		l.mu.Unlock()
		return s
	}
}

func (s *servant) write() {
	s.count++
	if len(s.blob) > 0 {
		s.blob[s.count%uint64(len(s.blob))] ^= byte(s.count) | 1
	}
}

// Invoke implements eternal.Servant: "ping" replies with the count after
// the write, "echo" replies with its arguments.
func (s *servant) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case "ping":
		s.write()
		e := eternal.NewEncoder(order)
		e.WriteULongLong(s.count)
		return e.Bytes(), nil
	case "echo":
		s.write()
		return append([]byte(nil), args...), nil
	}
	return nil, fmt.Errorf("bench servant: unknown operation %q", op)
}

func (s *servant) idLocked() stateID {
	return stateID{Count: s.count, Digest: crc32.Checksum(s.blob, castagnoli)}
}

// state is the servant's current stateID.
func (s *servant) state() stateID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idLocked()
}

// GetState implements eternal.Checkpointable: count, then the blob.
func (s *servant) GetState() (eternal.Any, error) {
	s.mu.Lock()
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteULongLong(s.count)
	e.WriteOctetSeq(s.blob)
	id := s.idLocked()
	s.mu.Unlock()
	s.book.mu.Lock()
	s.book.captures[id] = true
	s.book.mu.Unlock()
	return eternal.AnyFromBytes(e.Bytes()), nil
}

// SetState implements eternal.Checkpointable.
func (s *servant) SetState(st eternal.Any) error {
	raw, err := st.Bytes()
	if err != nil {
		return eternal.ErrInvalidState
	}
	d := eternal.NewDecoder(raw, eternal.BigEndian)
	count, err := d.ReadULongLong()
	if err != nil {
		return eternal.ErrInvalidState
	}
	blob, err := d.ReadOctetSeq()
	if err != nil {
		return eternal.ErrInvalidState
	}
	s.mu.Lock()
	s.count, s.blob = count, blob
	id := s.idLocked()
	s.mu.Unlock()
	s.book.mu.Lock()
	s.book.applies = append(s.book.applies, applied{Node: s.node, State: id})
	s.book.mu.Unlock()
	return nil
}
