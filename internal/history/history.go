// Package history is the one way a harness checks the paper's promise that
// every acknowledged invocation survives failure and recovery and is
// executed exactly once (§2.1 duplicate suppression, §4 recovery).
//
// Register is the replicated object every harness drives: a string register
// that keeps every value written to it. Read fetches that history through a
// group reference, and Check holds it against the attempts the clients made.
// The package sits below the root package (it imports only the ORB, CDR, the
// any type and the FT-CORBA InvalidState sentinel), so the core's own tests
// can use it too.
package history

import (
	"fmt"
	"sync"
	"time"

	"eternal/internal/anyval"
	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/orb"
)

// Register is a replicated string register with its full write history:
// "set" appends its argument, "get" answers the last value written (empty
// before any) and "history" every value in execution order. Its state is
// the history, so a recovered replica carries it too.
type Register struct {
	mu  sync.Mutex
	log []string
}

// Invoke executes one operation.
func (r *Register) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op {
	case "set":
		s, err := cdr.NewDecoder(args, order).ReadString()
		if err != nil {
			return nil, err
		}
		r.log = append(r.log, s)
		return nil, nil
	case "get":
		e := cdr.NewEncoder(order)
		if n := len(r.log); n > 0 {
			e.WriteString(r.log[n-1])
		} else {
			e.WriteString("")
		}
		return e.Bytes(), nil
	case "history":
		return encode(r.log, order), nil
	default:
		return nil, orb.BadOperation()
	}
}

// GetState returns the history.
func (r *Register) GetState() (anyval.Any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return anyval.FromBytes(encode(r.log, cdr.BigEndian)), nil
}

// SetState replaces the history with one GetState captured.
func (r *Register) SetState(st anyval.Any) error {
	raw, err := st.Bytes()
	if err != nil {
		return ftcorba.ErrInvalidState
	}
	log, err := decode(raw, cdr.BigEndian)
	if err != nil {
		return ftcorba.ErrInvalidState
	}
	r.mu.Lock()
	r.log = log
	r.mu.Unlock()
	return nil
}

// Read returns the history of the register obj refers to.
func Read(obj *orb.ObjectRef, timeout time.Duration) ([]string, error) {
	out, err := obj.InvokeTimeout("history", nil, timeout)
	if err != nil {
		return nil, err
	}
	return decode(out, cdr.BigEndian)
}

func encode(log []string, order cdr.ByteOrder) []byte {
	e := cdr.NewEncoder(order)
	e.WriteULong(uint32(len(log)))
	for _, s := range log {
		e.WriteString(s)
	}
	return e.Bytes()
}

func decode(raw []byte, order cdr.ByteOrder) ([]string, error) {
	d := cdr.NewDecoder(raw, order)
	n, err := d.ReadULong()
	var log []string
	for i := uint32(0); err == nil && i < n; i++ {
		var s string
		s, err = d.ReadString()
		log = append(log, s)
	}
	if err != nil {
		return nil, err
	}
	return log, nil
}

// Op is one attempt a client made to write Value. Acked says the client got
// the reply; an attempt that failed or timed out has an unknown outcome and
// may or may not have been executed. Every attempt writes a value of its own,
// so a retry is a separate Op.
type Op struct {
	Client string
	Value  string
	Acked  bool
}

// Check holds a register's history against the attempts that wrote it.
// ops lists each client's attempts in the order it issued them, one at a
// time: an attempt was issued only after the client knew the outcome of its
// previous one. Check fails if
//   - the history holds a value no attempt wrote,
//   - a value appears twice (an attempt executed twice),
//   - an acked attempt is missing (acked work lost), or
//   - an attempt appears before an attempt its client had acked before
//     issuing it (acked work reordered).
//
// An attempt of unknown outcome may be absent, or present once anywhere
// after the client's earlier acked attempts.
func Check(ops []Op, hist []string) error {
	at := make(map[string]int, len(hist))
	for i, v := range hist {
		if j, dup := at[v]; dup {
			return fmt.Errorf("value %q appears twice in the history (positions %d and %d)", v, j, i)
		}
		at[v] = i
	}
	issued := make(map[string]bool, len(ops))
	// lastAcked is, per client, the history position of its latest acked
	// attempt so far and that attempt's value.
	type acked struct {
		pos   int
		value string
	}
	lastAcked := make(map[string]acked)
	for _, op := range ops {
		if issued[op.Value] {
			return fmt.Errorf("value %q was issued by two attempts", op.Value)
		}
		issued[op.Value] = true
		pos, present := at[op.Value]
		if !present {
			if op.Acked {
				return fmt.Errorf("acked write %q of %s is missing from the history (%d values)", op.Value, op.Client, len(hist))
			}
			continue
		}
		if prev, ok := lastAcked[op.Client]; ok && pos < prev.pos {
			return fmt.Errorf("%s's write %q (position %d) precedes %q (position %d), which it had acked before issuing it",
				op.Client, op.Value, pos, prev.value, prev.pos)
		}
		if op.Acked {
			lastAcked[op.Client] = acked{pos, op.Value}
		}
	}
	for i, v := range hist {
		if !issued[v] {
			return fmt.Errorf("history holds %q (position %d), which no attempt wrote", v, i)
		}
	}
	return nil
}
