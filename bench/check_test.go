package main

import (
	"strings"
	"testing"
)

func goodInput() checkInput {
	st := stateID{Count: 100, Digest: 0xabc}
	donor := stateID{Count: 60, Digest: 0x123}
	return checkInput{
		Live:      []liveState{{"n1", st}, {"n2", st}, {"n3", st}},
		Acked:     98,
		Attempted: 100, // two requests timed out but did execute
		Captures:  map[stateID]bool{donor: true},
		Applies:   []applied{{"n3", donor}},
	}
}

func TestCheckAcceptsAConsistentRun(t *testing.T) {
	if v := check(goodInput()); len(v) != 0 {
		t.Fatalf("violations on a consistent run: %v", v)
	}
}

func expectViolation(t *testing.T, in checkInput, want string) {
	t.Helper()
	v := check(in)
	for _, line := range v {
		if strings.Contains(line, want) {
			return
		}
	}
	t.Errorf("no violation containing %q; got %v", want, v)
}

func TestCheckRejectsALostAck(t *testing.T) {
	in := goodInput()
	in.Acked = 101 // a client holds a reply the replicas never counted
	in.Attempted = 101
	expectViolation(t, in, "acknowledged write lost")
}

func TestCheckRejectsADivergedReplica(t *testing.T) {
	in := goodInput()
	in.Live[2].State.Digest ^= 1 // same count, one blob byte differs
	expectViolation(t, in, "replicas diverged")
	in = goodInput()
	in.Live[1].State.Count-- // one replica missed an operation
	expectViolation(t, in, "replicas diverged")
}

func TestCheckRejectsADoubleExecution(t *testing.T) {
	in := goodInput()
	for i := range in.Live {
		in.Live[i].State.Count = 101
	}
	expectViolation(t, in, "executed twice")
}

func TestCheckRejectsAStateNoDonorCaptured(t *testing.T) {
	in := goodInput()
	in.Applies = append(in.Applies, applied{"n2", stateID{Count: 61, Digest: 0x123}})
	expectViolation(t, in, "no donor captured")
}

func TestCheckRejectsAnEmptyGroup(t *testing.T) {
	in := goodInput()
	in.Live = nil
	expectViolation(t, in, "no live replica")
}

func TestReplyCheck(t *testing.T) {
	var c replyCheck
	enc := func(v uint64) []byte {
		return []byte{byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	}
	for _, v := range []uint64{1, 2, 5} {
		if err := c.ping(enc(v)); err != nil {
			t.Fatalf("ping(%d): %v", v, err)
		}
	}
	if err := c.ping(enc(5)); err == nil {
		t.Error("a repeated count passed: one client's replies must strictly increase")
	}
	if err := c.ping(enc(4)); err == nil {
		t.Error("a count going backwards passed")
	}
	if err := c.ping([]byte{1, 2}); err == nil {
		t.Error("a truncated reply passed")
	}
	if err := c.echo([]byte("abc"), []byte("abc")); err != nil {
		t.Errorf("echo of equal bytes: %v", err)
	}
	if err := c.echo([]byte("abc"), []byte("abd")); err == nil {
		t.Error("an echo reply that differs from its argument passed")
	}
}

// The servant is its own reference: the same operations in the same order
// give the same state, and a state handed over by get_state/set_state is
// recorded on both sides of the ledger.
func TestServantStateTransfer(t *testing.T) {
	book := newLedger()
	blob := seededBlob(7, 4096)
	a := book.factory("n1", blob)("x").(*servant)
	b := book.factory("n2", blob)("x").(*servant)
	for i := 0; i < 1000; i++ {
		a.Invoke("ping", nil, 0)
		b.Invoke("ping", nil, 0)
	}
	if a.state() != b.state() {
		t.Fatalf("same operations, different states: %v vs %v", a.state(), b.state())
	}
	a.Invoke("echo", []byte("x"), 0)
	if a.state() == b.state() {
		t.Fatal("an extra write did not change the state")
	}
	st, err := a.GetState()
	if err != nil {
		t.Fatal(err)
	}
	c := book.factory("n3", blob)("x").(*servant)
	if err := c.SetState(st); err != nil {
		t.Fatal(err)
	}
	if c.state() != a.state() {
		t.Fatalf("recovered replica %v differs from its donor %v", c.state(), a.state())
	}
	if !book.captures[a.state()] || len(book.applies) != 1 || book.applies[0] != (applied{"n3", a.state()}) {
		t.Errorf("ledger: captures=%v applies=%v", book.captures, book.applies)
	}
	if book.instance("n3") != c {
		t.Error("the newest instance on n3 is not the live one")
	}
}
