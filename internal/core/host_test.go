package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/giop"
	"eternal/internal/replication"
	"eternal/internal/simnet"
)

// TestReplicaHostRunsNoGoroutinePerConnection: the dispatcher hands each
// ordered request to the replica's ORB in-line, through one session per
// logical client connection — fifty connections cost fifty sessions and
// no goroutine.
func TestReplicaHostRunsNoGoroutinePerConnection(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1")
	c.createGroup("ctr", ftcorba.Active, []string{"n1"}, 1)
	n := c.nodes["n1"]
	var h *replicaHost
	n.onLoop(func() { h = n.hosts["ctr"] })
	if h == nil {
		t.Fatal("n1 hosts no replica of ctr")
	}
	get := giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
		RequestID: 1, ResponseExpected: true, ObjectKey: []byte("root/ctr"), Operation: "get",
	}, nil).Marshal()

	const conns = 50
	before := runtime.NumGoroutine()
	executed := n.counters.requestsExecuted.Value()
	for i := 0; i < conns; i++ {
		h.q.Push(dispatchItem{kind: itemRequest, execute: true, env: &replication.Envelope{
			Kind:    replication.KRequest,
			Group:   "ctr",
			Conn:    replication.ConnID{Client: fmt.Sprintf("c%02d", i), Group: "ctr"},
			OpID:    1,
			Payload: get,
		}})
	}
	sessions := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.conns)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n.counters.requestsExecuted.Value()-executed < conns || sessions() < conns {
		if time.Now().After(deadline) {
			t.Fatalf("executed %d requests on %d sessions, want %d on %d",
				n.counters.requestsExecuted.Value()-executed, sessions(), conns, conns)
		}
		time.Sleep(time.Millisecond)
	}
	if grew := runtime.NumGoroutine() - before; grew >= conns/2 {
		t.Fatalf("%d client connections added %d goroutines", conns, grew)
	}
}

// TestDiscardedRequestLeavesDispatcherFree: a request the replica's ORB
// discards (E5's un-replayed handshake: a short key on a connection it
// never negotiated) has no reply to wait for, so the dispatcher moves
// straight on to the next request — another connection's, answered at
// once.
func TestDiscardedRequestLeavesDispatcherFree(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "m1", "m2")
	for _, n := range c.nodes {
		n.SetORBStateTransfer(false)
	}
	c.createGroup("ctr", ftcorba.Active, []string{"m1", "m2"}, 1)
	negotiated := c.client("m1", "negotiated", "ctr")
	for i := 0; i < 3; i++ {
		add(t, negotiated, 1) // the handshake, then short keys
	}
	if err := c.nodes["m2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["m2"].RecoverReplica("ctr", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["m1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Only m2's recovered replica answers now, and its ORB never saw this
	// client's handshake.
	if _, err := negotiated.InvokeTimeout("get", nil, 300*time.Millisecond); err == nil {
		t.Fatal("the recovered ORB answered a short key it never negotiated")
	}
	fresh := c.client("m1", "fresh", "ctr")
	start := time.Now()
	if _, err := fresh.InvokeTimeout("get", nil, 10*time.Second); err != nil {
		t.Fatalf("a new connection behind the discarded request: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a new connection behind the discarded request was answered after %v, want < 1s", took)
	}
}
