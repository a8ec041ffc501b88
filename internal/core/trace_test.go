package core

import (
	"fmt"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/giop"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/replication"
	"eternal/internal/simnet"
)

// TestReplicatedClientInvocationIsOneTrace: two replicas of one client
// entity, on n1 and n2, issue the same logical invocation to a group whose
// one replica, on n3, holds its execution until both have intercepted it.
// Both copies derive one trace id from the connection and operation they
// share, and so does the reply, which closes the span on each client's
// node. The merged span feeds — what `eternalctl trace` merges — hold that
// one trace, stamped intercepted on both client nodes and ordered at the
// first copy's position everywhere. A copy ordered after the reply, as a
// slow client replica sends it, marks no span: there is no duplicate and no
// orphan trace.
func TestReplicatedClientInvocationIsOneTrace(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	gated := &gatedCounter{gate: make(chan struct{})}
	gated.armed.Store(true)
	c.nodes["n3"].RegisterFactory("Gated", func(string) ftcorba.Replica { return gated })
	if err := c.nodes["n3"].CreateGroup(replication.GroupSpec{
		Name: "ctr", TypeName: "Gated", Nodes: []string{"n3"},
		Props: ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 1, MinReplicas: 1},
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	twins := []string{"n1", "n2"}
	objs := make(map[string]*orb.ObjectRef)
	for _, a := range twins {
		objs[a] = c.client(a, "twin", "ctr")
	}
	results := make(chan error, len(twins))
	for _, a := range twins {
		go func(obj *orb.ObjectRef) {
			v, err := tryAdd(obj, 1)
			if err == nil && v != 1 {
				err = fmt.Errorf("add = %d, want 1: executed once", v)
			}
			results <- err
		}(objs[a])
	}
	for _, a := range twins {
		waitUntil(t, a+" intercepted", func() bool { return c.nodes[a].spans.Open() > 0 })
	}
	close(gated.gate)
	for range twins {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	conn := replication.ConnID{Client: "twin", Group: "ctr"}
	var op uint32
	c.nodes["n1"].onLoop(func() {
		ce := c.nodes["n1"].clientEntityIfExists("twin")
		ce.mu.Lock()
		op = ce.conns[conn].nextLogical - 1
		ce.mu.Unlock()
	})
	trace := replication.TraceID(conn, op)
	// Each client's node closes its span at its reply: Finish journals it
	// with the reply's delivery stamped.
	for _, a := range twins {
		waitUntil(t, a+" closed its span at the reply", func() bool {
			for _, sp := range c.nodes[a].spans.Since(0, 0) {
				if sp.Trace == trace && sp.Phases[obs.SpanIntercepted] != 0 && sp.Phases[obs.SpanReplyDelivered] != 0 {
					return true
				}
			}
			return false
		})
	}
	// Both copies reached n3, which executed one.
	suppressed := func(want uint64) func() bool {
		return func() bool { return c.nodes["n3"].Stats().DuplicatesSuppressed == want }
	}
	waitUntil(t, "the second copy suppressed", suppressed(1))

	merged := func() []obs.MergedTrace {
		feeds := make(map[string][]obs.Span)
		for name, n := range c.nodes {
			n.spans.FlushIdle(0)
			feeds[name] = n.spans.Since(0, 0)
		}
		return obs.MergeSpans(feeds)
	}
	check := func(when string) {
		t.Helper()
		traces := merged()
		if len(traces) != 1 {
			t.Fatalf("%s: %d merged traces, want 1: %+v", when, len(traces), traces)
		}
		mt := traces[0]
		if mt.Trace != trace || mt.SeqDivergent || mt.Seq == 0 || mt.Group != "ctr" || !mt.Complete() {
			t.Fatalf("%s: merged trace %#x seq %d divergent %v group %q complete %v; want %#x at one seq, complete",
				when, mt.Trace, mt.Seq, mt.SeqDivergent, mt.Group, mt.Complete(), trace)
		}
		for _, a := range twins {
			if sp := mt.Spans[a]; sp.Phases[obs.SpanIntercepted] == 0 || sp.Phases[obs.SpanReplyDelivered] == 0 {
				t.Errorf("%s: %s's span %+v lacks its interception or its reply", when, a, sp)
			}
		}
		if sp := mt.Spans["n3"]; sp.Phases[obs.SpanOrdered] == 0 || sp.Phases[obs.SpanExecuted] == 0 {
			t.Errorf("%s: n3's span %+v lacks its ordering or its execution", when, sp)
		}
	}
	check("both copies ordered")

	// A third copy, ordered long after the reply and after every span was
	// journalled, reopens none of them.
	late := &replication.Envelope{
		Kind: replication.KRequest, Group: "ctr", Conn: conn, OpID: op, Trace: trace,
		Payload: giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
			RequestID: op, ResponseExpected: true, ObjectKey: []byte("root/ctr"), Operation: "add"}, nil).Marshal(),
	}
	c.nodes["n2"].multicast(late)
	waitUntil(t, "the late copy suppressed", suppressed(2))
	at := c.nodes["n3"].lastSeq.Load()
	for name, n := range c.nodes {
		// A loop call made once the loop has begun the late copy's
		// delivery runs after it.
		waitUntil(t, name+" delivered the late copy", func() bool { return n.lastSeq.Load() >= at })
		n.onLoop(func() {})
	}
	check("a late copy ordered")
}
