package core

import (
	"sync"
	"testing"
	"time"

	"eternal/internal/anyval"
	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/giop"
	"eternal/internal/orb"
	"eternal/internal/recovery"
	"eternal/internal/replication"
	"eternal/internal/simnet"
)

// relay is a middle-tier replica: each "relay" adds 1 to the backend
// counter through a nested invocation and answers with the backend's new
// value. Its state is the number of relays it has made, and it keeps what
// each nested call returned, so a test can see what a replica that never
// answers its client got.
type relay struct {
	backend *orb.ObjectRef

	mu      sync.Mutex
	relays  int64
	results []int64
	errs    []error
}

func (r *relay) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	if op != "relay" {
		return nil, orb.BadOperation()
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(1)
	out, err := r.backend.Invoke("add", e.Bytes())
	var v int64
	if err == nil {
		v, err = cdr.NewDecoder(out, cdr.BigEndian).ReadLongLong()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.errs = append(r.errs, err)
		return nil, err
	}
	r.relays++
	r.results = append(r.results, v)
	return out, nil
}

func (r *relay) GetState() (anyval.Any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return anyval.FromLongLong(r.relays), nil
}

func (r *relay) SetState(st anyval.Any) error {
	v, ok := st.Value.(int64)
	if !ok {
		return ftcorba.ErrInvalidState
	}
	r.mu.Lock()
	r.relays = v
	r.mu.Unlock()
	return nil
}

// last returns the replica's relay count and its latest nested result.
func (r *relay) last() (relays, result int64, errs []error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.results) > 0 {
		result = r.results[len(r.results)-1]
	}
	return r.relays, result, append([]error(nil), r.errs...)
}

// relayTier is a 2-way active middle tier "mid" over a backend counter
// "ctr", driven by an outer client on a third node.
type relayTier struct {
	*testCluster
	mu        sync.Mutex
	instances map[string][]*relay // by node, in creation order
}

// hostRelays gives node a "Relay" factory. Every replica on the node invokes
// the backend through one client ORB under the group's own name, so replicas
// on different nodes issue the same logical connection.
func (rt *relayTier) hostRelays(node string) {
	rt.t.Helper()
	n := rt.nodes[node]
	if err := n.AwaitGroup("ctr", 10*time.Second); err != nil {
		rt.t.Fatal(err)
	}
	o := n.ClientORB("mid", orb.Options{RequestTimeout: 3 * time.Second})
	rt.t.Cleanup(o.Close)
	ref, err := n.GroupIOR("ctr")
	if err != nil {
		rt.t.Fatal(err)
	}
	n.RegisterFactory("Relay", func(oid string) ftcorba.Replica {
		backend, err := o.Object(ref)
		if err != nil {
			panic(err)
		}
		r := &relay{backend: backend}
		rt.mu.Lock()
		rt.instances[node] = append(rt.instances[node], r)
		rt.mu.Unlock()
		return r
	})
}

// newest returns the node's most recently created relay replica.
func (rt *relayTier) newest(node string) *relay {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	all := rt.instances[node]
	if len(all) == 0 {
		rt.t.Fatalf("%s never created a relay replica", node)
	}
	return all[len(all)-1]
}

// egress returns the next logical request id of node's connection from the
// middle tier to the backend — the client-side ORB state (§4.2.1) — and
// how many replies the node's middle-tier client entity keeps early.
func (rt *relayTier) egress(node string) (next uint32, early int) {
	rt.t.Helper()
	ce := rt.nodes[node].clientEntityIfExists("mid")
	if ce == nil {
		rt.t.Fatalf("%s has no client entity for mid", node)
	}
	id := replication.ConnID{Client: "mid", Group: "ctr"}
	ce.mu.Lock()
	defer ce.mu.Unlock()
	ec, ok := ce.conns[id]
	if !ok {
		rt.t.Fatalf("%s has no egress connection %v", node, id)
	}
	return ec.nextLogical, len(ce.early)
}

// TestRecoveredMidTierContinuesClientNumbering kills one replica of a 2-way
// active middle tier while the other keeps invoking the backend, then
// recovers it, on its own node or on a node that joined since. The survivor's
// per-connection request-id counter reaches the recovered replica in the
// transferred ORB-level state, so its next nested call carries the same
// logical id as its twin's: the backend executes it once, and both middle
// replicas get its reply.
func TestRecoveredMidTierContinuesClientNumbering(t *testing.T) {
	for _, tc := range []struct{ name, onto string }{
		{"same node", "n3"},
		{"fresh node", "n4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := &relayTier{
				testCluster: newTestCluster(t, simnet.Config{}, "n1", "n2", "n3"),
				instances:   make(map[string][]*relay),
			}
			rt.createGroup("ctr", ftcorba.Active, []string{"n1"}, 1)
			rt.hostRelays("n2")
			rt.hostRelays("n3")
			err := rt.nodes["n2"].CreateGroup(replication.GroupSpec{
				Name: "mid", TypeName: "Relay",
				Props: ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 2, MinReplicas: 1},
				Nodes: []string{"n2", "n3"},
			}, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			outer := rt.client("n1", "driver", "mid")
			relayOnce := func(want int64) {
				t.Helper()
				out, err := outer.Invoke("relay", nil)
				if err != nil {
					t.Fatalf("relay %d: %v", want, err)
				}
				if got, _ := cdr.NewDecoder(out, cdr.BigEndian).ReadLongLong(); got != want {
					t.Fatalf("relay returned %d, want %d", got, want)
				}
			}

			const before, during = 5, 3
			for i := int64(1); i <= before; i++ {
				relayOnce(i)
			}
			if err := rt.nodes["n3"].KillReplica("mid", 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if tc.onto != "n3" {
				rt.addNode(tc.onto)
				if err := rt.nodes[tc.onto].AwaitSynced(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				rt.hostRelays(tc.onto)
			}
			// The survivor alone moves the connection's numbering on. The
			// node the replica is to be recovered on is delivered the
			// replies, for a connection it has open or not yet.
			for i := int64(before + 1); i <= before+during; i++ {
				relayOnce(i)
			}
			if err := rt.nodes[tc.onto].RecoverReplica("mid", 15*time.Second); err != nil {
				t.Fatal(err)
			}

			delivered := rt.nodes["n1"].Stats().RepliesDelivered
			const final = before + during + 1
			relayOnce(final)

			// Both middle replicas finish the nested call with the same
			// backend answer, whichever of them answered the client; a
			// recovered replica whose connection restarted the numbering
			// would send an id the backend already answered, get no reply
			// and time out.
			for _, node := range []string{"n2", tc.onto} {
				r := rt.newest(node)
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					relays, result, errs := r.last()
					if len(errs) > 0 {
						t.Fatalf("%s: nested call failed: %v", node, errs)
					}
					if relays == final {
						if result != final {
							t.Fatalf("%s: nested call returned %d, want %d", node, result, final)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s: %d relays, want %d", node, relays, final)
					}
				}
			}
			got, gotEarly := rt.egress(tc.onto)
			want, wantEarly := rt.egress("n2")
			if got != want {
				t.Fatalf("recovered node's next logical request id = %d, survivor's = %d", got, want)
			}
			// Nothing is kept for a request that will not come: not the
			// survivor's replies a killed replica's node was delivered.
			if gotEarly != 0 || wantEarly != 0 {
				t.Fatalf("early replies kept: %d on %s, %d on n2", gotEarly, tc.onto, wantEarly)
			}
			if got := rt.nodes["n1"].Stats().RepliesDelivered - delivered; got != 1 {
				t.Fatalf("outer client's node delivered %d replies to the last relay, want 1", got)
			}
			// The backend executed every nested call once.
			if got := get(t, rt.client("n1", "checker", "ctr")); got != final {
				t.Fatalf("backend counter = %d after %d relays", got, final)
			}
		})
	}
}

// TestReplyAheadOfItsRequestWaits: a reply ordered before this node's ORB
// has sent its request — a twin replica of the client ran ahead, and the
// group answered the twin — waits for the request and answers it there,
// where written at once it would reach an ORB not waiting for it and be
// dropped. The request itself is not sent again.
func TestReplyAheadOfItsRequestWaits(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1")
	c.createGroup("ctr", ftcorba.Active, []string{"n1"}, 1)
	n := c.nodes["n1"]
	obj := c.client("n1", "twin", "ctr")
	ce := n.clientEntityIfExists("twin")
	early := func() int {
		ce.mu.Lock()
		defer ce.mu.Unlock()
		return len(ce.early)
	}

	// The group's replies to the twin's requests, first before this node's
	// ORB has opened the connection at all, then once it has.
	for op := uint32(0); op < 2; op++ {
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteLongLong(int64(42 + op))
		reply := giop.EncodeReply(giop.Version12, cdr.BigEndian,
			&giop.ReplyHeader{RequestID: op, Status: giop.ReplyNoException}, e.Bytes())
		n.multicast(&replication.Envelope{
			Kind: replication.KReply, Group: "ctr",
			Conn: replication.ConnID{Client: "twin", Group: "ctr"}, OpID: op,
			Payload: reply.Marshal(),
		})
		for deadline := time.Now().Add(5 * time.Second); early() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("op %d: the reply ahead of its request was not kept", op)
			}
		}
		executed := n.Stats().RequestsExecuted
		if got := get(t, obj); got != int64(42+op) {
			t.Fatalf("op %d: get = %d, want %d from the reply ordered ahead of it", op, got, 42+op)
		}
		if got := n.Stats().RequestsExecuted - executed; got != 0 {
			t.Fatalf("op %d: the answered request was executed %d more times", op, got)
		}
		if got := early(); got != 0 {
			t.Fatalf("op %d: %d early replies left", op, got)
		}
	}
	// The next request goes to the group.
	if got := get(t, obj); got != 0 {
		t.Fatalf("third get = %d, want the counter's 0", got)
	}
}

// TestInstallClientConnsAcrossTheWrap: a connection that survived its
// replica's recovery is re-based on the transferred counter in the serial
// order of ids. Its local counter sits just below the wrap and the group's
// has wrapped past zero, so the group's is ahead: the offset takes the
// connection onto it.
func TestInstallClientConnsAcrossTheWrap(t *testing.T) {
	conn := replication.ConnID{Client: "mid", Group: "backend", Seq: 1}
	ce := newClientEntity(nil, "mid")
	ec := &egressConn{entity: ce, id: conn, localNext: 1<<32 - 2, nextLogical: 1<<32 - 2}
	ce.conns[conn] = ec
	ce.installClientConns([]recovery.ClientConnState{{Conn: conn, NextRequestID: 3}}, nil)
	if ec.nextLogical != 3 || ec.offset != 5 {
		t.Fatalf("nextLogical %d offset %d, want 3 and 5 (local 2³²−2 + 5 wraps to 3)", ec.nextLogical, ec.offset)
	}
	// A transferred counter behind the local one leaves the connection as
	// it is.
	ce.installClientConns([]recovery.ClientConnState{{Conn: conn, NextRequestID: 1<<32 - 3}}, nil)
	if ec.nextLogical != 3 || ec.offset != 5 {
		t.Fatalf("nextLogical %d offset %d after an older counter, want 3 and 5 unchanged", ec.nextLogical, ec.offset)
	}
}

// TestClosedClientsLateReplyIsDropped: a client closes its ORB while a call
// is outstanding. The reply, ordered later, reaches a connection its ORB
// has closed: the node's delivery loop drops it without blocking, and a
// second client on the same node completes calls before and after it.
func TestClosedClientsLateReplyIsDropped(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	slow := &gatedCounter{gate: make(chan struct{})}
	slow.armed.Store(true)
	open := sync.OnceFunc(func() { close(slow.gate) })
	t.Cleanup(open)
	c.nodes["n2"].RegisterFactory("Gated", func(string) ftcorba.Replica { return slow })
	err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
		Name: "slow", TypeName: "Gated", Nodes: []string{"n2"},
		Props: ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 1, MinReplicas: 1},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	second := c.client("n1", "second", "ctr")

	n1 := c.nodes["n1"]
	first := n1.ClientORB("first", orb.Options{RequestTimeout: 15 * time.Second})
	ref, err := n1.GroupIOR("slow")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := first.Object(ref)
	if err != nil {
		t.Fatal(err)
	}
	outstanding := make(chan error, 1)
	go func() {
		_, err := tryAdd(obj, 1)
		outstanding <- err
	}()
	waitUntil(t, "the call sent", func() bool {
		st, ok := first.ConnStats(obj.Endpoint())
		return ok && st.RequestsSent == 1
	})
	first.Close()
	if err := <-outstanding; err != orb.ErrORBClosed {
		t.Fatalf("the outstanding call ended with %v, want %v", err, orb.ErrORBClosed)
	}
	if v := add(t, second, 1); v != 1 {
		t.Fatalf("add 1 answered %d, want 1", v)
	}

	delivered := n1.Stats().RepliesDelivered
	open()
	waitUntil(t, "the late reply at n1", func() bool { return n1.Stats().RepliesDelivered == delivered+1 })
	for i := int64(2); i <= 4; i++ {
		if v := add(t, second, 1); v != i {
			t.Fatalf("add 1 answered %d, want %d", v, i)
		}
	}
}
