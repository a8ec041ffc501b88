package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/replication"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// slowCounter is counter with a fixed service time, so a test can decide
// which replica's reply is ordered first.
type slowCounter struct {
	counter
	delay time.Duration
}

func (s *slowCounter) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	time.Sleep(s.delay)
	return s.counter.Invoke(op, args, order)
}

func TestReplyMarksHighWater(t *testing.T) {
	m := newReplyMarks("n1")
	conn := replication.ConnID{Client: "c", Group: "g"}
	other := replication.ConnID{Client: "c", Group: "g", Seq: 1}
	if m.covers(conn, 1) {
		t.Fatal("empty marks cover an operation")
	}
	m.seen.FirstDelivery(conn, 7)
	m.seen.FirstDelivery(conn, 5) // a late duplicate never lowers the mark
	for op, want := range map[uint32]bool{1: true, 7: true, 8: false} {
		if got := m.covers(conn, op); got != want {
			t.Fatalf("covers(op %d) = %v with the mark at 7", op, got)
		}
	}
	if m.covers(other, 1) {
		t.Fatal("mark leaked across connections")
	}
}

// TestOrderedMarksOnlyOwnAnsweredRequests: the token may wait for a reply
// only where this node's own replica sends it at once — the first ordered
// copy of a two-way request, multicast by this node, to a group it answers
// for. Everything else goes unmarked.
func TestOrderedMarksOnlyOwnAnsweredRequests(t *testing.T) {
	m := newReplyMarks("n1")
	m.answering.Store("g", true)
	for _, tc := range []struct {
		name   string
		sender string
		env    replication.Envelope
		want   bool
	}{
		{"own request", "n1", replication.Envelope{Kind: replication.KRequest, Group: "g", OpID: 1}, true},
		{"oneway", "n1", replication.Envelope{Kind: replication.KRequest, Group: "g", OpID: 2, Oneway: true}, false},
		{"foreign sender", "n2", replication.Envelope{Kind: replication.KRequest, Group: "g", OpID: 3}, false},
		{"own copy behind a peer client replica's", "n1", replication.Envelope{Kind: replication.KRequest, Group: "g", OpID: 3}, false},
		{"own copy again", "n1", replication.Envelope{Kind: replication.KRequest, Group: "g", OpID: 1}, false},
		{"group answered elsewhere", "n1", replication.Envelope{Kind: replication.KRequest, Group: "h", OpID: 4}, false},
		{"reply", "n1", replication.Envelope{Kind: replication.KReply, Group: "g"}, false},
		{"control envelope", "n1", replication.Envelope{Kind: replication.KAddMember, Group: "g"}, false},
	} {
		d := totem.Delivery{Sender: tc.sender, Payload: tc.env.Encode()}
		m.ordered(&d)
		if d.ReplyOwed != tc.want || d.App == nil {
			t.Errorf("%s: ReplyOwed = %v, App = %v; want %v and the decoded envelope", tc.name, d.ReplyOwed, d.App, tc.want)
		}
	}
}

// TestWinningReplicaDiesOnceItsReplyIsOrdered is the hazard sender-side
// suppression must survive. n2's reply is ordered at n3 — which therefore
// never sends its own copy — and n2 drops dead at that very point, before
// the client's node n1 has the frame (n1 is deaf to n2's broadcasts, so it
// could only ever learn the frame by retransmission). The one copy of the
// reply on the wire is now held by n3 alone, in totem's store, where it
// stays until every member has it: n1 asks for it once the ring has
// reformed without n2, and the client gets its reply — exactly one.
func TestWinningReplicaDiesOnceItsReplyIsOrdered(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	// n3 is slow, so n2's copy of every reply is ordered first.
	c.nodes["n3"].RegisterFactory("Counter", func(string) ftcorba.Replica {
		return &slowCounter{delay: 20 * time.Millisecond}
	})
	c.createGroup("ctr", ftcorba.Active, []string{"n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	if got := add(t, obj, 1); got != 1 {
		t.Fatalf("warm-up add = %d", got)
	}
	time.Sleep(50 * time.Millisecond) // n3 finishes the warm-up operation
	before := c.nodes["n1"].Stats()

	c.net.SetLink("n2", "n1", simnet.LinkOverride{Drop: true})
	var once sync.Once
	died := make(chan struct{})
	c.nodes["n3"].setReplyHook(func(sender string, env *replication.Envelope) {
		if sender == "n2" {
			// On n3's ordering goroutine, at the reply's ordered point.
			once.Do(func() { c.net.Isolate("n2"); close(died) })
		}
	})
	if got := add(t, obj, 1); got != 2 {
		t.Fatalf("add across the winner's death = %d, want 2", got)
	}
	select {
	case <-died:
	default:
		t.Fatal("n2's reply was never ordered at n3: the test did not exercise the hazard")
	}
	c.nodes["n3"].setReplyHook(nil)
	time.Sleep(50 * time.Millisecond) // n3 finishes; its copy must stay home
	after := c.nodes["n1"].Stats()
	if got := after.RepliesDelivered - before.RepliesDelivered; got != 1 {
		t.Fatalf("client's node delivered %d replies, want exactly 1", got)
	}
	if got := after.DuplicateReplies - before.DuplicateReplies; got != 0 {
		t.Fatalf("client's node saw %d duplicate replies: n3 did not withdraw", got)
	}
	if got := c.nodes["n3"].Stats().RepliesWithdrawn; got < 2 {
		t.Fatalf("n3 withdrew %d replies, want its copy of both", got)
	}
	// n3 is the group now and answers on its own.
	c.crashNode("n2")
	if got := add(t, obj, 1); got != 3 {
		t.Fatalf("add after the failover = %d, want 3", got)
	}
}

// TestRecoveringReplicaReplaysWithoutReplying: a recovering replica holds
// its queue from its synchronization point until the state arrives, then
// replays it. Every request in that queue was answered long ago by the
// operational replicas, and the replies were ordered on this node too — so
// the replay multicasts none of them.
//
// A megabyte of state in 2 KiB chunks (512 of them, two a token visit)
// stretches the recovery, during which the client keeps the held queue
// growing.
func TestRecoveringReplicaReplaysWithoutReplying(t *testing.T) {
	c := newXferCluster(t, 1<<20, func(cfg *Config) {
		cfg.StateChunkBytes = 2048
	}, "n1", "n2", "n3")
	createBlobGroup(t, c, "blob", 1, "n1", "n2", "n3")
	obj := c.client("n1", "driver", "blob")
	ping(t, obj)

	// Every reply ordered anywhere is ordered on n1: note whose copy came
	// first for each operation, and whose came second.
	var mu sync.Mutex
	first := make(map[uint32]string)
	surplus := make(map[string]int)
	c.nodes["n1"].setReplyHook(func(sender string, env *replication.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := first[env.OpID]; dup {
			surplus[sender]++
		} else {
			first[env.OpID] = sender
		}
	})

	if err := c.nodes["n3"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	traffic := make(chan struct{})
	go func() {
		defer close(traffic)
		for {
			select {
			case <-stop:
				return
			default:
				ping(t, obj)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	err := c.nodes["n3"].RecoverReplica("blob", 15*time.Second)
	close(stop)
	<-traffic
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	tls := c.nodes["n3"].RecoveryTimelines()
	if len(tls) == 0 {
		t.Fatal("no recovery timeline on n3")
	}
	held := tls[0].Enqueued
	if held < 10 {
		t.Fatalf("only %d requests were held while recovering: the test did not build a queue", held)
	}
	// All but the request in flight when the state arrived had its reply
	// ordered before the replay got to it.
	if got := c.nodes["n3"].Stats().RepliesWithdrawn; int(got) < held-1 {
		t.Fatalf("n3 replayed %d held requests but kept only %d replies home", held, got)
	}
	t.Logf("n3 held %d requests while recovering and kept %d replies home", held, c.nodes["n3"].Stats().RepliesWithdrawn)
	mu.Lock()
	defer mu.Unlock()
	if n := surplus["n3"]; n != 0 {
		t.Fatalf("%d replies from the recovered replica were ordered behind a peer's copy", n)
	}
}

// retiredRemoveMember is a RemoveMember envelope for n2's replica of group
// g in the CDR layout, kind 4 — byte for byte the one replication's
// TestRetiredCDREnvelopesAreRejected keeps.
var retiredRemoveMember = []byte{
	4, 0, 0, 0, // kind, padding
	0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
	0, 0, 0, 3, 'n', '2', 0, 0, // node, padding
	0, 0, 0, 1, 0, 0, 0, 0, // client, padding
	0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
	0, 0, 0, 0, 0, 0, 0, 0, // connection seq
	0, 0, 0, 0, // operation id
	0, 0, 0, 0, // oneway, padding
	0, 0, 0, 0, 0, 0, 0, 0, // transfer id
	0, 0, 0, 0, 0, 0, 0, 0, // trace
	0, 0, 0, 0, // payload
}

// retiredStateRetransmit is a kind-36 envelope, the retired request to
// resend chunk "x" of transfer 1 — byte for byte the one replication's
// TestRetiredCompactEnvelopesAreRejected keeps.
var retiredStateRetransmit = []byte{36, 0, 1, 'g', 2, 'n', '2', 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}

// TestRetiredEnvelopeIsCountedAndMovesNothing: a node still writing CDR
// envelopes shares the ring — Totem's wire is the same — and multicasts a
// RemoveMember for n2's replica of a live 3-way active group; a node still
// asking for state chunks again multicasts a retransmit request. Every node
// drops both at their positions in the total order and counts them; no
// group table and no replica moves, and all three replicas go on serving.
func TestRetiredEnvelopeIsCountedAndMovesNothing(t *testing.T) {
	all := []string{"n1", "n2", "n3"}
	c := newTestCluster(t, simnet.Config{}, all...)
	var mu sync.Mutex
	replicas := make(map[string]*counter)
	for _, a := range all {
		c.nodes[a].RegisterFactory("Counter", func(string) ftcorba.Replica {
			mu.Lock()
			defer mu.Unlock()
			replicas[a] = &counter{}
			return replicas[a]
		})
	}
	c.createGroup("g", ftcorba.Active, all, 1)
	obj := c.client("n1", "driver", "g")
	// state renders a node's group table and its replica's count once that
	// count is want (an active group's other replicas trail the reply).
	state := func(a string, want int64) string {
		t.Helper()
		n := c.nodes[a]
		var table []byte
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			mu.Lock()
			r := replicas[a]
			mu.Unlock()
			if r != nil {
				r.mu.Lock()
				v := r.v
				r.mu.Unlock()
				if v == want && n.onLoop(func() { table = n.table.EncodeTable() }) {
					return fmt.Sprintf("%x", table)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica never reached %d", a, want)
			}
		}
	}
	add(t, obj, 5)
	before := make(map[string]string)
	rejected := make(map[string]uint64)
	for _, a := range all {
		before[a], rejected[a] = state(a, 5), c.nodes[a].Stats().EnvelopesRejected
	}
	for _, retired := range [][]byte{retiredRemoveMember, retiredStateRetransmit} {
		if err := c.nodes["n2"].proc.Multicast(retired); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range all {
		for deadline := time.Now().Add(5 * time.Second); c.nodes[a].Stats().EnvelopesRejected != rejected[a]+2; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: rejected %d envelopes, want %d", a, c.nodes[a].Stats().EnvelopesRejected, rejected[a]+2)
			}
		}
		if after := state(a, 5); after != before[a] {
			t.Errorf("%s: group table moved:\n%s\n%s", a, before[a], after)
		}
	}
	if got := add(t, obj, 1); got != 6 {
		t.Fatalf("add after the retired envelope = %d, want 6", got)
	}
	for _, a := range all {
		state(a, 6)
	}
}
