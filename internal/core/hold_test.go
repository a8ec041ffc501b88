package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/giop"
	"eternal/internal/replication"
	"eternal/internal/simnet"
)

// getLoop runs "get" from a client on node in a closed loop, the second
// talker that keeps any one node from being the ring's sole sender (whose
// rest would stand in for the reply holds these tests are about). It
// returns the count of completed invocations and a stop function.
func (c *testCluster) getLoop(node, group string) (done *atomic.Int64, stop func()) {
	c.t.Helper()
	obj := c.client(node, "bg-"+node, group)
	done = new(atomic.Int64)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			if _, err := obj.Invoke("get", nil); err != nil {
				c.t.Errorf("get from %s: %v", node, err)
				return
			}
			done.Add(1)
		}
	}()
	var once sync.Once
	stop = func() { once.Do(func() { close(quit); wg.Wait() }) }
	c.t.Cleanup(stop)
	for deadline := time.Now().Add(5 * time.Second); done.Load() < 20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			c.t.Fatalf("background client on %s is not being served", node)
		}
	}
	return done, stop
}

func (c *testCluster) holds(node string) uint64 { return c.nodes[node].proc.Stats().ReplyHolds }
func (c *testCluster) holdTimeouts(node string) uint64 {
	return c.nodes[node].proc.Stats().ReplyHoldTimeouts
}

// TestReplyHoldOnlyWhereOwnReplicaAnswers: the token waits at a requester
// exactly when the reply it waits for comes from that node — an active
// replica beside the client, the passive primary beside the client — and
// never at a client-only node or beside a passive backup, whose replies
// come from elsewhere whatever the token does.
func TestReplyHoldOnlyWhereOwnReplicaAnswers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		style   ftcorba.ReplicationStyle
		members []string
		holder  string // its own replica answers its client
		never   string // its client's replies come from another node
	}{
		{"active, client-only node", ftcorba.Active, []string{"n2", "n3"}, "n2", "n1"},
		{"warm passive, primary and backup", ftcorba.WarmPassive, []string{"n1", "n2", "n3"}, "n1", "n2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A hold's deadline is one Tick, and fastTotem's millisecond is
			// shorter than the race detector can make a prompt servant: here
			// prompt is to mean prompt, so the Tick is twenty times that.
			c := newXferCluster(t, 0, func(cfg *Config) {
				cfg.Totem.Tick, cfg.Totem.TokenLossTimeout = 20*time.Millisecond, time.Second
			}, "n1", "n2", "n3")
			c.createGroup("ctr", tc.style, tc.members, 1)
			_, stop := c.getLoop(tc.never, "ctr")
			obj := c.client(tc.holder, "driver", "ctr")
			for i := int64(1); i <= 200; i++ {
				if got := add(t, obj, 1); got != i {
					t.Fatalf("add %d = %d", i, got)
				}
			}
			stop()
			if c.holds(tc.holder) == 0 {
				t.Fatalf("%s never held the token for its own replica's reply", tc.holder)
			}
			for _, n := range []string{"n1", "n2", "n3"} {
				if n != tc.holder && c.holds(n) != 0 {
					t.Fatalf("%s held the token %d times for replies it does not send", n, c.holds(n))
				}
				if got := c.holdTimeouts(n); got != 0 {
					t.Fatalf("%s: %d holds ran into their deadline with prompt servants", n, got)
				}
			}
		})
	}
}

// TestReplicatedClientHoldsOnlyForTheFirstCopy: every replica of a
// replicated client multicasts the same invocation (§2.1) and only the
// first ordered copy is executed and answered. A later copy's sender is owed
// nothing, so its token visit must not wait a Tick for a reply that never
// comes. The client replicas are played by hand, one per node, in lockstep.
func TestReplicatedClientHoldsOnlyForTheFirstCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("asserts that no hold meets its one-Tick deadline: not the race detector's to judge")
	}
	nodes := []string{"n1", "n2", "n3"}
	c := newTestCluster(t, simnet.Config{}, nodes...)
	c.createGroup("ctr", ftcorba.Active, nodes, 1)
	for _, n := range nodes {
		if err := c.nodes[n].AwaitGroup("ctr", 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	conn := replication.ConnID{Client: "replicated", Group: "ctr", Seq: 1}
	answered := make(chan uint32, 16)
	c.nodes["n1"].setReplyHook(func(_ string, env *replication.Envelope) {
		if env.Conn == conn {
			answered <- env.OpID
		}
	})
	defer c.nodes["n1"].setReplyHook(nil)
	one := cdr.NewEncoder(cdr.BigEndian)
	one.WriteLongLong(1)
	for op := uint32(1); op <= 150; op++ {
		req := giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
			RequestID: op, ResponseExpected: true, ObjectKey: []byte("root/ctr"), Operation: "add",
		}, one.Bytes())
		for _, n := range nodes {
			go c.nodes[n].multicast(&replication.Envelope{
				Kind: replication.KRequest, Group: "ctr", Conn: conn, OpID: op, Payload: req.Marshal(),
			})
		}
		for got := uint32(0); got != op; {
			select {
			case got = <-answered:
			case <-time.After(5 * time.Second):
				t.Fatalf("invocation %d never answered", op)
			}
		}
	}
	var held uint64
	for _, n := range nodes {
		held += c.holds(n)
		if got := c.holdTimeouts(n); got != 0 {
			t.Errorf("%s: %d holds waited out their deadline for a duplicate's reply", n, got)
		}
	}
	if held == 0 {
		t.Error("no first copy's sender ever held the token for its reply")
	}
}

// stallCounter is counter whose "add" can be made slow: once, for the next
// one (next), or every time (every); nanoseconds.
type stallCounter struct {
	counter
	next, every atomic.Int64
}

func (s *stallCounter) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	if op == "add" {
		time.Sleep(time.Duration(s.next.Swap(0) + s.every.Load()))
	}
	return s.counter.Invoke(op, args, order)
}

// stalledHold sets up a 3-way active group whose replica on n1 is a
// stallCounter, a second talker on n3, and a client on n1, and drives it
// until a token hold at n1 has run into its deadline because the replica
// sat in a stalled "add" — which it still does when stalledHold returns.
// A request enqueued after the token left its node idle nudges for the
// token and is then not held for, so it takes a busy client to get a hold
// and a few rounds to be sure of one. It returns the stalled operation's
// eventual outcome and the count of invocations n3's client completed.
func stalledHold(t *testing.T, stall time.Duration) (c *testCluster, local *stallCounter, result <-chan error, served *atomic.Int64) {
	t.Helper()
	c = newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	local = &stallCounter{}
	c.nodes["n1"].RegisterFactory("Counter", func(string) ftcorba.Replica { return local })
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	served, _ = c.getLoop("n3", "ctr")
	obj := c.client("n1", "driver", "ctr")
	want := int64(0)
	for round := 0; round < 30; round++ {
		for i := 0; i < 20; i++ { // prompt replies: holding is armed, the client busy
			want++
			if got := add(t, obj, 1); got != want {
				t.Fatalf("add = %d, want %d", got, want)
			}
		}
		before := c.holdTimeouts("n1")
		local.next.Store(int64(stall))
		want++
		res := make(chan error, 1)
		go func(want int64) {
			v, err := tryAdd(obj, 1)
			if err == nil && v != want {
				err = fmt.Errorf("add across the stall = %d, want %d", v, want)
			}
			res <- err
		}(want)
		for deadline := time.Now().Add(stall / 2); time.Now().Before(deadline); time.Sleep(fastTotem().Tick / 4) {
			if c.holdTimeouts("n1") > before {
				return c, local, res, served
			}
		}
		if err := <-res; err != nil {
			t.Fatal(err)
		}
		time.Sleep(stall) // the replica finishes the stalled operation
	}
	t.Fatal("no token hold at n1 ran into its deadline in 30 stalled operations")
	return
}

// TestSlowServantCostsPeersOneTickOnce: a hold that ran into its deadline
// disarms holding at its node, so a servant that takes three Ticks every
// time costs the other node's client that one Tick and no more.
func TestSlowServantCostsPeersOneTickOnce(t *testing.T) {
	tick := fastTotem().Tick
	c, local, result, served := stalledHold(t, 40*tick)
	if err := <-result; err != nil { // answered by a peer's lazy copy
		t.Fatal(err)
	}
	time.Sleep(40 * tick)
	local.every.Store(int64(3 * tick))
	obj := c.client("n1", "driver2", "ctr")
	timeouts, holds, before := c.holdTimeouts("n1"), c.holds("n1"), served.Load()
	for i := 0; i < 10; i++ {
		if _, err := tryAdd(obj, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.holdTimeouts("n1") - timeouts; got != 0 {
		t.Fatalf("n1: %d more holds ran into their deadline over 10 slow operations: holding was not disarmed", got)
	}
	if got := c.holds("n1") - holds; got != 0 {
		t.Fatalf("n1 held the token %d more times with a servant slower than a Tick", got)
	}
	if got := served.Load() - before; got < 10 {
		t.Fatalf("n3's client completed %d invocations beside 10 slow ones on n1", got)
	}
}

// TestServantSlowerThanARotationStopsHolding: a hold saves the reply one
// rotation and costs every peer the servant's time. A servant that takes
// half a Tick — far longer than the token stays away, well inside the
// deadline — is held for until one hold has lasted to its late reply, and
// then left to the rotating ring, so the other node's client does not get
// the token once per slow operation.
//
// The rule itself — that one reply disarms, nothing else about a slow
// operation does, and none is held for afterwards — is checked exactly, with
// the clock in hand, by totem's TestReplyHoldStopsAtAServantSlowerThanARotation.
// A live ring cannot tell in advance which slow operation pays: a request
// enqueued after the token left nudges and is not held for, and a hold that
// n3's nudge ends at once teaches nothing. What it can tell is that holding
// does stop and stays stopped: forty slow operations running without a hold,
// well inside five seconds.
func TestServantSlowerThanARotationStopsHolding(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	local := &stallCounter{}
	c.nodes["n1"].RegisterFactory("Counter", func(string) ftcorba.Replica { return local })
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	served, _ := c.getLoop("n3", "ctr")
	obj := c.client("n1", "driver", "ctr")
	want := int64(0)
	adds := func(n int) {
		for i := 0; i < n; i++ {
			want++
			if got := add(t, obj, 1); got != want {
				t.Fatalf("add = %d, want %d", got, want)
			}
		}
	}
	adds(200)
	if c.holds("n1") == 0 {
		t.Fatal("n1 never held the token for a prompt servant's reply")
	}
	local.every.Store(int64(fastTotem().Tick / 2))
	slow, held := 0, c.holds("n1")
	before, start := served.Load(), time.Now()
	for unheld := 0; unheld < 40; slow++ {
		holds := c.holds("n1")
		adds(1)
		if unheld++; c.holds("n1") != holds {
			unheld = 0
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("n1 still holds the token after %d operations of a servant slower than a rotation (%d holds)", slow+1, c.holds("n1")-held)
		}
	}
	// Unheld, n3's client runs at its own pace beside n1's half-Tick
	// operations — some fifteen to each here, not one (EXPERIMENTS.md E15).
	t.Logf("n1 held for %d of %d slow operations; n3's client completed %d invocations beside them, %v each",
		c.holds("n1")-held, slow, served.Load()-before, time.Since(start)/time.Duration(slow))
}

// TestReplicaKilledMidHold: the requester's replica has the request, the
// token is held for its reply, and the reply never comes. The hold ends at
// its deadline, the ring goes on serving the other node's client, and the
// peers' lazy copies answer the request.
func TestReplicaKilledMidHold(t *testing.T) {
	c, _, result, served := stalledHold(t, 200*fastTotem().Tick)
	timeouts, before := c.holdTimeouts("n1"), served.Load()
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply: the peers' lazy copies never went out")
	}
	for deadline := time.Now().Add(5 * time.Second); served.Load() < before+20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("n3's client is not served after the hold at n1 timed out")
		}
	}
	if got := c.holdTimeouts("n1"); got != timeouts {
		t.Fatalf("n1: %d hold timeouts after the one the stall caused", got-timeouts)
	}
}
